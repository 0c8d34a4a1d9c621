"""The benchmark's workloads: each is a fixed list of CLI invocations.

One *pass* runs a workload's list once.  The workload seed draws a fresh
``--kl`` from [1.5, 4 pi] and ``--sin-beta`` from [-1, 1] for every pass; the
grid sizes are fixed, so every pass does the same amount of work.  Why each
workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

KL_RANGE = (1.5, 4.0 * math.pi)
SIN_BETA_RANGE = (-1.0, 1.0)

# sizes that stand in for the placeholders in the commands below.  grid-json
# uses 201x201: a 401x401 JSON pass takes 5-9 s on a 2-core VM, too few passes
# per run for a steady figure.  The smoke test runs every workload at TINY_SIZES.
SIZES = {"GRID": 401, "JSON_GRID": 201, "AXIS": 25001}
TINY_SIZES = {"GRID": 5, "JSON_GRID": 5, "AXIS": 11}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # each entry is one invocation: the command followed by its size/format flags,
    # sizes as keys of SIZES; --kl/--sin-beta/--out are appended per pass
    commands: tuple[tuple[str, ...], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-csv",
            "fig2+fig4 on a 401x401 grid as CSV: the emission kernel and the CSV render dominate",
            (
                ("fig2", "--grid-d", "GRID", "--grid-b", "GRID", "--format", "csv"),
                ("fig4", "--grid-d", "GRID", "--grid-b", "GRID", "--format", "csv"),
            ),
        ),
        Workload(
            "grid-json",
            "fig2+fig4 on a 201x201 grid as JSON: the JSON render dominates time and peak memory",
            (
                ("fig2", "--grid-d", "JSON_GRID", "--grid-b", "JSON_GRID", "--format", "json"),
                ("fig4", "--grid-d", "JSON_GRID", "--grid-b", "JSON_GRID", "--format", "json"),
            ),
        ),
        Workload(
            "axis-long",
            "fig3+fig5 on a 25001-point discord axis plus transition: discord-axis inversion is half a pass",
            (
                ("fig3", "--grid-d", "AXIS"),
                ("fig5", "--grid-d", "AXIS"),
                ("transition",),
            ),
        ),
        Workload(
            "verify",
            "the 18 verify suites: state validation, numeric discord and the operator-trace oracles",
            (("verify",),),
        ),
    )
}


def make_passes(workload: Workload, seed: int, sizes: dict[str, int] = SIZES):
    """Yield the passes of ``workload`` for ``seed``, each as the argv (without
    ``--out``) of its invocations; the same seed gives the same passes."""
    rng = random.Random(seed)
    sizes = {name: str(size) for name, size in sizes.items()}
    while True:
        kl = rng.uniform(*KL_RANGE)
        sin_beta = rng.uniform(*SIN_BETA_RANGE)
        invocations = []
        for command in workload.commands:
            argv = [sizes.get(arg, arg) for arg in command]
            if argv[0] != "verify":  # verify takes no geometry
                argv += ["--kl", repr(kl), "--sin-beta", repr(sin_beta)]
            invocations.append(tuple(argv))
        yield tuple(invocations)
