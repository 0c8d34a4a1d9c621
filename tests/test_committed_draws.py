"""No command loads ``numpy.random``: the entropy suite's draws are committed.

``numpy.random`` brings in ``secrets``, ``hashlib`` and libcrypto, about
5 MB of resident memory that only ``verify`` used, for the twenty Ginibre
pairs of ``suite_entropy_unitary_invariance``.  Those pairs now live in
``corr_radiance._ginibre``; this file is the one place that still draws them.

The saving needs numpy 2, which loads ``numpy.random`` only on first use.
numpy 1.x imports it with numpy itself, so there every command checks only
that it loads none of these modules beyond what ``import numpy`` loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corr_radiance
from corr_radiance._ginibre import GINIBRE_PAIRS
from corr_radiance.cli import COMMANDS, EXIT_OK

SMALL = {"fig2": ["--grid-d", "5", "--grid-b", "5"], "fig3": ["--grid-d", "5"],
         "fig4": ["--grid-d", "5", "--grid-b", "5"], "fig5": ["--grid-d", "5"]}

CHILD = """
import json, sys
NAMES = ("numpy.random", "secrets", "hashlib")
import numpy
with_numpy = [name for name in NAMES if name in sys.modules]
from corr_radiance.cli import main
code = main(sys.argv[2:])
added = [name for name in NAMES if name in sys.modules and name not in with_numpy]
with open(sys.argv[1], "w") as report:
    json.dump({"code": code, "numpy": with_numpy, "added": added}, report)
"""


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_imports_numpy_random(command, tmp_path):
    report = tmp_path / "report.json"
    argv = [command, *SMALL.get(command, []), "--out", str(tmp_path / "table")]
    env = dict(os.environ, PYTHONPATH=str(Path(corr_radiance.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(report), *argv], env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = json.loads(report.read_text())
    assert loaded["code"] == EXIT_OK
    assert loaded["added"] == []
    if int(np.__version__.split(".")[0]) >= 2:
        assert loaded["numpy"] == []


def test_committed_draws_are_the_generator_draws():
    """The committed pairs are ``default_rng(20240817)``'s, bit for bit, in
    the order the suite drew them: the real part, then the imaginary part,
    of each of the 20 unitaries.

    ``verify``'s output no longer depends on numpy's generator stream, which
    NEP 19 does not keep stable across releases.  A numpy whose
    ``Generator.normal`` stream changes now fails this test, not the
    ``verify`` hash pins of ``tests/test_output_hashes.py``.
    """
    rng = np.random.default_rng(20240817)
    drawn = np.array([(rng.normal(size=(4, 4)), rng.normal(size=(4, 4))) for _ in range(20)])
    committed = np.array(GINIBRE_PAIRS)
    assert committed.shape == (20, 2, 4, 4) and committed.dtype == np.float64
    assert committed.tobytes() == drawn.tobytes()
