"""Benchmark of the corr-radiance CLI, end to end and layer by layer.

Run from the root of a checkout; the package is imported from its ``src``:

    python3 bench/run.py --workload grid-csv --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 1 --trace 1 --tiny

``--trace 0`` runs the workload's invocations as CLI subprocesses, one at a
time (a closed loop with one client), for ``--seconds`` of wall time and
reports the end-to-end metrics.  ``--trace 1`` runs the same invocations in
this process through ``corr_radiance.cli.main``, alternating an untraced and
a traced pass, and reports the per-layer metrics.  Every output is checked by
checker.py.  Human-readable lines go first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full report (environment, invocations, pass and reference
times, tail percentile, spans) is written to ``.bench_out/`` at the root of
the checkout.  Exits 2 without a result when the checkout holds no
corr_radiance sources.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checker import check_output
from tracing import Tracer, instrument, layer_metrics, patched
from workloads import SIZES, TINY_SIZES, WORKLOADS, make_passes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# what the corr-radiance console script runs
CLI = "import sys; from corr_radiance.cli import main; sys.exit(main())"
SETUP = "import corr_radiance.cli"
REFERENCE = Path(__file__).with_name("reference.py")
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile needs this many samples beyond it
MAX_PROBLEMS = 5  # problems kept per workload; every failure still counts in ``failed``

UNITS = {
    "pass_ref": "ref", "pass_s_p50": "s", "pass_s_tail": "s", "rows_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "failed_frac": "1", "reference_s_trim": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run in this checkout."""


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def record(self, argv, exit_code: int, text: str | None) -> int:
        """Count one invocation, check its output and return its row count."""
        self.attempted += 1
        if exit_code != 0:
            problems = [f"{argv[0]}: exit code {exit_code}"]
            rows = 0
        elif text is None:
            problems, rows = [f"{argv[0]}: no output file"], 0
        else:
            rows, problems = check_output(argv, text)
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, MAX_PROBLEMS - len(self.problems))])
        return rows


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def require_sources() -> None:
    if not (SRC / "corr_radiance" / "cli.py").is_file():
        raise BenchError(f"no corr_radiance sources under {SRC}")


def import_package():
    """Import corr_radiance from this checkout's src, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from corr_radiance import cli, correlations, qstate, verify

    if Path(cli.__file__).resolve().parent != (SRC / "corr_radiance").resolve():
        raise BenchError(f"corr_radiance imported from {cli.__file__}, not from {SRC}")
    return cli, correlations, qstate, verify


class Spawner:
    """Starts children through spawner.py; see there why not directly."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
        )

    def run(self, args: list[str], workdir: Path, log: Path) -> tuple[float, int, float]:
        """Run ``python <args>``; return wall seconds, exit code and max RSS in MB."""
        request = {"args": [sys.executable, *args], "cwd": str(workdir), "log": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the spawner exited")
        reply = json.loads(line)
        return reply["wall"], reply["code"], reply["maxrss_kb"] / 1024.0

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=300)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def read_output(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    finally:
        path.unlink(missing_ok=True)


def tail(samples: list[float]) -> dict:
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return {"value": None, "percentile": None, "samples": n}
    rank = n - TAIL_BEYOND
    return {"value": sorted(samples)[rank - 1], "percentile": 100.0 * rank / n, "samples": n}


def trimmed_mean(samples: list[float]) -> float:
    """Mean without the lowest and the highest sample when there are three or
    more: on a shared host a single stall of the host decides those two."""
    ordered = sorted(samples)
    return statistics.mean(ordered[1:-1] if len(ordered) >= 3 else ordered)


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

def measure_end_to_end(passes, seconds: float, tmp: Path, spawner: Spawner) -> Outcome:
    out = Outcome()
    setup, reference, pass_times, pass_rows, rss, invocations = [], [], [], [], [], []

    def measure_setup() -> None:
        wall, code, _ = spawner.run(["-c", SETUP], tmp, tmp / "setup.log")
        if code != 0:
            raise BenchError(f"{SETUP!r} failed: {(tmp / 'setup.log').read_text()[-500:]}")
        setup.append(wall)

    # set-up and the reference program are sampled before every pass, so they
    # span the whole run.  They and the checks count against the run's seconds,
    # and no pass starts that the last one's cycle says would end past them.
    deadline = time.perf_counter() + seconds
    cycle = 0.0
    while not pass_times or time.perf_counter() + cycle < deadline:
        cycle_start = time.perf_counter()
        measure_setup()
        wall, code, _ = spawner.run([str(REFERENCE)], tmp, tmp / "reference.log")
        if code != 0:
            raise BenchError(f"reference.py failed: {(tmp / 'reference.log').read_text()[-500:]}")
        reference.append(wall)
        argvs = next(passes)
        invocations.append(argvs)
        results = [
            spawner.run(["-c", CLI, *argv, "--out", str(tmp / f"out{i}")], tmp, tmp / f"log{i}")
            for i, argv in enumerate(argvs)
        ]
        pass_times.append(sum(wall for wall, _, _ in results))
        pass_rows.append(0)
        for i, (argv, (_, code, peak)) in enumerate(zip(argvs, results)):
            rss.append(peak)
            pass_rows[-1] += out.record(argv, code, read_output(tmp / f"out{i}"))
        cycle = time.perf_counter() - cycle_start
    while len(setup) < SETUP_REPEATS:
        measure_setup()

    # the host runs slower for minutes at a time; the passes and the reference
    # program interleave, so their means over the run slow alike (README.md)
    out.metrics = {
        "pass_ref": trimmed_mean(pass_times) / trimmed_mean(reference),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss),
    }
    out.report = {
        "invocations": invocations,
        "pass_s": pass_times,
        "reference_s": reference,
        "reference_s_trim": trimmed_mean(reference),
        "pass_s_p50": statistics.median(pass_times),
        # grid sizes are fixed, so every pass writes the same rows
        "rows_per_s": pass_rows[0] / trimmed_mean(pass_times),
        "pass_s_tail": tail(pass_times),
        "failed_frac": out.failed / out.attempted,
        "setup_samples_s": setup,
    }
    return out


# ---------------------------------------------------------------------------
# traced
# ---------------------------------------------------------------------------

def import_times(tmp: Path, spawner: Spawner) -> tuple[float, float]:
    """Cumulative import seconds of numpy and corr_radiance from ``-X importtime``."""
    numpy_s, package_s = [], []
    for _ in range(IMPORT_REPEATS):
        log = tmp / "importtime.log"
        _, code, _ = spawner.run(["-X", "importtime", "-c", SETUP], tmp, log)
        if code != 0:
            raise BenchError(f"{SETUP!r} failed under -X importtime")
        entries = []
        for line in log.read_text().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                depth = len(name) - len(name.lstrip())
                entries.append((depth, name.strip(), int(parts[1]) * 1e-6))
        top = min(depth for depth, _, _ in entries)
        numpy_s.append(sum(s for _, name, s in entries if name == "numpy"))
        package_s.append(
            sum(s for depth, name, s in entries if depth == top and name.startswith("corr_radiance"))
        )
    return statistics.median(numpy_s), statistics.median(package_s)


def measure_traced(passes, seconds: float, tmp: Path, spawner: Spawner) -> Outcome:
    out = Outcome()
    modules = import_package()
    cli, verify = modules[0], modules[3]
    suite_names = [s.__name__ for s in verify.ALL_SUITES]
    numpy_s, package_s = import_times(tmp, spawner)
    # every pass repeats the first pass's invocations, so counts must repeat exactly
    first = next(passes)
    tracer = Tracer()

    def run_pass(pass_id: int | None) -> float:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if pass_id is None:
                codes = [cli.main([*argv, "--out", str(tmp / f"out{i}")])
                         for i, argv in enumerate(first)]
            else:
                tracer.begin_pass(pass_id)
                codes = []
                with patched(instrument(tracer, *modules)), tracer.span("bench.pass"):
                    for i, argv in enumerate(first):
                        with tracer.span("cli.main", command=argv[0]):
                            codes.append(cli.main([*argv, "--out", str(tmp / f"out{i}")]))
        wall = time.perf_counter() - start
        for i, (argv, code) in enumerate(zip(first, codes)):
            out.record(argv, code, read_output(tmp / f"out{i}"))
        return wall

    untraced, traced, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    cycle = 0.0  # as in measure_end_to_end: no pair starts that would end past the deadline
    while not traced or time.perf_counter() + cycle < deadline:
        cycle_start = time.perf_counter()
        untraced.append(run_pass(None))
        traced.append(run_pass(len(traced)))
        spans = [s for s in tracer.spans if s["pass"] == len(traced) - 1]
        per_pass.append(layer_metrics(spans, tracer.pass_counts(), suite_names))
        cycle = time.perf_counter() - cycle_start

    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                out.failed += 1
                out.problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
    metrics["import.numpy_s"] = numpy_s
    metrics["import.corr_radiance_s"] = package_s
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    out.metrics = metrics
    out.report = {
        "invocations": [first],
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "spans": tracer.spans,
    }
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("_bytes") else "count"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.TimeoutExpired):
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        # a checkout that is not itself a git work tree has no commit of its own
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run every workload at tiny grids, for the smoke test")
    args = parser.parse_args(argv)
    sizes = TINY_SIZES if args.tiny else SIZES

    try:
        require_sources()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        OUT_DIR.mkdir(exist_ok=True)
        env = environment()
        outcomes = {}
        spawner = Spawner()
        try:
            with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
                for name in names:
                    passes = make_passes(WORKLOADS[name], args.seed, sizes)
                    measure = measure_traced if args.trace else measure_end_to_end
                    outcomes[name] = measure(passes, args.seconds, Path(tmp), spawner)
        finally:
            spawner.close()
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, out in outcomes.items():
        report = {
            "workload": name,
            "why": WORKLOADS[name].why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "sizes": sizes,
            "environment": env,
            "attempted": out.attempted,
            "failed": out.failed,
            "problems": out.problems,
            "metrics": out.metrics,
            **out.report,
        }
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

        print(f"== {name} (seed {args.seed}, trace {args.trace}): {out.attempted} invocations, "
              f"{out.failed} failed; report in {path.relative_to(ROOT)}")
        for problem in out.problems:
            print(f"   FAILED {problem}")
        lines = dict(out.metrics)
        if not args.trace:
            for extra in ("reference_s_trim", "pass_s_p50", "rows_per_s"):
                lines[extra] = out.report[extra]
            lines["pass_s_tail"] = out.report["pass_s_tail"]["value"]
            lines["failed_frac"] = out.report["failed_frac"]
        for metric, value in lines.items():
            print(f"   {metric:<44} {value!s:>22} {unit_of(metric)}")
        if not args.trace:
            t = out.report["pass_s_tail"]
            print(f"   pass_s_tail is the p{t['percentile']} of {t['samples']} passes"
                  if t["value"] is not None else
                  f"   pass_s_tail needs more than {TAIL_BEYOND} passes, got {t['samples']}")

        prefix = f"{name}." if len(outcomes) > 1 else ""
        result["attempted"] += out.attempted
        result["failed"] += out.failed
        result["metrics"].update({
            prefix + metric: {"value": value, "unit": unit_of(metric)}
            for metric, value in out.metrics.items()
        })
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
