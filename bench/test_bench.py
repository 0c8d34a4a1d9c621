"""Schema-only smoke test of the benchmark at tiny grids, and checks that the
output checker rejects corrupted tables.  No timing is asserted."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from checker import check_output
from run import tail, trimmed_mean
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--tiny", "--seconds", "1"]


def bench(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args, *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_metrics(metrics: dict, spec: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_schema_on_every_workload():
    metrics = bench("--workload", "all", "--seed", "3", "--trace", "0")["metrics"]
    for workload in WORKLOADS:
        prefix = workload + "."
        assert_metrics({k[len(prefix):]: v for k, v in metrics.items() if k.startswith(prefix)},
                       SPEC["end_to_end"])
    assert len(metrics) == len(WORKLOADS) * len(SPEC["end_to_end"])


def test_single_workload_prints_exactly_the_end_to_end_metrics():
    assert_metrics(bench("--workload", "grid-csv", "--seed", "3", "--trace", "0")["metrics"],
                   SPEC["end_to_end"])


def test_traced_counts_repeat_for_the_same_seed():
    first, second = (
        bench("--workload", "axis-long", "--seed", "5", "--trace", "1")["metrics"] for _ in range(2)
    )
    assert_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["correlations.discord_to_c.calls"]["value"] == 2 * 11
    assert first["emission.transition.calls"]["value"] == 1


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail([1.0] * 10)["value"] is None
    t = tail([float(i) for i in range(20)])
    assert (t["value"], t["percentile"], t["samples"]) == (9.0, 50.0, 20)


def test_trimmed_mean_drops_one_lowest_and_one_highest_sample():
    assert trimmed_mean([1.0, 2.0]) == 1.5
    assert trimmed_mean([9.0, 1.0, 2.0]) == 2.0
    assert trimmed_mean([1.0, 2.0, 4.0, 100.0, 0.0]) == 7.0 / 3.0


# ---------------------------------------------------------------------------
# the checker against real and corrupted CLI output
# ---------------------------------------------------------------------------

CASES = [
    ("fig2", "--grid-d", "7", "--grid-b", "5"),
    ("fig3", "--grid-d", "9"),
    ("fig4", "--grid-d", "5", "--grid-b", "5"),
    ("fig5", "--grid-d", "41"),
    ("transition",),
]
CORRUPTED_COLUMN = {"fig2": "I", "fig3": "I_sinb1", "fig4": "g2", "fig5": "g2", "transition": "c_star"}


def cli_output(argv: list[str], tmp_path: Path) -> str:
    out = tmp_path / "table"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys; from corr_radiance.cli import main; sys.exit(main())"
    subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=120)
    return out.read_text()


def flip_leading_digit(cell: str) -> str:
    i = next(i for i, ch in enumerate(cell) if ch in "123456789")
    return cell[:i] + str(int(cell[i]) % 9 + 1) + cell[i + 1:]


def corrupt(text: str, fmt: str, column: str) -> str:
    """Flip one digit in the middle-most row whose ``column`` holds a number."""
    if fmt == "csv":
        lines = text.split("\n")
        col = lines[0].split(",").index(column)
        rows = [i for i in range(1, len(lines) - 1) if lines[i].split(",")[col]]
        i = rows[len(rows) // 2]
        cells = lines[i].split(",")
        cells[col] = flip_leading_digit(cells[col])
        lines[i] = ",".join(cells)
        return "\n".join(lines)
    payload = json.loads(text)
    rows = [r for r in payload["rows"] if r[column] is not None]
    row = rows[len(rows) // 2]
    row[column] = float(flip_leading_digit(repr(row[column])))
    return json.dumps(payload, indent=2) + "\n"


def drop_last_row(text: str, fmt: str) -> str:
    if fmt == "csv":
        return text[: text.rstrip("\n").rfind("\n") + 1]
    payload = json.loads(text)
    payload["rows"].pop()
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
def test_checker_passes_cli_output_and_fails_a_flipped_digit(case, fmt, tmp_path):
    argv = [*case, "--kl", "3.14159", "--sin-beta", "0.2", "--format", fmt]
    text = cli_output(argv, tmp_path)
    rows, problems = check_output(argv, text)
    assert problems == [] and rows >= 1

    _, problems = check_output(argv, corrupt(text, fmt, CORRUPTED_COLUMN[case[0]]))
    assert problems, "a flipped digit went unnoticed"
    _, problems = check_output(argv, drop_last_row(text, fmt))
    assert problems, "a missing row went unnoticed"


def test_checker_fails_a_verify_suite_that_did_not_pass():
    header = "suite,max_deviation,tolerance,status\n"
    rows = [f"suite {i},0,1e-12,PASS\n" for i in range(18)]
    assert check_output(["verify"], header + "".join(rows)) == (18, [])
    rows[4] = "suite 4,0.5,1e-12,FAIL\n"
    _, problems = check_output(["verify"], header + "".join(rows))
    assert len(problems) == 2
