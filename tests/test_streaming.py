"""Tables are rendered and written one block of ``_BLOCK_ROWS`` rows at a time.

The texts of the blocks must join to the one-call render (and, for JSON, to
``json.dumps(payload, indent=2)``), ``main`` must never render more than one
block at once, and ``--out`` must either get the whole table or keep what it
held: the blocks go to a temporary file that replaces the target at the end,
except that a target which is not a regular file is written through.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import corr_radiance
from corr_radiance import cli
from corr_radiance.cli import (
    _BLOCK_ROWS,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    Labels,
    RunConfig,
    Table,
    cmd_fig4,
    main,
    render,
    render_csv,
    render_json,
)
from corr_radiance.correlations import discord_to_c
from cli_rows import rows_of

SIZES = (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1)
NAMES = ("super", "", "sub")


def table_of(n: int) -> Table:
    """A table of ``n`` rows with repeated, empty, signed-zero and infinite
    cells in its float columns, and a text column."""
    x = np.linspace(-3.0, 3.0, n) ** 3 / 7.0
    x[::7] = math.nan
    x[1::11] = -0.0
    y = np.round(np.linspace(0.0, 1.0, n), 2)
    y[2::13] = math.inf
    y[3::17] = -math.inf
    return Table.of(("x", "y", "label"), (x, y, Labels(np.arange(n) % 3, NAMES)))


def payload_of(table: Table, cfg: RunConfig) -> dict:
    """What the JSON text encodes: each float read back from its CSV cell."""
    def cell(value):
        if isinstance(value, float):
            return float(f"{value:.12g}")
        return value

    config = {
        "command": cfg.command,
        "kl": cfg.kl,
        "grid_d": cfg.grid_d,
        "grid_b": cfg.grid_b,
        "sin_beta": cfg.sin_beta,
        "format": cfg.format,
    }
    rows = [{name: cell(v) for name, v in zip(table.columns, row)} for row in rows_of(table)]
    return {"config": config, "rows": rows}


def csv_of(table: Table) -> str:
    def cell(value):
        return "" if value is None else value if isinstance(value, str) else f"{value:.12g}"

    lines = [",".join(table.columns), *(",".join(map(cell, row)) for row in rows_of(table))]
    return "\n".join(lines) + "\n"


def recording(monkeypatch) -> list[slice]:
    """Record the ``rows`` of every render call made through ``cli``."""
    seen = []
    for name in ("render_csv", "render_json"):
        original = getattr(cli, name)

        def record(*args, original=original):
            seen.append(args[-1])
            return original(*args)

        monkeypatch.setattr(cli, name, record)
    return seen


def assert_tiles(slices: list[slice], n: int) -> None:
    """The slices are blocks of at most _BLOCK_ROWS rows, in order, covering
    the rows 0..n exactly once (one empty block when n is 0)."""
    bounds = [s.indices(n)[:2] for s in slices]
    assert all(stop - start <= _BLOCK_ROWS for start, stop in bounds)
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    assert len(slices) == max(1, math.ceil(n / _BLOCK_ROWS))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", SIZES)
def test_blocks_join_to_the_whole_table(n, fmt, monkeypatch):
    table = table_of(n)
    cfg = RunConfig("fig4", format=fmt)
    whole = render_json(table, cfg) if fmt == "json" else render_csv(table)
    seen = recording(monkeypatch)
    stream = io.StringIO()
    cli._write_blocks(table, cfg, stream)
    assert_tiles(seen, n)
    assert stream.getvalue() == whole
    if fmt == "json":
        assert whole == json.dumps(payload_of(table, cfg), indent=2) + "\n"
    else:
        assert whole == csv_of(table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_main_renders_at_most_one_block_at_a_time(fmt, tmp_path, monkeypatch, capsys):
    argv = ["fig4", "--grid-d", "91", "--grid-b", "91", "--format", fmt]
    seen = recording(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "table")]) == EXIT_OK
    assert_tiles(seen, 91 * 91)
    seen.clear()
    assert main(argv) == EXIT_OK
    assert_tiles(seen, 91 * 91)
    assert capsys.readouterr().out == (tmp_path / "table").read_text()


# -- the streamed standard output ---------------------------------------------

FIG4_JSON_401 = "117143df6e51f3eceb51359165b06f29d5a1c75624f059ac113464860e5fbe2f"
FIG5_CSV_25001 = "aca3be2b7b85841d08a4c080cc35090637517a727f2c2fdd9c28679e0200042a"
CLI = "import sys; from corr_radiance.cli import main; sys.exit(main())"


def run_cli(argv, launcher=(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run ``corr-radiance argv`` as a child process importing this package,
    through ``launcher`` (the start of a command line) if given.  The child
    buffers its standard output as a user's process does: PYTHONUNBUFFERED
    is not passed on."""
    env = dict(os.environ, PYTHONPATH=str(Path(corr_radiance.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([*launcher, sys.executable, "-c", CLI, *argv], env=env,
                          stdout=stdout, stderr=stderr, timeout=300)


def test_stdout_in_process_matches_the_pinned_hash(capsys):
    assert main(["fig4", "--grid-d", "401", "--grid-b", "401", "--format", "json"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == FIG4_JSON_401


def test_stdout_of_a_process_matches_the_pinned_hash():
    proc = run_cli(["fig5", "--grid-d", "25001"])
    assert proc.returncode == EXIT_OK
    assert hashlib.sha256(proc.stdout).hexdigest() == FIG5_CSV_25001


def test_a_failed_write_to_stdout_exits_three(monkeypatch, capsys):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["fig3", "--grid-d", "3"]) == EXIT_IO
    assert "cannot write standard output: [Errno 32] Broken pipe" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("argv, launcher", [
    (["fig3", "--grid-d", "5"], ()), (["transition"], ()), (["transition", "--out", "FILE"], ()),
    (["verify"], ()), (["--help"], ()), (["--help"], ("env", "PYTHONUNBUFFERED=1")),
], ids=["fig3", "transition", "transition-out", "verify", "help", "help-unbuffered"])
def test_a_full_stdout_exits_three_without_a_traceback(argv, launcher, tmp_path):
    # buffered, report lines and small tables reach the device only at a
    # flush; a flush left to the interpreter's exit fails with status 120.
    # Unbuffered, argparse's own print_help would drop the failed write and exit 0
    argv = [str(tmp_path / "table.csv") if arg == "FILE" else arg for arg in argv]
    with open("/dev/full", "wb") as full:
        proc = run_cli(argv, launcher=launcher, stdout=full)
    err = proc.stderr.decode()
    assert proc.returncode == EXIT_IO, err
    assert "cannot write standard output" in err
    assert "Traceback" not in err and "Exception ignored" not in err


# a usage error exits 1 and an output failure 3, whether or not the error
# line reaches standard error; MISSING is a path in a directory that is not there
STDERR_CASES = [(["fig2", "--kl", "0"], EXIT_USAGE), (["fig2", "--bogus"], EXIT_USAGE),
                (["fig2", "--out", "MISSING"], EXIT_IO)]
STDERR_IDS = ["kl", "bogus", "out-missing"]


def missing_path(argv, tmp_path):
    return [str(tmp_path / "missing" / "t") if arg == "MISSING" else arg for arg in argv]


@pytest.mark.parametrize("argv, code", STDERR_CASES, ids=STDERR_IDS)
def test_a_failed_write_to_stderr_keeps_the_exit_code(argv, code, tmp_path, monkeypatch, capsys):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stderr", Full())
    assert main(missing_path(argv, tmp_path)) == code
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("launcher", [(), ("env", "PYTHONUNBUFFERED=1")],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code", STDERR_CASES, ids=STDERR_IDS)
def test_a_full_stderr_keeps_the_exit_code(argv, code, launcher, tmp_path):
    with open("/dev/full", "wb") as full:
        proc = run_cli(missing_path(argv, tmp_path), launcher=launcher, stderr=full)
    assert proc.returncode == code
    assert proc.stdout == b""


def test_the_largest_plane_table_is_built_and_rendered_block_by_block():
    # a plane table holds only its two axes, and a block is made for its own
    # rows: building the 2**22-row fig4 table peaked at 196 MiB when it held
    # its columns whole; here at 0.18 MiB, and rendering a block at 1.6 MiB
    # (CSV) and 2.2 MiB (JSON), its text included (tracemalloc, CPython 3.11,
    # numpy 2.4)
    discord_to_c(0.5)  # the bisection's shared table is built once per process
    cfg = RunConfig("fig4", grid_d=2048, grid_b=2048)
    tracemalloc.start()
    try:
        table = cmd_fig4(cfg)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
        middle = slice(len(table.rows) // 2 + 1000, len(table.rows) // 2 + 1000 + _BLOCK_ROWS)
        for render in (lambda: render_csv(table, middle), lambda: render_json(table, cfg, middle)):
            tracemalloc.reset_peak()
            assert render().count("\n") >= _BLOCK_ROWS
            assert tracemalloc.get_traced_memory()[1] < 4 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("size", [1, 2, 3, 7])
@pytest.mark.parametrize("sin_beta", [0.2, 0.0])
@pytest.mark.parametrize("command", ["fig3", "fig5"])
def test_axis_tables_join_from_slices_of_any_size(command, sin_beta, size, fmt):
    # a fig5 block marks its crossings from the rows before its own
    cfg = RunConfig(command, grid_d=23, sin_beta=sin_beta, format=fmt)
    table = getattr(cli, "cmd_" + command)(cfg)
    whole = render(table, cfg, slice(None))
    assert "".join(render(table, cfg, slice(start, start + size))
                   for start in range(0, 23, size)) == whole
    # at sin beta = 0.2 one row of fig5 crosses 1, at 0 its last row is dark
    assert command == "fig3" or ("crossing" if sin_beta else "undefined") in whole


@pytest.mark.parametrize("command", ["fig3", "fig5"])
def test_an_axis_table_holds_only_its_axis(command):
    # holding their columns whole, cmd_fig3/cmd_fig5 peaked at 3.0/3.6 MiB at
    # 2**16 rows; a table that makes each block from the axis holds D and c,
    # 1.0 MiB (tracemalloc, CPython 3.11, numpy 2.4)
    discord_to_c(0.5)  # the bisection's shared table is built once per process
    rows = 2**16
    tracemalloc.start()
    try:
        table = getattr(cli, "cmd_" + command)(RunConfig(command, grid_d=rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.rows) == rows
    assert peak < 1.25 * 2 * rows * np.dtype(float).itemsize


# Linux carries a process's peak RSS across exec, so a child started from this
# (large) test process would report at least its peak: a small launcher starts
# the CLI and prints its exit status and wait4 max RSS in kB
PEAK_RSS_KB = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_a_million_row_json_table_peaks_below_150_mb():
    # without streaming the whole text and its encoding were alive at once:
    # about 440 MB; streamed, what is left is the table's arrays
    argv = ["fig4", "--grid-d", "1024", "--grid-b", "1024", "--format", "json"]
    proc = run_cli(argv, launcher=(sys.executable, "-c", PEAK_RSS_KB))
    assert proc.returncode == 0
    code, maxrss_kb = map(int, proc.stdout.split())
    assert code == EXIT_OK
    assert maxrss_kb < 150 * 1024


# -- --out gets the whole table or keeps what it held ---------------------------

ARGV = ["fig4", "--grid-d", "91", "--grid-b", "91"]  # 8281 rows: three blocks


def expected_table(tmp_path) -> bytes:
    reference = tmp_path / "reference" / "table"
    reference.parent.mkdir()
    assert main([*ARGV, "--out", str(reference)]) == EXIT_OK
    return reference.read_bytes()


def test_a_failed_write_keeps_the_old_file_and_leaves_nothing(tmp_path, monkeypatch, capsys):
    target = tmp_path / "table.csv"
    target.write_bytes(b"the old table\n")
    writes = []

    def failing(text, stream):
        writes.append(text)
        if len(writes) == 2:
            raise OSError(28, "No space left on device")
        stream.write(text)

    monkeypatch.setattr(cli, "_emit", failing)
    assert main([*ARGV, "--out", str(target)]) == EXIT_IO
    assert len(writes) == 2
    assert str(target) in capsys.readouterr().err
    assert target.read_bytes() == b"the old table\n"
    assert os.listdir(tmp_path) == ["table.csv"]


def test_a_failed_write_to_a_new_file_leaves_nothing(tmp_path, monkeypatch, capsys):
    def failing(text, stream):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_emit", failing)
    assert main([*ARGV, "--out", str(tmp_path / "table.csv")]) == EXIT_IO
    capsys.readouterr()
    assert os.listdir(tmp_path) == []


def test_a_fifo_is_written_through(tmp_path):
    expected = expected_table(tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main([*ARGV, "--out", str(fifo)]) == EXIT_OK
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert received == [expected]
    assert fifo.is_fifo()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout here")
def test_dev_stdout_on_a_pipe_is_written_through():
    # resolved, /dev/stdout on a pipe names pipe:[N] under /proc, which is no file
    through = run_cli(["fig3", "--grid-d", "5", "--out", "/dev/stdout"])
    assert through.returncode == EXIT_OK, through.stderr
    assert through.stdout == run_cli(["fig3", "--grid-d", "5"]).stdout


def test_a_new_file_gets_the_mode_of_a_plain_create(tmp_path):
    target = tmp_path / "table.csv"
    previous = os.umask(0o027)
    try:
        assert main([*ARGV, "--out", str(target)]) == EXIT_OK
    finally:
        os.umask(previous)
    assert target.stat().st_mode & 0o7777 == 0o666 & ~0o027


def test_a_rewritten_file_keeps_its_mode_and_a_symlink_stays_a_link(tmp_path):
    expected = expected_table(tmp_path)
    target = tmp_path / "table.csv"
    target.write_bytes(b"the old table\n")
    target.chmod(0o604)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main([*ARGV, "--out", str(link)]) == EXIT_OK
    assert link.is_symlink() and target.read_bytes() == expected
    assert target.stat().st_mode & 0o7777 == 0o604
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "reference", "table.csv"]
