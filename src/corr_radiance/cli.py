"""Command-line front end: figure-data sweeps, the transition solver, and the
verification harness.

Every command renders a deterministic table (CSV or JSON) so downstream
plotting never needs this package.  Exit codes: 0 success, 1 bad arguments,
2 verification failure, 3 output I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from collections.abc import Callable
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .correlations import discord_to_c
from .emission import (
    MAX_KL,
    STATISTICS,
    DetectionGeometry,
    Emission,
    find_statistics_transition,
    werner_emission,
    x_intensity,
)

# The scalar kernels stay bound here, although the sweeps run on arrays:
# the benchmark's tracer (bench/tracing.py) wraps them by these names.
from .emission import classify, g2_closed_werner, intensity_closed_x  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3

COMMANDS = ("fig2", "fig3", "fig4", "fig5", "transition", "verify")

# largest table a command may write; larger grids fail before anything is built.
# Every figure holds only its axes and makes each block of rows from them, so
# the limit bounds run time, and memory only through the axes (16 bytes per
# discord-axis point): at 2**22 rows fig4 (2048 x 2048) peaks at 31.2 MB and
# takes 3.6 s for 322 MB of CSV, and 31.8 MB and 4-5 s for 775 MB of JSON;
# fig5 peaks at 48 MB at 2**20 rows and 96 MB at 2**22, where it takes 57 s
# (wait4 max RSS and wall time, 2-core x86-64 VM, output to /dev/null).
MAX_TABLE_ROWS = 2**22

@dataclass(frozen=True)
class RunConfig:
    command: str
    kl: float = math.pi
    grid_d: int = 101
    grid_b: int = 101
    sin_beta: float = 0.2
    format: str = "csv"
    out: str | None = None
    tol_scale: float = 1.0

    def table_rows(self) -> int:
        """Rows the command writes as a table; 0 for those without a grid."""
        if self.command in ("fig2", "fig4"):
            return self.grid_d * self.grid_b
        if self.command in ("fig3", "fig5"):
            return self.grid_d
        return 0

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        try:
            DetectionGeometry(self.kl, self.sin_beta)
        except ValueError as exc:
            # the message opens with the field's name: name its option instead
            field, rest = str(exc).split(" ", 1)
            raise ValueError(f"--{field.replace('_', '-')} {rest}") from None
        if self.grid_d < 2:
            raise ValueError(f"--grid-d needs at least 2 samples, got {self.grid_d}")
        if self.grid_b < 2:
            raise ValueError(f"--grid-b needs at least 2 samples, got {self.grid_b}")
        if self.table_rows() > MAX_TABLE_ROWS:
            raise ValueError(
                f"{self.command} would write {self.table_rows()} rows, more than the "
                f"limit of {MAX_TABLE_ROWS}; lower --grid-d or --grid-b"
            )
        if self.out == "":
            raise ValueError("--out must name a file, got an empty path")
        if self.format not in ("csv", "json"):
            raise ValueError(f"--format must be csv or json, got {self.format!r}")
        if not (math.isfinite(self.tol_scale) and self.tol_scale >= 0.0):
            raise ValueError(f"--tol-scale must be finite and nonnegative, got {self.tol_scale}")


@dataclass(frozen=True)
class Labels:
    """A text column: cell i is ``names[codes[i]]``."""

    codes: np.ndarray
    names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> "Labels":
        return Labels(self.codes[rows], self.names)


@dataclass(frozen=True)
class Table:
    """A table of ``len(rows)`` rows, made one block at a time: ``block(r)``
    gives the columns of the rows in the range ``r``, each Labels or a float64
    array in which NaN marks an empty cell (an undefined g2, a missing root)."""

    columns: tuple[str, ...]
    rows: range
    block: Callable[[range], tuple[np.ndarray | Labels, ...]]

    @classmethod
    def of(cls, columns: tuple[str, ...], data: tuple[np.ndarray | Labels, ...]) -> "Table":
        """A table of columns held whole; a block is their slice."""
        return cls(columns, range(len(data[0])),
                   lambda r: tuple(col[r.start:r.stop:r.step] for col in data))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _csv_floats(values: np.ndarray) -> list[str]:
    # float.__format__ is what "{:.12g}".format calls
    tokens = list(map(float.__format__, values.tolist(), repeat(".12g")))
    for i in np.flatnonzero(np.isnan(values)):
        tokens[i] = ""
    return tokens


def _repr_layout(token: str) -> str:
    """A CSV token with no ``.`` or with an exponent, laid out as ``repr``
    lays out a float: ``.0`` on an integer, an exponent of 12 to 15 written
    out (``1.5e+12`` -> ``1500000000000.0``), any other exponent kept."""
    mantissa, e, exponent = token.partition("e")
    if not e:
        return token + ".0"
    if not 12 <= int(exponent) <= 15:
        return token
    sign = "-" if mantissa.startswith("-") else ""
    digits = mantissa.lstrip("-").replace(".", "")
    return sign + digits.ljust(int(exponent) + 1, "0") + ".0"


def _json_floats(values: np.ndarray) -> list[str]:
    # the CSV token in repr's layout, so both formats agree digit for digit.
    # json.dumps writes a finite float as its repr, and for a normal double
    # that repr has the token's digits: the doubles nearest two decimals of at
    # most 15 digits differ, so no shorter decimal reads back as the same one
    tokens = [t if "." in t and "e" not in t else _repr_layout(t)
              for t in _csv_floats(values)]
    for i in np.flatnonzero(~np.isfinite(values)):
        tokens[i] = "null" if np.isnan(values[i]) else json.dumps(float(values[i]))
    # a subnormal holds fewer digits: its 12 can read back shorter (5e-324)
    for i in np.flatnonzero((values != 0.0) & (np.abs(values) < sys.float_info.min)):
        tokens[i] = repr(float(tokens[i]))
    return tokens


def _cells(col: np.ndarray | Labels, float_tokens, text_token) -> list[str]:
    """The token of each cell, each distinct value formatted once.

    Floats are told apart by bit pattern, so -0.0 and 0.0 stay distinct.
    """
    if isinstance(col, Labels):
        tokens = list(map(text_token, col.names))
        index = col.codes
    else:
        bits, index = np.unique(np.asarray(col, dtype=float).view(np.int64),
                                return_inverse=True)
        tokens = float_tokens(bits.view(np.float64))
    return np.array(tokens, dtype=object)[index].tolist()


# rows main renders and writes at a time: the formatted cells and the text
# of one block are alive at once, whatever the size of the table
_BLOCK_ROWS = 1 << 12


def _text(table: Table, rows: range, float_tokens, text_token,
          head: str, seps: list[str], tail: str) -> str:
    """``head``, then the rows in ``rows``, made by ``table.block``, with each
    cell's token followed by its column's separator in ``seps``, the last
    separator replaced by ``tail``: one join over one flat list of pieces."""
    if not rows:
        return head
    width = 2 * len(seps)
    pieces = [head] * (1 + len(rows) * width)
    for k, col in enumerate(table.block(rows)):
        pieces[1 + 2 * k::width] = _cells(col, float_tokens, text_token)
        pieces[2 + 2 * k::width] = [seps[k]] * len(rows)
    pieces[-1] = tail
    return "".join(pieces)


def render_csv(table: Table, rows: slice = slice(None)) -> str:
    """The CSV text of ``rows`` (default: all), with the header when they
    start at row 0; the texts of consecutive slices join to the whole."""
    rows = table.rows[rows]
    head = ",".join(table.columns) + "\n" if rows.start == 0 else ""
    seps = [","] * (len(table.columns) - 1) + ["\n"]
    return _text(table, rows, _csv_floats, str, head, seps, "\n")


def render_json(table: Table, cfg: RunConfig, rows: slice = slice(None)) -> str:
    """The part of ``json.dumps(payload, indent=2)`` + "\\n" that holds ``rows``
    (default: all), without building the rows: the opening goes with row 0,
    the closing with the last row, and a table of no rows is one document
    (an empty slice of a table of some rows is no text)."""
    n = len(table.rows)
    rows = table.rows[rows]
    if n and not rows:
        return ""
    # each cell is followed by the next cell's key or, ending a row, by the
    # next row's opening and first key
    keys = [f"      {json.dumps(name)}: " for name in table.columns]
    between = "\n    },\n    {\n" + keys[0]
    if rows.start == 0:
        config = {
            "command": cfg.command,
            "kl": cfg.kl,
            "grid_d": cfg.grid_d,
            "grid_b": cfg.grid_b,
            "sin_beta": cfg.sin_beta,
            "format": cfg.format,
        }
        text = json.dumps({"config": config, "rows": []}, indent=2)
        if not n:
            return text + "\n"
        head = text.removesuffix("[]\n}") + "[\n    {\n" + keys[0]
    else:
        head = between
    seps = [",\n" + key for key in keys[1:]] + [between]
    tail = "\n    }\n  ]\n}\n" if rows.stop == n else ""
    return _text(table, rows, _json_floats, json.dumps, head, seps, tail)


def render(table: Table, cfg: RunConfig, rows: slice) -> str:
    if cfg.format == "json":
        return render_json(table, cfg, rows)
    return render_csv(table, rows)


# characters _emit hands the stream at a time: a text stream encodes what it
# is given at once, so its bytes of a block are alive one slice at a time
_WRITE_CHARS = 1 << 16


def _emit(text: str, stream) -> None:
    # one call per block, by this name: the benchmark's tracer times it
    for start in range(0, len(text), _WRITE_CHARS):
        stream.write(text[start:start + _WRITE_CHARS])


def _write_blocks(table: Table, cfg: RunConfig, stream) -> None:
    """Render and write the table to ``stream`` one block of rows at a time."""
    # a table of no rows is one block: its header or whole JSON document
    for start in range(0, max(len(table.rows), 1), _BLOCK_ROWS):
        _emit(render(table, cfg, slice(start, start + _BLOCK_ROWS)), stream)


def _open_temporary(target: str) -> tuple[str, int]:
    """A new file beside ``target``, opened for writing with the mode a plain
    create gives (0o666 less the umask)."""
    directory, name = os.path.split(target)
    while True:
        path = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
        try:
            return path, os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue


def _write_file(table: Table, cfg: RunConfig, out: str) -> None:
    """Write the whole table to the file ``out``, or leave it as it was: the
    blocks go to a temporary file beside it that replaces it once all are
    written.  A target that exists and is not a regular file (a FIFO, a
    device, ``/dev/stdout`` on a pipe) is written through the path as given:
    resolved, a ``/dev/fd/N`` link may name no file."""
    try:
        mode = os.stat(out).st_mode  # follows a symlink
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out, "w", encoding="utf-8", newline="") as stream:
            _write_blocks(table, cfg, stream)
        return
    target = os.path.realpath(out)  # replace a symlink's file, not the link
    path, fd = _open_temporary(target)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as stream:
            if mode is not None:  # a rewritten file keeps its permissions
                os.fchmod(fd, stat.S_IMODE(mode))
            _write_blocks(table, cfg, stream)
        os.replace(path, target)
    except BaseException:
        os.unlink(path)
        raise


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _discord_axis(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    d = np.linspace(0.0, 1.0, cfg.grid_d)
    # one scalar discord_to_c call per row, as the benchmark's traced call
    # count expects; each row's Newton solve evaluates the closed form about
    # three times
    return d, np.fromiter(map(discord_to_c, map(float, d)), float, d.size)


def _sweep(cfg: RunConfig, width: int, columns: tuple[str, ...], kernel) -> Table:
    """The table of ``width`` rows per point of the discord axis, D-major, with
    the columns D, c and then ``columns``.  Only the axis is held: a block runs
    ``kernel(c, i, j)`` on its rows' axis indices ``i, j = divmod(row, width)``."""
    d, c = _discord_axis(cfg)

    def block(rows: range) -> tuple[np.ndarray | Labels, ...]:
        i, j = np.divmod(np.arange(rows.start, rows.stop, rows.step), width)
        return (d[i], c[i], *kernel(c, i, j))

    return Table(("D", "c", *columns), range(cfg.grid_d * width), block)


def _sin_beta_axis(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """The sin beta axis of fig2/fig4 and the cos phase of each point."""
    sin_betas = np.linspace(-1.0, 1.0, cfg.grid_b)
    return sin_betas, np.array([DetectionGeometry(cfg.kl, s).cos_phase for s in sin_betas.tolist()])


_STATISTICS_NAMES = tuple(s.value for s in STATISTICS)
_FLAG_NAMES = ("", "undefined")


def _g2_cells(e: Emission) -> tuple[np.ndarray, Labels, Labels]:
    """The g2, statistics and flag columns of fig4 and fig5."""
    return (e.g2, Labels(e.statistics, _STATISTICS_NAMES),
            Labels(e.undefined.view(np.int8), _FLAG_NAMES))


def cmd_fig2(cfg: RunConfig) -> Table:
    """Intensity over the (discord, sin beta) plane for Werner states."""
    sin_betas, cos_phase = _sin_beta_axis(cfg)
    return _sweep(cfg, cfg.grid_b, ("sin_beta", "I"),
                  lambda c, i, j: (sin_betas[j], x_intensity(-c[i], cos_phase[j])))


def cmd_fig3(cfg: RunConfig) -> Table:
    """Intensity against discord along the two extreme observation angles."""
    forward, backward = (DetectionGeometry(cfg.kl, s).cos_phase for s in (1.0, 0.0))
    return _sweep(cfg, 1, ("I_sinb1", "I_sinb0"),
                  lambda c, i, j: (x_intensity(-c[i], forward), x_intensity(-c[i], backward)))


def cmd_fig4(cfg: RunConfig) -> Table:
    """g2 over the (discord, sin beta) plane, flagging undefined points."""
    sin_betas, cos_phase = _sin_beta_axis(cfg)
    return _sweep(cfg, cfg.grid_b, ("sin_beta", "g2", "statistics", "flag"), lambda c, i, j: (
        sin_betas[j], *_g2_cells(werner_emission(c[i], cos_phase[j]))))


def _crossing_marks(statistics: np.ndarray, previous: np.ndarray, after_first) -> np.ndarray:
    """1 (int8) where a g2 row crosses 1, else 0, from the STATISTICS codes of
    the rows and of the rows before them: a row after the first is marked when
    it is Poissonian or when it and the row before lie on opposite sides of 1."""
    # a defined row's code is 1 + the band of its g2, an undefined row's 3
    sign, before = statistics - 1, previous - 1
    return (after_first & ((sign == 0) | (sign * before == -1))).astype(np.int8)


def cmd_fig5(cfg: RunConfig) -> Table:
    """g2 against discord at a fixed angle, marking where it crosses 1.  Only
    the last row (c = 1) can be undefined, so the row before a defined row is
    the previous defined row that ``_crossing_marks`` compares it with."""
    cos_phase = DetectionGeometry(cfg.kl, cfg.sin_beta).cos_phase

    def cells(c, i, j):
        e = werner_emission(c[i], cos_phase)
        previous = werner_emission(c[i - 1], cos_phase).statistics  # c[-1] for i = 0
        marks = _crossing_marks(e.statistics, previous, i > 0)
        return (*_g2_cells(e), Labels(marks, ("", "crossing")))

    return _sweep(cfg, 1, ("g2", "statistics", "flag", "transition"), cells)


def cmd_transition(cfg: RunConfig) -> tuple[Table, list[str], int]:
    """Locate the statistics transition; reports status none when absent.
    With ``--out`` a summary line is printed, else the table itself."""
    geom = DetectionGeometry(cfg.kl, cfg.sin_beta)
    point = find_statistics_transition(geom)
    if point is None:
        c_star, d_t, status = math.nan, math.nan, "none"
        summary = f"transition: none (kl={cfg.kl:.12g}, sin_beta={cfg.sin_beta:.12g})"
    else:
        c_star, d_t, status = point.c_star, point.discord, "ok"
        summary = (
            f"transition: c_star={point.c_star:.12g}, D_t={point.discord:.12g} "
            f"(kl={cfg.kl:.12g}, sin_beta={cfg.sin_beta:.12g})"
        )
    values = np.array([[cfg.kl], [cfg.sin_beta], [c_star], [d_t]])
    columns = ("kl", "sin_beta", "c_star", "D_t", "status")
    table = Table.of(columns, (*values, Labels(np.zeros(1, np.int8), (status,))))
    return table, [summary] if cfg.out is not None else [], EXIT_OK


def cmd_verify(cfg: RunConfig) -> tuple[Table, list[str], int]:
    """Run every cross-validation suite and tabulate the margins."""
    # imported here, not at the top: only this command needs the suites
    from . import verify

    results = verify.run_all(tol_scale=cfg.tol_scale)
    lines = []
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{verdict} {r.name}: max deviation {r.max_deviation:.3g}"
            f" (tolerance {r.tolerance:.3g})"
        )
    passed = np.array([r.passed for r in results], dtype=np.int8)
    table = Table.of(("suite", "max_deviation", "tolerance", "status"), (
        Labels(np.arange(len(results)), tuple(r.name for r in results)),
        np.array([r.max_deviation for r in results]),
        np.array([r.tolerance for r in results]),
        Labels(passed, ("FAIL", "PASS")),
    ))
    return table, lines, EXIT_OK if passed.all() else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this front end reserves 2 for
    # verification failures, so route usage errors to exit code 1
    def error(self, message):
        _print_error(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(EXIT_USAGE)

    # argparse's own print_help drops an OSError of the write; main reports it
    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    # an option left out is missing from the namespace: RunConfig holds the defaults
    parser = _Parser(
        prog="corr-radiance",
        description="Sweep tables and verification for correlation-driven two-atom emission.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=COMMANDS, help="which table or action to run")
    parser.add_argument("--kl", type=float, help=(
        f"wave number times atom separation, in (1, MAX_KL = {MAX_KL:g}] (default: pi)"))
    parser.add_argument("--grid-d", type=int,
                        help="samples along the discord axis (default: 101)")
    parser.add_argument("--grid-b", type=int,
                        help="samples along the sin(beta) axis (default: 101)")
    parser.add_argument("--sin-beta", type=float,
                        help="fixed observation angle for fig5/transition (default: 0.2)")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="output format (default: csv)")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--tol-scale", type=float,
                        help="rescale verification tolerances; 0 is a harness self-test")
    return parser


def _drop(stream) -> None:
    """Point ``stream`` at the null device, so that the flush at exit drops
    what its buffer still holds instead of failing again."""
    with open(os.devnull, "wb") as null, contextlib.suppress(OSError, ValueError):
        os.dup2(null.fileno(), stream.fileno())  # skipped without a file descriptor


def _print_error(message: str) -> None:
    """The one writer of standard error: a message that cannot be written is
    dropped, so the exit status is the one the error calls for."""
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        _drop(sys.stderr)


def main(argv=None) -> int:
    where = "standard output"
    # the one guard of every write: the commands themselves do no I/O
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help exits 0, usage errors exit 1
            sys.stdout.flush()  # the help text fails here, not at the exit flush
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE

        # the parser's dests are exactly the fields of RunConfig
        cfg = RunConfig(**vars(args))
        try:
            cfg.validate()
        except ValueError as exc:
            _print_error(f"corr-radiance: error: {exc}")
            return EXIT_USAGE

        # looked up by name on every call, so a patched cmd_* attribute is the one run
        result = globals()["cmd_" + cfg.command](cfg)
        table, lines, status = result if isinstance(result, tuple) else (result, [], EXIT_OK)
        for line in lines:
            print(line)
        # printed lines carry the report; the table goes to --out or, alone, here
        if cfg.out is None and not lines:
            _write_blocks(table, cfg, sys.stdout)
        sys.stdout.flush()
        if cfg.out is not None:
            where = repr(cfg.out)
            _write_file(table, cfg, cfg.out)
    except OSError as exc:
        if where == "standard output":
            _drop(sys.stdout)
        # the OS reason alone: the exception may name the temporary file
        _print_error(f"corr-radiance: error: cannot write {where}: {exc.strerror or exc}")
        return EXIT_IO
    return status


if __name__ == "__main__":
    sys.exit(main())
