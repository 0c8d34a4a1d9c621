"""Command-line front end: figure-data sweeps, the transition solver, and the
verification harness.

Every command renders a deterministic table (CSV or JSON) so downstream
plotting never needs this package.  Exit codes: 0 success, 1 bad arguments,
2 verification failure, 3 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import verify as verify_mod
from .correlations import discord_to_c
from .emission import (
    MAX_KL,
    STATISTICS,
    DetectionGeometry,
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
# Output is streamed, so peak memory is the table's columns, about 49 bytes a
# row: fig4 peaks at 79 MB at 1024 x 1024 and at 226 MB at 2048 x 2048 = 2**22
# rows, as CSV or JSON (wait4 max RSS, 2-core x86-64 VM), and takes 3.6 s as
# CSV (322 MB) and 7.8 s as JSON (775 MB) at the limit.
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
        if not (math.isfinite(self.kl) and self.kl > 1.0):
            raise ValueError(f"--kl must be finite and exceed 1, got {self.kl}")
        if self.kl > MAX_KL:
            raise ValueError(
                f"--kl must be at most {MAX_KL:g}, got {self.kl}: beyond that the "
                "rounding of the phase kl sin(beta) nears the classification tolerance"
            )
        if self.grid_d < 2:
            raise ValueError(f"--grid-d needs at least 2 samples, got {self.grid_d}")
        if self.grid_b < 2:
            raise ValueError(f"--grid-b needs at least 2 samples, got {self.grid_b}")
        if self.table_rows() > MAX_TABLE_ROWS:
            raise ValueError(
                f"{self.command} would write {self.table_rows()} rows, more than the "
                f"limit of {MAX_TABLE_ROWS}; lower --grid-d or --grid-b"
            )
        if not -1.0 <= self.sin_beta <= 1.0:
            raise ValueError(f"--sin-beta must lie in [-1, 1], got {self.sin_beta}")
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


class _Rows(Sequence):
    """Row view of a column table; a row is a tuple of float, None and str."""

    def __init__(self, data: tuple[np.ndarray | Labels, ...]):
        self._data = data

    def __len__(self) -> int:
        return len(self._data[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        row = []
        for col in self._data:
            if isinstance(col, Labels):
                row.append(col.names[col.codes[i]])
            else:
                value = float(col[i])
                row.append(None if math.isnan(value) else value)
        return tuple(row)


@dataclass(frozen=True)
class Table:
    """A table held by column: each column is Labels or a float64 array in
    which NaN marks an empty cell (an undefined g2, a missing root)."""

    columns: tuple[str, ...]
    data: tuple[np.ndarray | Labels, ...]

    @property
    def rows(self) -> _Rows:
        return _Rows(self.data)

    @classmethod
    def from_rows(cls, columns: tuple[str, ...], rows: list[tuple]) -> "Table":
        """Columns from row tuples; a column whose first cell is a str is text."""
        data = []
        for cells in zip(*rows):
            if isinstance(cells[0], str):
                names = tuple(dict.fromkeys(cells))
                code = {name: i for i, name in enumerate(names)}
                data.append(Labels(np.array([code[cell] for cell in cells]), names))
            else:
                data.append(np.array([math.nan if c is None else c for c in cells], dtype=float))
        return cls(columns, tuple(data))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _csv_floats(values: np.ndarray) -> list[str]:
    tokens = list(map("{:.12g}".format, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)):
        tokens[i] = ""
    return tokens


def _json_floats(values: np.ndarray) -> list[str]:
    # round through the CSV formatting so both formats agree digit for digit;
    # json.dumps writes a finite float as its repr
    tokens = list(map(repr, map(float, map("{:.12g}".format, values.tolist()))))
    for i in np.flatnonzero(~np.isfinite(values)):
        tokens[i] = "null" if np.isnan(values[i]) else json.dumps(float(values[i]))
    return tokens


def _cells(col: np.ndarray | Labels, rows: slice, float_tokens, text_token, prefix: str) -> list[str]:
    """``prefix`` + token of each cell in ``rows``, each distinct value formatted once.

    Floats are told apart by bit pattern, so -0.0 and 0.0 stay distinct.
    """
    if isinstance(col, Labels):
        tokens = list(map(text_token, col.names))
        index = col.codes[rows]
    else:
        bits, index = np.unique(np.asarray(col[rows], dtype=float).view(np.int64),
                                return_inverse=True)
        tokens = float_tokens(bits.view(np.float64))
    return np.array(list(map(prefix.__add__, tokens)), dtype=object)[index].tolist()


# rows main renders and writes at a time: the formatted cells and the text
# of one block are alive at once, whatever the size of the table
_BLOCK_ROWS = 1 << 12


def _block_cells(table: Table, rows: slice, float_tokens, text_token, prefixes):
    """The rows in ``rows`` as tuples of cell tokens."""
    return zip(*(_cells(col, rows, float_tokens, text_token, prefix)
                 for col, prefix in zip(table.data, prefixes)))


def render_csv(table: Table, rows: slice = slice(None)) -> str:
    """The CSV text of ``rows`` (default: all), with the header when they
    start at row 0; the texts of consecutive slices join to the whole."""
    start, _, _ = rows.indices(len(table.rows))
    cells = _block_cells(table, rows, _csv_floats, str, [""] * len(table.columns))
    lines = [",".join(table.columns)] if start == 0 else []
    lines.extend(map(",".join, cells))
    return "\n".join(lines) + "\n" if lines else ""


def render_json(table: Table, cfg: RunConfig, rows: slice = slice(None)) -> str:
    """The part of ``json.dumps(payload, indent=2)`` + "\\n" that holds ``rows``
    (default: all), without building the rows: the opening goes with row 0,
    the closing with the last row, and a table of no rows is one document."""
    n = len(table.rows)
    start, stop, _ = rows.indices(n)
    parts = []
    if start == 0:
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
        parts.append(text.removesuffix("[]\n}") + "[\n    {\n")
    if start >= stop:
        return "".join(parts)
    between = "\n    },\n    {\n"
    if start > 0:
        parts.append(between)
    prefixes = [f"      {json.dumps(name)}: " for name in table.columns]
    cells = _block_cells(table, rows, _json_floats, json.dumps, prefixes)
    parts.append(between.join(map(",\n".join, cells)))
    if stop == n:
        parts.append("\n    }\n  ]\n}\n")
    return "".join(parts)


def render(table: Table, cfg: RunConfig, rows: slice) -> str:
    if cfg.format == "json":
        return render_json(table, cfg, rows)
    return render_csv(table, rows)


def _emit(text: str, stream) -> None:
    # one call per block, by this name: the benchmark's tracer times it
    stream.write(text)


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
    device) is written through."""
    target = os.path.realpath(out)  # replace a symlink's file, not the link
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8", newline="") as stream:
            _write_blocks(table, cfg, stream)
        return
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
    # one scalar discord_to_c call per row, not discord_to_c_array: the
    # benchmark pins the traced call count to the number of axis rows
    return d, np.array([discord_to_c(x) for x in d.tolist()])


def _cos_phase(kl: float, sin_beta: float) -> float:
    # math, not numpy: the last ulp of a transcendental is not portable
    return math.cos(DetectionGeometry.from_sin_beta(kl, sin_beta).phase)


def _plane(cfg: RunConfig) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """The (D, c, sin beta) columns of the grid, D-major, with c and cos phase
    shaped to broadcast to (grid_d, grid_b)."""
    d, c = _discord_axis(cfg)
    sin_betas = np.linspace(-1.0, 1.0, cfg.grid_b)
    cos_phase = np.array([_cos_phase(cfg.kl, s) for s in sin_betas.tolist()])
    n = cfg.grid_b
    columns = (np.repeat(d, n), np.repeat(c, n), np.tile(sin_betas, cfg.grid_d))
    return columns, c[:, None], cos_phase[None, :]


_STATISTICS_NAMES = tuple(s.value for s in STATISTICS)
_FLAG_NAMES = ("", "undefined")


def cmd_fig2(cfg: RunConfig) -> Table:
    """Intensity over the (discord, sin beta) plane for Werner states."""
    columns, c, cos_phase = _plane(cfg)
    intensity = x_intensity(-c, cos_phase)
    return Table(("D", "c", "sin_beta", "I"), (*columns, intensity.ravel()))


def cmd_fig3(cfg: RunConfig) -> Table:
    """Intensity against discord along the two extreme observation angles."""
    d, c = _discord_axis(cfg)
    forward = x_intensity(-c, _cos_phase(cfg.kl, 1.0))
    backward = x_intensity(-c, _cos_phase(cfg.kl, 0.0))
    return Table(("D", "c", "I_sinb1", "I_sinb0"), (d, c, forward, backward))


def cmd_fig4(cfg: RunConfig) -> Table:
    """g2 over the (discord, sin beta) plane, flagging undefined points."""
    columns, c, cos_phase = _plane(cfg)
    e = werner_emission(c, cos_phase)
    return Table(
        ("D", "c", "sin_beta", "g2", "statistics", "flag"),
        (
            *columns,
            e.g2.ravel(),
            Labels(e.statistics.ravel(), _STATISTICS_NAMES),
            Labels(e.undefined.ravel().view(np.int8), _FLAG_NAMES),
        ),
    )


def _crossing_marks(statistics: np.ndarray, undefined: np.ndarray) -> np.ndarray:
    """1 (int8) at the rows of a g2 column where it crosses 1, else 0.

    The side of 1 is that of the statistics label, so the marks follow its
    +/- CLASSIFY_TOL band.  A defined row is marked when it is Poissonian
    (except in the first row), or when it lies on the other side of 1 than
    the previous defined row and that row was not Poissonian.
    """
    defined = np.flatnonzero(~undefined)
    # a defined row's STATISTICS code is 1 + the band of its g2
    sign = statistics[defined] - 1
    previous = np.concatenate(([0], sign[:-1]))
    crossing = np.where(sign == 0, defined > 0, (previous != 0) & (sign != previous))
    marks = np.zeros(statistics.size, dtype=np.int8)
    marks[defined[crossing]] = 1
    return marks


def cmd_fig5(cfg: RunConfig) -> Table:
    """g2 against discord at a fixed angle, marking where it crosses 1
    (see ``_crossing_marks``)."""
    d, c = _discord_axis(cfg)
    e = werner_emission(c, _cos_phase(cfg.kl, cfg.sin_beta))
    return Table(
        ("D", "c", "g2", "statistics", "flag", "transition"),
        (
            d,
            c,
            e.g2,
            Labels(e.statistics, _STATISTICS_NAMES),
            Labels(e.undefined.view(np.int8), _FLAG_NAMES),
            Labels(_crossing_marks(e.statistics, e.undefined), ("", "crossing")),
        ),
    )


def cmd_transition(cfg: RunConfig) -> tuple[Table, str]:
    """Locate the statistics transition; reports status none when absent."""
    geom = DetectionGeometry.from_sin_beta(cfg.kl, cfg.sin_beta)
    point = find_statistics_transition(geom)
    if point is None:
        row = (cfg.kl, cfg.sin_beta, None, None, "none")
        summary = f"transition: none (kl={cfg.kl:.12g}, sin_beta={cfg.sin_beta:.12g})"
    else:
        row = (cfg.kl, cfg.sin_beta, point.c_star, point.discord, "ok")
        summary = (
            f"transition: c_star={point.c_star:.12g}, D_t={point.discord:.12g} "
            f"(kl={cfg.kl:.12g}, sin_beta={cfg.sin_beta:.12g})"
        )
    return Table.from_rows(("kl", "sin_beta", "c_star", "D_t", "status"), [row]), summary


def cmd_verify(cfg: RunConfig) -> tuple[Table, list[str], bool]:
    """Run every cross-validation suite and tabulate the margins."""
    results = verify_mod.run_all(tol_scale=cfg.tol_scale)
    lines = []
    rows = []
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{verdict} {r.name}: max deviation {r.max_deviation:.3g}"
            f" (tolerance {r.tolerance:.3g})"
        )
        rows.append((r.name, r.max_deviation, r.tolerance, verdict))
    table = Table.from_rows(("suite", "max_deviation", "tolerance", "status"), rows)
    return table, lines, all(r.passed for r in results)


def _print_transition(cfg: RunConfig, summary: str) -> int:
    if cfg.out is not None:
        print(summary)
    return EXIT_OK


def _print_verify(cfg: RunConfig, lines: list[str], passed: bool) -> int:
    for line in lines:
        print(line)
    return EXIT_OK if passed else EXIT_VERIFY


# what a command that returns more than its table prints, and its exit status
_PRINTERS = {"transition": _print_transition, "verify": _print_verify}


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this front end reserves 2 for
    # verification failures, so route usage errors to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corr-radiance",
        description="Sweep tables and verification for correlation-driven two-atom emission.",
    )
    parser.add_argument("command", choices=COMMANDS, help="which table or action to run")
    parser.add_argument("--kl", type=float, default=math.pi,
                        help="wave number times atom separation, in (1, MAX_KL = 1000] (default: pi)")
    parser.add_argument("--grid-d", type=int, default=101,
                        help="samples along the discord axis (default: 101)")
    parser.add_argument("--grid-b", type=int, default=101,
                        help="samples along the sin(beta) axis (default: 101)")
    parser.add_argument("--sin-beta", type=float, default=0.2,
                        help="fixed observation angle for fig5/transition (default: 0.2)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="rescale verification tolerances; 0 is a harness self-test")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 1
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE

    # the parser's dests are exactly the fields of RunConfig
    cfg = RunConfig(**vars(args))
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"corr-radiance: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # looked up by name on every call, so a patched cmd_* attribute is the one run
    result = globals()["cmd_" + cfg.command](cfg)
    table, *extra = result if isinstance(result, tuple) else (result,)
    status = _PRINTERS[cfg.command](cfg, *extra) if extra else EXIT_OK
    if cfg.command == "verify" and cfg.out is None:
        # the printed lines already carry the whole report
        return status

    try:
        if cfg.out is None:
            _write_blocks(table, cfg, sys.stdout)
        else:
            _write_file(table, cfg, cfg.out)
    except OSError as exc:
        where = "standard output" if cfg.out is None else repr(cfg.out)
        print(f"corr-radiance: error: cannot write {where}: {exc}", file=sys.stderr)
        return EXIT_IO
    return status


if __name__ == "__main__":
    sys.exit(main())
