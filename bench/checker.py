"""Output checker for the benchmark, independent of the corr_radiance package.

Every row of a table is recomputed here from the closed forms, vectorised
with numpy, and compared with what the CLI wrote:

- the discord axis is the evenly spaced grid, printed with 12 significant
  digits, and the Werner discord D(c) of the printed c matches it;
- the intensity is I = 1 - c cos(phi) with phi = kl sin(beta);
- g2 = (1 - c) / (1 - c cos phi)^2 is empty (CSV) or null (JSON) exactly
  where the bracket 1 - c cos phi is below 1e-12;
- the statistics label follows g2 wherever g2 is further than 1e-9 from 1;
- a transition root satisfies (1 - c) = (1 - c cos phi)^2, and the status is
  ``none`` iff cos phi <= 1/2;
- verify reports all 18 suites as PASS.

Column names and row counts are checked for every table.  Printed numbers
carry 12 significant digits, so each comparison allows for that rounding and
for how strongly it propagates; rows whose answer sits inside that rounding
(a bracket next to 1e-12, g2 next to 1, cos phi next to 1/2) are not judged.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence

import numpy as np

COLUMNS = {
    "fig2": ("D", "c", "sin_beta", "I"),
    "fig3": ("D", "c", "I_sinb1", "I_sinb0"),
    "fig4": ("D", "c", "sin_beta", "g2", "statistics", "flag"),
    "fig5": ("D", "c", "g2", "statistics", "flag", "transition"),
    "transition": ("kl", "sin_beta", "c_star", "D_t", "status"),
    "verify": ("suite", "max_deviation", "tolerance", "status"),
}
TEXT_COLUMNS = {"statistics", "flag", "transition", "status", "suite"}
# the CLI's defaults for options an invocation may leave out
DEFAULTS = {"--kl": math.pi, "--grid-d": 101, "--grid-b": 101, "--sin-beta": 0.2, "--format": "csv"}
VERIFY_SUITES = 18

UNDEFINED_BRACKET = 1e-12  # g2 is 0/0 below this bracket
PRINTED_C_ERROR = 1e-12  # bound on |printed c - c| from 12-digit rounding, with margin
VALUE_TOL = 1e-9  # absolute (I, D) or relative (g2) slack beyond the rounding bound
LABEL_BAND = 1e-9  # labels are only judged where g2 is further than this from 1
DISCORD_TOL = 1e-8  # discord_to_c stops within 1e-9 of the target discord


def parse_argv(argv: Sequence[str]) -> dict:
    """Command and options of one CLI invocation, with the CLI's defaults filled in."""
    opts = dict(DEFAULTS)
    opts["command"] = argv[0]
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts[flag] = value
    return {
        "command": opts["command"],
        "kl": float(opts["--kl"]),
        "grid_d": int(opts["--grid-d"]),
        "grid_b": int(opts["--grid-b"]),
        "sin_beta": float(opts["--sin-beta"]),
        "format": opts["--format"],
    }


def werner_discord(c: np.ndarray) -> np.ndarray:
    """D(c) = (1-c)/4 log2(1-c) - (1+c)/2 log2(1+c) + (1+3c)/4 log2(1+3c), in bits."""

    def xlog2(x):
        safe = np.where(x > 0.0, x, 1.0)
        return np.where(x > 0.0, x * np.log2(safe), 0.0)

    c = np.asarray(c, dtype=float)
    return 0.25 * xlog2(1.0 - c) - 0.5 * xlog2(1.0 + c) + 0.25 * xlog2(1.0 + 3.0 * c)


def printed(values) -> np.ndarray:
    """The float each value becomes after printing with 12 significant digits."""
    return np.array([float(f"{float(v):.12g}") for v in values])


class TableError(ValueError):
    """The output cannot be read as the expected table."""


def load_table(text: str, cfg: dict) -> dict:
    """Columns of a CSV or JSON table: text columns as arrays of str, numeric
    columns as float arrays with NaN where the cell is empty/null, plus an
    ``<name>.empty`` mask for each numeric column."""
    columns = COLUMNS[cfg["command"]]
    if cfg["format"] == "csv":
        if not text.endswith("\n"):
            raise TableError("CSV does not end with a newline")
        header, _, body = text.partition("\n")
        if tuple(header.split(",")) != columns:
            raise TableError(f"CSV header {header!r}, expected {','.join(columns)!r}")
        # every row must hold len(columns) - 1 commas; counted with numpy, as
        # splitting a large table line by line costs more than the rest of the check
        raw_bytes = np.frombuffer(body.encode(), dtype=np.uint8)
        commas = np.flatnonzero(raw_bytes == ord(","))
        ends = np.flatnonzero(raw_bytes == ord("\n"))
        if (np.diff(np.searchsorted(commas, ends), prepend=0) != len(columns) - 1).any():
            raise TableError("CSV row with the wrong number of cells")
        cells = body.replace("\n", ",").split(",")[:-1]  # the final newline adds one empty cell
        raw = [cells[i :: len(columns)] for i in range(len(columns))]
        empty_cell = ""
    else:
        payload = json.loads(text)
        if not isinstance(payload, dict) or set(payload) != {"config", "rows"}:
            raise TableError("JSON payload needs exactly the keys config and rows")
        expected_config = {k: cfg[k] for k in ("command", "kl", "grid_d", "grid_b", "sin_beta", "format")}
        if payload["config"] != expected_config:
            raise TableError(f"JSON config {payload['config']!r}, expected {expected_config!r}")
        rows = payload["rows"]
        if any(not isinstance(r, dict) or tuple(r) != columns for r in rows):
            raise TableError(f"JSON row keys differ from {columns}")
        raw = [[r[name] for r in rows] for name in columns]
        empty_cell = None

    table = {"rows": len(raw[0])}
    for name, column in zip(columns, raw):
        kinds = {str} if empty_cell == "" else {type(x) for x in column}  # CSV cells are text
        if name in TEXT_COLUMNS:
            if not kinds <= {str}:
                raise TableError(f"column {name} holds a non-text cell")
            table[name] = np.array(column, dtype=str)
            continue
        if not kinds <= ({str} if empty_cell == "" else {float, int, type(None)}):
            raise TableError(f"column {name} holds a non-number")
        empty = np.array([x == empty_cell for x in column], dtype=bool)
        # numpy parses the CSV strings itself; NaN stands in for an empty cell
        nan = "nan" if empty_cell == "" else math.nan
        try:
            values = np.array([nan if x == empty_cell else x for x in column], dtype=float)
        except ValueError as exc:
            raise TableError(f"column {name} holds a non-number: {exc}") from None
        if not np.isfinite(values[~empty]).all():
            raise TableError(f"column {name} holds a non-finite number")
        table[name] = values
        table[name + ".empty"] = empty
    return table


class _Problems(list):
    def expect(self, ok, message: str) -> None:
        """Record ``message`` unless every entry of ``ok`` holds."""
        ok = np.asarray(ok, dtype=bool)
        if not ok.all():
            bad = np.flatnonzero(~ok.ravel())
            self.append(f"{message} ({bad.size} rows, first at row {bad[0]})")


def check_output(argv: Sequence[str], text: str) -> tuple[int, list[str]]:
    """Row count of the table ``text`` written by ``corr-radiance *argv`` and
    the problems found in it; no problems means the output is correct."""
    cfg = parse_argv(argv)
    try:
        table = load_table(text, cfg)
    except (TableError, json.JSONDecodeError) as exc:
        return 0, [f"{cfg['command']}: {exc}"]
    problems = _Problems()
    command = cfg["command"]
    if command in ("fig2", "fig3", "fig4", "fig5"):
        _check_sweep(cfg, table, problems)
    elif command == "transition":
        _check_transition(cfg, table, problems)
    else:
        _check_verify(table, problems)
    return table["rows"], [f"{command}: {p}" for p in problems]


def _check_sweep(cfg: dict, t: dict, problems: _Problems) -> None:
    nd, nb, kl = cfg["grid_d"], cfg["grid_b"], cfg["kl"]
    grid = cfg["command"] in ("fig2", "fig4")
    rows = nd * nb if grid else nd
    if t["rows"] != rows:
        problems.append(f"{t['rows']} rows, expected {rows}")
        return

    d_axis = np.linspace(0.0, 1.0, nd)
    d_true = np.repeat(d_axis, nb) if grid else d_axis
    problems.expect(t["D"] == np.repeat(printed(d_axis), nb if grid else 1), "D is not the discord grid")
    c = t["c"]
    problems.expect((c >= 0.0) & (c <= 1.0), "c outside [0, 1]")
    problems.expect(np.abs(werner_discord(np.clip(c, 0.0, 1.0)) - d_true) <= DISCORD_TOL, "D(c) misses D")
    if grid:
        s_axis = np.linspace(-1.0, 1.0, nb)
        problems.expect(t["sin_beta"] == np.tile(printed(s_axis), nd), "sin_beta is not the angle grid")
        problems.expect(c.reshape(nd, nb) == c.reshape(nd, nb)[:, :1], "c varies along a discord row")
        phase = kl * np.tile(s_axis, nd)
    else:
        phase = np.full(nd, kl * cfg["sin_beta"])

    if cfg["command"] == "fig2":
        _check_intensity(t["I"], c, phase, "I", problems)
    elif cfg["command"] == "fig3":
        _check_intensity(t["I_sinb1"], c, np.full(nd, kl), "I_sinb1", problems)
        _check_intensity(t["I_sinb0"], c, np.zeros(nd), "I_sinb0", problems)
    else:
        _check_g2(t, c, phase, problems)


def _check_intensity(intensity, c, phase, name: str, problems: _Problems) -> None:
    expected = 1.0 - c * np.cos(phase)
    problems.expect(np.abs(intensity - expected) <= VALUE_TOL, f"{name} != 1 - c cos(phi)")


def _check_g2(t: dict, c, phase, problems: _Problems) -> None:
    g2, empty = t["g2"], t["g2.empty"]
    bracket = 1.0 - c * np.cos(phase)
    near_threshold = np.abs(np.abs(bracket) - UNDEFINED_BRACKET) <= PRINTED_C_ERROR
    undefined = (np.abs(bracket) < UNDEFINED_BRACKET) & ~near_threshold
    defined = ~undefined & ~near_threshold
    problems.expect(~undefined | empty, "g2 present where the bracket is below 1e-12")
    problems.expect(~defined | ~empty, "g2 missing where the bracket is at least 1e-12")
    problems.expect(t["flag"] == np.where(empty, "undefined", ""), "flag disagrees with g2")
    problems.expect((t["statistics"] == "undefined") == empty, "undefined statistics disagree with g2")

    with np.errstate(divide="ignore", invalid="ignore"):
        expected = (1.0 - c) / bracket**2
        # rounding of the printed c moves g2 by about |dg2/dc| * PRINTED_C_ERROR
        slack = VALUE_TOL * np.maximum(1.0, np.abs(expected)) + PRINTED_C_ERROR * (
            1.0 / bracket**2 + 2.0 * np.abs(expected / bracket)
        )
        problems.expect(
            ~defined | empty | (np.abs(g2 - expected) <= slack), "g2 != (1-c)/(1-c cos phi)^2"
        )
        margin = LABEL_BAND + slack
        above = defined & (expected > 1.0 + margin)
        below = defined & (expected < 1.0 - margin)
    problems.expect(~above | (t["statistics"] == "super_poissonian"), "g2 > 1 not labelled super_poissonian")
    problems.expect(~below | (t["statistics"] == "sub_poissonian"), "g2 < 1 not labelled sub_poissonian")

    if "transition" in t:
        marks = t["transition"]
        problems.expect((marks == "") | (marks == "crossing"), "unknown transition mark")
        # with every defined row clearly on one side of 1, a crossing is marked
        # exactly where the side differs from the previous defined row's
        if (above | below | empty).all() and not near_threshold.any():
            side = np.where(above, 1, -1)[~empty]
            expected_marks = np.zeros(len(marks), dtype=bool)
            expected_marks[np.flatnonzero(~empty)[1:]] = side[1:] != side[:-1]
            problems.expect((marks == "crossing") == expected_marks, "crossing marks misplaced")


def _check_transition(cfg: dict, t: dict, problems: _Problems) -> None:
    if t["rows"] != 1:
        problems.append(f"{t['rows']} rows, expected 1")
        return
    kl, sin_beta = cfg["kl"], cfg["sin_beta"]
    problems.expect(t["kl"] == printed([kl]), "kl is not the requested kl")
    problems.expect(t["sin_beta"] == printed([sin_beta]), "sin_beta is not the requested angle")
    cos_phi = math.cos(kl * sin_beta)
    status = str(t["status"][0])
    c_star, d_t = float(t["c_star"][0]), float(t["D_t"][0])
    problems.expect(status in ("ok", "none"), f"unknown status {status!r}")
    # at cos phi = 1 the root reaches c = 1 and the CLI reports none, so that edge is not judged
    if abs(cos_phi - 0.5) > LABEL_BAND and cos_phi < 1.0 - LABEL_BAND:
        problems.expect((status == "none") == (cos_phi < 0.5), f"status {status} at cos phi = {cos_phi:.6g}")
    if status == "ok":
        problems.expect(0.0 < c_star < 1.0, "c_star outside (0, 1)")
        residual = (1.0 - c_star) - (1.0 - c_star * cos_phi) ** 2
        problems.expect(abs(residual) <= VALUE_TOL, "c_star misses (1-c) = (1-c cos phi)^2")
        d_expected = werner_discord(np.clip(c_star, 0.0, 1.0))
        problems.expect(abs(d_t - d_expected) <= VALUE_TOL, "D_t != D(c_star)")
    else:
        problems.expect(t["c_star.empty"] & t["D_t.empty"], "status none with a root")


def _check_verify(t: dict, problems: _Problems) -> None:
    if t["rows"] != VERIFY_SUITES:
        problems.append(f"{t['rows']} suites, expected {VERIFY_SUITES}")
        return
    problems.expect(t["status"] == "PASS", "suite not PASS")
    problems.expect(t["max_deviation"] <= t["tolerance"], "deviation above tolerance")
    problems.expect(len(set(t["suite"])) == VERIFY_SUITES, "suite names repeat")
