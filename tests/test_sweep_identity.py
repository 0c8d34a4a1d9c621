"""Byte identity of the array sweeps and column renderers.

``reference_output`` builds every table cell by cell from ``discord_to_c`` and
the Werner closed forms written out in plain Python below (``_intensity``,
``_g2``, ``_statistics``), apart from the library's emission kernel, and
renders it row by row through ``_fmt`` and ``json.dumps(indent=2)``.  The CLI
must write exactly the same bytes.
"""

import json
import math

import numpy as np
import pytest

from corr_radiance import verify
from corr_radiance.cli import _BLOCK_ROWS, RunConfig, main
from corr_radiance.correlations import discord_to_c
from corr_radiance.emission import (
    STATISTICS,
    DetectionGeometry,
    classify,
    find_statistics_transition,
    g2_closed_werner,
    intensity_closed_x,
    werner_emission,
)
from corr_radiance.qstate import XStateParams

KLS = (math.pi, 2.0 * math.pi, 1.5, 4.0 * math.pi)
SIN_BETAS = (-1.0, 0.0, 0.2, 1.0)
GRIDS = (2, 3, 101)


# ---------------------------------------------------------------------------
# scalar reference
# ---------------------------------------------------------------------------

def _discord_axis(cfg):
    return [(float(d), discord_to_c(float(d))) for d in np.linspace(0.0, 1.0, cfg.grid_d)]


def _plane(cfg, cell):
    sin_betas = np.linspace(-1.0, 1.0, cfg.grid_b)
    geoms = [DetectionGeometry(cfg.kl, float(s)) for s in sin_betas]
    return [
        (d, c, float(s), *cell(c, geom))
        for d, c in _discord_axis(cfg)
        for s, geom in zip(sin_betas, geoms)
    ]


def _werner(c):
    return XStateParams(-c, -c, -c)


def _intensity(c, geom):
    return 1.0 - c * math.cos(geom.phase)


def _g2(c, geom):
    bracket = _intensity(c, geom)
    if abs(bracket) < 1e-12:
        return None
    return (1.0 - c) / (bracket * bracket)


def _statistics(g2):
    if g2 is None:
        return "undefined"
    if g2 > 1.0 + 1e-12:
        return "super_poissonian"
    if g2 < 1.0 - 1e-12:
        return "sub_poissonian"
    return "poissonian"


def _g2_cells(c, geom):
    g2 = _g2(c, geom)
    return g2, _statistics(g2), "undefined" if g2 is None else ""


def _fig5_rows(cfg):
    geom = DetectionGeometry(cfg.kl, cfg.sin_beta)
    entries = [(d, c, *_g2_cells(c, geom)) for d, c in _discord_axis(cfg)]
    rows = []
    previous_sign = None
    for i, (d, c, g2, statistics, flag) in enumerate(entries):
        mark = ""
        if g2 is not None:
            if statistics == "poissonian":
                sign = 0
                if i > 0:
                    mark = "crossing"
            else:
                sign = 1 if statistics == "super_poissonian" else -1
                if previous_sign in (1, -1) and sign != previous_sign:
                    mark = "crossing"
            previous_sign = sign
        rows.append((d, c, g2, statistics, flag, mark))
    return rows


def _transition_rows(cfg):
    point = find_statistics_transition(DetectionGeometry(cfg.kl, cfg.sin_beta))
    if point is None:
        return [(cfg.kl, cfg.sin_beta, None, None, "none")]
    return [(cfg.kl, cfg.sin_beta, point.c_star, point.discord, "ok")]


def reference_table(cfg, suite_results):
    if cfg.command == "fig2":
        return ("D", "c", "sin_beta", "I"), _plane(cfg, lambda c, geom: (_intensity(c, geom),))
    if cfg.command == "fig3":
        fwd = DetectionGeometry(cfg.kl, 1.0)
        bwd = DetectionGeometry(cfg.kl, 0.0)
        return ("D", "c", "I_sinb1", "I_sinb0"), [
            (d, c, _intensity(c, fwd), _intensity(c, bwd))
            for d, c in _discord_axis(cfg)
        ]
    if cfg.command == "fig4":
        return ("D", "c", "sin_beta", "g2", "statistics", "flag"), _plane(cfg, _g2_cells)
    if cfg.command == "fig5":
        return ("D", "c", "g2", "statistics", "flag", "transition"), _fig5_rows(cfg)
    if cfg.command == "transition":
        return ("kl", "sin_beta", "c_star", "D_t", "status"), _transition_rows(cfg)
    return ("suite", "max_deviation", "tolerance", "status"), [
        (r.name, r.max_deviation, r.tolerance, "PASS" if r.passed else "FAIL")
        for r in suite_results
    ]


def _fmt(cell):
    if cell is None:
        return ""
    if isinstance(cell, float):
        return f"{cell:.12g}"
    return str(cell)


def reference_output(cfg, suite_results=()):
    columns, rows = reference_table(cfg, suite_results)
    if cfg.format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        return ("\n".join(lines) + "\n").encode()
    records = [
        {
            name: float(f"{cell:.12g}") if isinstance(cell, float) else cell
            for name, cell in zip(columns, row)
        }
        for row in rows
    ]
    config = {
        "command": cfg.command,
        "kl": cfg.kl,
        "grid_d": cfg.grid_d,
        "grid_b": cfg.grid_b,
        "sin_beta": cfg.sin_beta,
        "format": cfg.format,
    }
    return (json.dumps({"config": config, "rows": records}, indent=2) + "\n").encode()


# ---------------------------------------------------------------------------
# the CLI against the reference
# ---------------------------------------------------------------------------

def _cli_output(tmp_path, cfg):
    out = tmp_path / "table"
    argv = [
        cfg.command, "--kl", repr(cfg.kl), "--sin-beta", repr(cfg.sin_beta),
        "--grid-d", str(cfg.grid_d), "--grid-b", str(cfg.grid_b),
        "--format", cfg.format, "--out", str(out),
    ]
    assert main(argv) in (0, 2)
    return out.read_bytes()


def _cases():
    for fmt in ("csv", "json"):
        for kl in KLS:
            for grid in GRIDS:
                # fig2-fig4 ignore --sin-beta
                for command in ("fig2", "fig3", "fig4"):
                    yield RunConfig(command, kl=kl, grid_d=grid, grid_b=grid, format=fmt)
                for sin_beta in SIN_BETAS:
                    yield RunConfig("fig5", kl=kl, grid_d=grid, sin_beta=sin_beta, format=fmt)
            for sin_beta in SIN_BETAS:
                yield RunConfig("transition", kl=kl, sin_beta=sin_beta, format=fmt)


def _case_id(cfg):
    return f"{cfg.command}-{cfg.format}-kl{cfg.kl:.3g}-d{cfg.grid_d}-b{cfg.grid_b}-s{cfg.sin_beta:g}"


@pytest.mark.parametrize("cfg", list(_cases()), ids=_case_id)
def test_sweeps_are_byte_identical_to_the_scalar_reference(cfg, tmp_path):
    assert _cli_output(tmp_path, cfg) == reference_output(cfg)


def _long_axis_cases():
    # three blocks, the last of one row; sin beta = 0 makes the last row dark
    for kl in KLS:
        yield RunConfig("fig3", kl=kl, grid_d=2 * _BLOCK_ROWS + 1)
        for sin_beta in SIN_BETAS:
            yield RunConfig("fig5", kl=kl, grid_d=2 * _BLOCK_ROWS + 1, sin_beta=sin_beta)


@pytest.mark.parametrize("cfg", list(_long_axis_cases()), ids=_case_id)
def test_axis_tables_of_several_blocks_are_byte_identical(cfg, tmp_path):
    assert _cli_output(tmp_path, cfg) == reference_output(cfg)


def test_fig4_at_401_squared_is_byte_identical(tmp_path):
    cfg = RunConfig("fig4", kl=4.0 * math.pi, grid_d=401, grid_b=401, sin_beta=0.2)
    assert _cli_output(tmp_path, cfg) == reference_output(cfg)


@pytest.fixture(scope="module")
def suite_results():
    return verify.run_all()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_table_is_byte_identical(fmt, suite_results, tmp_path, monkeypatch):
    # the suites are deterministic; running them once keeps this test short
    monkeypatch.setattr(verify, "run_all", lambda tol_scale=1.0: suite_results)
    cfg = RunConfig("verify", format=fmt)
    assert _cli_output(tmp_path, cfg) == reference_output(cfg, suite_results)


# ---------------------------------------------------------------------------
# the array kernel and the scalar functions against the in-test closed forms,
# value by value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kl", KLS)
def test_emission_kernel_is_the_scalar_kernel_bit_for_bit(kl):
    # 12-digit output hides most last-ulp differences, so compare the values
    c = np.array([discord_to_c(d) for d in np.linspace(0.0, 1.0, 101).tolist()])
    geoms = [DetectionGeometry(kl, float(s)) for s in np.linspace(-1.0, 1.0, 101)]
    e = werner_emission(c[:, None], np.array([[math.cos(g.phase) for g in geoms]]))
    for i, ci in enumerate(c.tolist()):
        for j, geom in enumerate(geoms):
            intensity, g2 = _intensity(ci, geom), _g2(ci, geom)
            assert e.intensity[i, j] == intensity == intensity_closed_x(_werner(ci), geom)
            assert e.undefined[i, j] == (g2 is None)
            assert g2_closed_werner(ci, geom) == g2
            assert math.isnan(e.g2[i, j]) if g2 is None else e.g2[i, j] == g2
            assert STATISTICS[e.statistics[i, j]].value == _statistics(g2)
            assert classify(intensity, g2).statistics.value == _statistics(g2)
