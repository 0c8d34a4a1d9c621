"""Byte identity of the array sweeps and column renderers.

``reference_output`` builds every table cell by cell from the scalar library
functions (``discord_to_c``, ``intensity_closed_x``, ``g2_closed_werner``,
``classify``) and renders it row by row through ``_fmt`` and
``json.dumps(indent=2)``.  The CLI must write exactly the same bytes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corr_radiance import verify
from corr_radiance.cli import RunConfig, main
from corr_radiance.correlations import discord_to_c, discord_to_c_array, discord_werner_closed
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
    geoms = [DetectionGeometry.from_sin_beta(cfg.kl, float(s)) for s in sin_betas]
    return [
        (d, c, float(s), *cell(c, geom))
        for d, c in _discord_axis(cfg)
        for s, geom in zip(sin_betas, geoms)
    ]


def _werner(c):
    return XStateParams(-c, -c, -c)


def _g2_cells(c, geom):
    g2 = g2_closed_werner(c, geom)
    report = classify(intensity_closed_x(_werner(c), geom), g2)
    return g2, report.statistics.value, "undefined" if g2 is None else ""


def _fig5_rows(cfg):
    geom = DetectionGeometry.from_sin_beta(cfg.kl, cfg.sin_beta)
    entries = [(d, c, *_g2_cells(c, geom)) for d, c in _discord_axis(cfg)]
    rows = []
    previous_sign = None
    for i, (d, c, g2, statistics, flag) in enumerate(entries):
        mark = ""
        if g2 is not None:
            if abs(g2 - 1.0) <= 1e-12:
                sign = 0
                if i > 0:
                    mark = "crossing"
            else:
                sign = 1 if g2 > 1.0 else -1
                if previous_sign in (1, -1) and sign != previous_sign:
                    mark = "crossing"
            previous_sign = sign
        rows.append((d, c, g2, statistics, flag, mark))
    return rows


def _transition_rows(cfg):
    point = find_statistics_transition(DetectionGeometry.from_sin_beta(cfg.kl, cfg.sin_beta))
    if point is None:
        return [(cfg.kl, cfg.sin_beta, None, None, "none")]
    return [(cfg.kl, cfg.sin_beta, point.c_star, point.discord, "ok")]


def reference_table(cfg, suite_results):
    if cfg.command == "fig2":
        return ("D", "c", "sin_beta", "I"), _plane(
            cfg, lambda c, geom: (intensity_closed_x(_werner(c), geom),)
        )
    if cfg.command == "fig3":
        fwd = DetectionGeometry.from_sin_beta(cfg.kl, 1.0)
        bwd = DetectionGeometry.from_sin_beta(cfg.kl, 0.0)
        return ("D", "c", "I_sinb1", "I_sinb0"), [
            (d, c, intensity_closed_x(_werner(c), fwd), intensity_closed_x(_werner(c), bwd))
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
# the array kernels against the scalar functions, value by value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kl", KLS)
def test_emission_kernel_is_the_scalar_kernel_bit_for_bit(kl):
    # 12-digit output hides most last-ulp differences, so compare the values
    c = discord_to_c_array(np.linspace(0.0, 1.0, 101))
    geoms = [DetectionGeometry.from_sin_beta(kl, float(s)) for s in np.linspace(-1.0, 1.0, 101)]
    e = werner_emission(c[:, None], np.array([[math.cos(g.phase) for g in geoms]]))
    for i, ci in enumerate(c.tolist()):
        for j, geom in enumerate(geoms):
            intensity = intensity_closed_x(XStateParams(-ci, -ci, -ci), geom)
            g2 = g2_closed_werner(ci, geom)
            assert e.intensity[i, j] == intensity
            assert e.undefined[i, j] == (g2 is None)
            assert math.isnan(e.g2[i, j]) if g2 is None else e.g2[i, j] == g2
            assert STATISTICS[e.statistics[i, j]] is classify(intensity, g2).statistics


# ---------------------------------------------------------------------------
# the discord-axis inversion against the scalar bisection
# ---------------------------------------------------------------------------

def _assert_inversion_matches(n):
    d = np.linspace(0.0, 1.0, n)
    expected = np.array([discord_to_c(float(x)) for x in d])
    assert discord_to_c_array(d).tobytes() == expected.tobytes()


@settings(max_examples=20, deadline=None, database=None)
@given(st.integers(min_value=2, max_value=5000))
def test_array_inversion_is_the_scalar_bisection_bit_for_bit(n):
    _assert_inversion_matches(n)


def test_array_inversion_on_the_long_axis():
    _assert_inversion_matches(25001)


def test_array_inversion_on_targets_hit_exactly_by_a_bisection_step():
    # the residual at that step is 0, so the step's decision turns on the last
    # ulp of the logarithm; the scalar fallback must take these targets
    midpoints = np.arange(1, 2**12, 2) / 2**12
    d = np.array([discord_werner_closed(m) for m in midpoints.tolist()])
    expected = np.array([discord_to_c(x) for x in d.tolist()])
    assert discord_to_c_array(d).tobytes() == expected.tobytes()


def test_array_inversion_rejects_targets_outside_the_range():
    for bad in (-1e-3, 1.0 + 1e-12, math.nan):
        with pytest.raises(ValueError):
            discord_to_c_array(np.array([0.5, bad]))
