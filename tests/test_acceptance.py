"""Acceptance gate: the ten headline guarantees, each with its own budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance here is load-bearing; loosening one is a
regression even if the suite stays green.
"""

import math
import time

import numpy as np
import pytest

from corr_radiance.cli import main
from corr_radiance.correlations import (
    concurrence_closed,
    concurrence_wootters,
    discord_numeric,
    discord_to_c,
    discord_werner_closed,
)
from corr_radiance.emission import (
    DetectionGeometry,
    find_statistics_transition,
    g2_closed_werner,
    g2_oracle,
    intensity_closed_x,
    intensity_oracle,
    radiance_boundary,
)
from corr_radiance.qstate import (
    XStateParams,
    excitation_probability,
    make_werner,
    make_x_state,
    partial_trace,
    validate_density,
)
from corr_radiance.qstate import valid_x_params

PI = math.pi
_MODULE_T0 = time.perf_counter()


def _report(number, message):
    print(f"[criterion {number:2d}] PASS: {message}")


def werner_params(c):
    return XStateParams(-c, -c, -c)


def test_c01_discord_benchmark_value():
    t0 = time.perf_counter()
    closed = discord_werner_closed(1.0 / 3.0)
    numeric = discord_numeric(make_werner(1.0 / 3.0)).value
    elapsed = time.perf_counter() - t0
    assert abs(closed - 0.126) <= 5e-4
    assert abs(numeric - 0.126) <= 1e-3
    assert elapsed < 5.0
    _report(1, f"discord at c=1/3: closed {closed:.6f}, numeric {numeric:.6f} "
               f"({elapsed:.2f}s)")


def test_c02_statistics_transition_location():
    t0 = time.perf_counter()
    geom = DetectionGeometry.from_sin_beta(PI, 0.2)
    point = find_statistics_transition(geom)
    # independent root: bisect g2 - 1 on the same closed form
    lo, hi = 1e-9, 1.0 - 1e-12
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g2_closed_werner(mid, geom) > 1.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    elapsed = time.perf_counter() - t0
    assert point is not None
    assert 0.86 <= point.discord <= 0.88
    assert abs(point.c_star - root) <= 1e-8
    assert elapsed < 1.0
    _report(2, f"transition at kl=pi, sin_beta=0.2: c*={point.c_star:.10f}, "
               f"D_t={point.discord:.4f} ({elapsed:.2f}s)")


def _geometry_grid(n_angles):
    geoms = []
    for kl in (1.7, PI, 2.0 * PI, 3.0 * PI):
        for s in np.linspace(-1.0, 1.0, n_angles):
            geoms.append(DetectionGeometry.from_sin_beta(kl, float(s)))
    return geoms


def test_c03_intensity_oracle_equivalence():
    t0 = time.perf_counter()
    params = valid_x_params(step=0.4)
    geoms = _geometry_grid(7)
    pairs = len(params) * len(geoms)
    assert pairs >= 1000
    worst = 0.0
    for p in params:
        rho = make_x_state(p)
        for geom in geoms:
            worst = max(worst, abs(intensity_oracle(rho, geom) - intensity_closed_x(p, geom)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    _report(3, f"intensity trace vs closed form: {pairs} pairs, "
               f"max deviation {worst:.2e} ({elapsed:.2f}s)")


def test_c04_g2_oracle_equivalence():
    t0 = time.perf_counter()
    geoms = _geometry_grid(13)
    worst = 0.0
    defined = 0
    for c in np.arange(0.0, 1.0 + 1e-12, 0.05):
        c = float(round(c, 10))
        rho = make_werner(c)
        for geom in geoms:
            closed = g2_closed_werner(c, geom)
            numeric = g2_oracle(rho, geom)
            assert (closed is None) == (numeric is None)
            if closed is not None:
                defined += 1
                worst = max(worst, abs(numeric - closed))
    elapsed = time.perf_counter() - t0
    assert defined >= 1000
    assert worst <= 1e-12
    assert elapsed < 10.0
    _report(4, f"g2 trace ratio vs closed form: {defined} defined pairs, "
               f"max deviation {worst:.2e} ({elapsed:.2f}s)")


def test_c05_radiance_boundary_at_half_wavelength():
    boundary = radiance_boundary(PI)
    assert boundary == pytest.approx([-0.5, 0.5], abs=1e-14)
    cs = [round(0.1 * k, 10) for k in range(11)]
    worst = 0.0
    for s in boundary:
        geom = DetectionGeometry.from_sin_beta(PI, s)
        for c in cs:
            worst = max(worst, abs(intensity_closed_x(werner_params(c), geom) - 1.0))
    assert worst <= 1e-12
    for s in np.linspace(-1.0, 1.0, 41):
        s = float(s)
        if abs(abs(s) - 0.5) < 1e-9:
            continue
        geom = DetectionGeometry.from_sin_beta(PI, s)
        for c in cs:
            if c == 0.0:
                continue
            intensity = intensity_closed_x(werner_params(c), geom)
            if abs(s) > 0.5:
                assert intensity > 1.0
            else:
                assert intensity < 1.0
    _report(5, f"unit intensity at sin_beta = +/-0.5 (max |I-1| {worst:.2e}), "
               f"super outside, sub inside")


def test_c06_superradiant_lobes_sub_poissonian_and_monotone():
    d_axis = np.linspace(0.0, 1.0, 50)
    for s in (-1.0, -0.8, -0.6, 0.55, 0.7, 0.85, 1.0):
        geom = DetectionGeometry.from_sin_beta(PI, s)
        previous = None
        for d in d_axis:
            c = discord_to_c(float(d))
            g2 = g2_closed_werner(c, geom)
            if 0.0 < c < 1.0:
                assert g2 < 1.0
            if previous is not None:
                assert g2 <= previous + 1e-15
            previous = g2
    _report(6, "g2 < 1 on every superradiant sample and nonincreasing in discord")


def test_c07_monotone_enhancement_with_pinned_endpoints():
    geom_fwd = DetectionGeometry.from_sin_beta(PI, 1.0)
    geom_bwd = DetectionGeometry.from_sin_beta(PI, 0.0)
    rising, falling = [], []
    for d in np.linspace(0.0, 1.0, 101):
        c = discord_to_c(float(d))
        rising.append(intensity_closed_x(werner_params(c), geom_fwd))
        falling.append(intensity_closed_x(werner_params(c), geom_bwd))
    assert all(b > a for a, b in zip(rising[:-1], rising[1:]))
    assert all(b < a for a, b in zip(falling[:-1], falling[1:]))
    assert abs(rising[0] - 1.0) <= 1e-9
    assert abs(rising[-1] - 2.0) <= 1e-9
    assert abs(falling[0] - 1.0) <= 1e-9
    assert abs(falling[-1] - 0.0) <= 1e-9
    _report(7, "intensity strictly monotone in discord along both extreme angles, "
               "endpoints (1,1) and (2,0)")


def test_c08_concurrence_construction_matches_closed_form():
    worst = 0.0
    for c in np.arange(0.0, 1.0 + 1e-12, 0.05):
        c = float(round(c, 10))
        closed = concurrence_closed(c)
        flip = concurrence_wootters(make_werner(c))
        worst = max(worst, abs(flip - closed))
        if c <= 1.0 / 3.0:
            assert flip == 0.0
            assert closed == 0.0
    assert worst <= 1e-10
    _report(8, f"spin-flip concurrence vs closed form: max deviation {worst:.2e}, "
               f"exactly zero up to c = 0.30")


def test_c09_x_state_structural_invariants():
    params = valid_x_params(step=0.1)
    half = np.eye(2) / 2.0
    worst_marginal = 0.0
    worst_excitation = 0.0
    for p in params:
        rho = make_x_state(p)
        assert validate_density(rho.mat).passed
        for keep in (1, 2):
            worst_marginal = max(
                worst_marginal, float(np.max(np.abs(partial_trace(rho, keep).mat - half)))
            )
        worst_excitation = max(worst_excitation, abs(excitation_probability(rho) - 1.0))
    assert worst_marginal <= 1e-12
    assert worst_excitation <= 1e-12
    _report(9, f"{len(params)} physical coefficient triples: valid states, "
               f"marginals I/2 ({worst_marginal:.1e}), one excitation ({worst_excitation:.1e})")


def test_c10_cli_determinism_and_verification(tmp_path, capsys):
    for command in ("fig2", "fig4"):
        outputs = []
        for run in range(2):
            path = tmp_path / f"{command}_{run}.csv"
            assert main([command, "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 1 + 101 * 101
    assert main(["verify"]) == 0
    captured = capsys.readouterr()
    assert "FAIL" not in captured.out
    elapsed = time.perf_counter() - _MODULE_T0
    assert elapsed < 60.0
    _report(10, f"fig2/fig4 byte-identical at 101x101 rows, verify exits 0 "
                f"(acceptance module took {elapsed:.1f}s)")
