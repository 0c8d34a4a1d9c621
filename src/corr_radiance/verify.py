"""Cross-validation suites: each closed form checked against its independent
route, plus the structural guarantees the rest of the package relies on.

Every suite reports its worst observed deviation next to the tolerance it
must meet, so a verification run shows actual margins rather than a bare
pass/fail.  ``tol_scale`` rescales all tolerances; running with 0 is a
self-test that the harness can fail.  A numeric discord optimum that did not
converge counts as an infinite deviation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .correlations import (
    concurrence_closed,
    concurrence_wootters,
    discord_numeric,
    discord_to_c,
    discord_werner_closed,
)
from .emission import (
    DetectionGeometry,
    field_operator,
    g2_closed_werner,
    g2_oracle,
    intensity_closed_x,
    intensity_oracle,
    radiance_boundary,
)
from .qstate import (
    DensityMatrix,
    XStateParams,
    excitation_probability,
    make_werner,
    make_x_state,
    partial_trace,
    sigma_minus,
    validate_density,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool


def _result(name: str, deviation: float, tolerance: float, tol_scale: float) -> SuiteResult:
    allowed = tolerance * tol_scale
    return SuiteResult(name, float(deviation), allowed, float(deviation) <= allowed)


def valid_x_params(step: float = 0.1) -> list[XStateParams]:
    """All coefficient triples on a cubic grid that give a physical state."""
    axis = [round(-1.0 + k * step, 10) for k in range(int(round(2.0 / step)) + 1)]
    params = []
    for cx, cy, cz in itertools.product(axis, axis, axis):
        lams = (
            1.0 - cx - cy - cz,
            1.0 - cx + cy + cz,
            1.0 + cx - cy + cz,
            1.0 + cx + cy - cz,
        )
        if min(lams) >= -1e-12:
            params.append(XStateParams(cx, cy, cz))
    return params


def _geometry_grid() -> list[DetectionGeometry]:
    geoms = []
    for kl in (1.7, math.pi, 2.0 * math.pi, 3.0 * math.pi):
        for s in np.linspace(-1.0, 1.0, 7):
            geoms.append(DetectionGeometry.from_sin_beta(kl, float(s)))
    return geoms


@functools.cache
def _x_state_grid() -> tuple[DensityMatrix, ...]:
    """The states of ``valid_x_params()``, built (and so validated) once per
    process, on first use, and shared by the suites that sweep them."""
    return tuple(make_x_state(p) for p in valid_x_params())


def suite_x_state_validity(tol_scale: float = 1.0) -> SuiteResult:
    dev = 0.0
    for rho in _x_state_grid():
        check = validate_density(rho.mat)
        dev = max(
            dev,
            check.trace_deviation,
            check.hermiticity_deviation,
            max(0.0, -check.min_eigenvalue),
        )
        if not check.passed:
            dev = max(dev, 1.0)
    return _result("x-state validity on 0.1-step grid", dev, 1e-10, tol_scale)


def suite_marginals(tol_scale: float = 1.0) -> SuiteResult:
    half = np.eye(2) / 2.0
    dev = 0.0
    for rho in _x_state_grid():
        for keep in (1, 2):
            dev = max(dev, float(np.max(np.abs(partial_trace(rho, keep).mat - half))))
    return _result("reduced states are maximally mixed", dev, 1e-12, tol_scale)


def suite_excitation(tol_scale: float = 1.0) -> SuiteResult:
    dev = max(abs(excitation_probability(rho) - 1.0) for rho in _x_state_grid())
    return _result("one excitation shared between the atoms", dev, 1e-12, tol_scale)


def suite_lowering_algebra(tol_scale: float = 1.0) -> SuiteResult:
    s1, s2 = sigma_minus(1), sigma_minus(2)
    dev = max(
        float(np.max(np.abs(s1 @ s1))),
        float(np.max(np.abs(s2 @ s2))),
        float(np.max(np.abs(s1 @ s2 - s2 @ s1))),
    )
    return _result("lowering operators nilpotent and commuting", dev, 0.0, tol_scale)


def suite_entropy_unitary_invariance(tol_scale: float = 1.0) -> SuiteResult:
    rng = np.random.default_rng(20240817)
    states = [make_werner(0.3).mat, make_x_state(XStateParams(0.5, 0.5, -0.5)).mat]
    dev = 0.0
    for _ in range(20):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        u = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        for mat in states:
            dev = max(
                dev,
                abs(von_neumann_entropy(u @ mat @ u.conj().T) - von_neumann_entropy(mat)),
            )
    return _result("entropy invariant under unitaries", dev, 1e-10, tol_scale)


def suite_discord_monotonicity(tol_scale: float = 1.0) -> SuiteResult:
    cs = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    ds = np.array([discord_werner_closed(float(c)) for c in cs])
    dev = float(np.max(ds[:-1] - ds[1:]))
    return _result("discord nondecreasing in c", dev, 1e-12, tol_scale)


def suite_discord_oracle(tol_scale: float = 1.0) -> SuiteResult:
    dev = 0.0
    for c in np.arange(0.0, 1.0 + 1e-12, 0.1):
        c = float(round(c, 10))
        numeric = discord_numeric(make_werner(c))
        closed = discord_werner_closed(c)
        dev = max(dev, abs(numeric.value - closed) if numeric.converged else math.inf)
    return _result("discord optimizer matches closed form", dev, 1e-4, tol_scale)


def suite_discord_symmetry(tol_scale: float = 1.0) -> SuiteResult:
    dev = 0.0
    for c in (0.3, 0.9):
        rho = make_werner(c)
        one, two = discord_numeric(rho, measured=1), discord_numeric(rho, measured=2)
        dev = max(dev, abs(one.value - two.value) if one.converged and two.converged else math.inf)
    return _result("discord independent of measured atom", dev, 2e-4, tol_scale)


def suite_discord_zero_at_classical(tol_scale: float = 1.0) -> SuiteResult:
    numeric = discord_numeric(make_werner(0.0))
    dev = abs(numeric.value) if numeric.converged else math.inf
    return _result("zero discord for the uncorrelated state", dev, 1e-8, tol_scale)


def suite_discord_round_trip(tol_scale: float = 1.0) -> SuiteResult:
    dev = 0.0
    for c in np.arange(0.0, 1.0 + 1e-12, 0.1):
        c = float(round(c, 10))
        dev = max(dev, abs(discord_to_c(discord_werner_closed(c)) - c))
    return _result("discord inversion round trip", dev, 1e-6, tol_scale)


def suite_concurrence_oracle(tol_scale: float = 1.0) -> SuiteResult:
    dev = 0.0
    for c in np.arange(0.0, 1.0 + 1e-12, 0.05):
        c = float(round(c, 10))
        dev = max(dev, abs(concurrence_wootters(make_werner(c)) - concurrence_closed(c)))
    return _result("spin-flip concurrence matches closed form", dev, 1e-10, tol_scale)


def suite_intensity_oracle(tol_scale: float = 1.0) -> SuiteResult:
    params = valid_x_params(step=0.4)
    geoms = _geometry_grid()
    assert len(params) * len(geoms) >= 1000
    dev = 0.0
    for p in params:
        rho = make_x_state(p)
        for geom in geoms:
            dev = max(dev, abs(intensity_oracle(rho, geom) - intensity_closed_x(p, geom)))
    return _result("intensity trace matches closed form", dev, 1e-12, tol_scale)


def suite_g2_oracle(tol_scale: float = 1.0) -> SuiteResult:
    geoms = []
    for kl in (1.7, math.pi, 2.0 * math.pi, 3.0 * math.pi):
        for s in np.linspace(-1.0, 1.0, 13):
            geoms.append(DetectionGeometry.from_sin_beta(kl, float(s)))
    dev = 0.0
    defined = 0
    for c in np.arange(0.0, 1.0 + 1e-12, 0.05):
        c = float(round(c, 10))
        rho = make_werner(c)
        for geom in geoms:
            closed = g2_closed_werner(c, geom)
            numeric = g2_oracle(rho, geom)
            if (closed is None) != (numeric is None):
                dev = max(dev, 1.0)
            elif closed is not None:
                defined += 1
                dev = max(dev, abs(numeric - closed))
    assert defined >= 1000
    return _result("g2 trace ratio matches closed form", dev, 1e-12, tol_scale)


def suite_phase_convention(tol_scale: float = 1.0) -> SuiteResult:
    dev = 0.0
    for c in (0.0, 0.4, 0.8, 1.0):
        rho = make_werner(c)
        for kl in (math.pi, 3.0 * math.pi):
            for s in np.linspace(-1.0, 1.0, 9):
                geom = DetectionGeometry.from_sin_beta(kl, float(s))
                dev = max(
                    dev,
                    abs(
                        intensity_oracle(rho, geom, "indexed")
                        - intensity_oracle(rho, geom, "centered")
                    ),
                )
                ga = g2_oracle(rho, geom, "indexed")
                gb = g2_oracle(rho, geom, "centered")
                if (ga is None) != (gb is None):
                    dev = max(dev, 1.0)
                elif ga is not None:
                    dev = max(dev, abs(ga - gb))
    return _result("observables blind to phase convention", dev, 1e-12, tol_scale)


def suite_monotone_enhancement(tol_scale: float = 1.0) -> SuiteResult:
    geom_fwd = DetectionGeometry.from_sin_beta(math.pi, 1.0)
    geom_bwd = DetectionGeometry.from_sin_beta(math.pi, 0.0)
    rising, falling = [], []
    for d in np.linspace(0.0, 1.0, 21):
        c = discord_to_c(float(d))
        p = XStateParams(-c, -c, -c)
        rising.append(intensity_closed_x(p, geom_fwd))
        falling.append(intensity_closed_x(p, geom_bwd))
    rising, falling = np.array(rising), np.array(falling)
    dev = max(float(np.max(rising[:-1] - rising[1:])), float(np.max(falling[1:] - falling[:-1])))
    return _result("intensity strictly monotone in discord", dev, 0.0, tol_scale)


def suite_boundary_neutrality(tol_scale: float = 1.0) -> SuiteResult:
    dev = 0.0
    for kl in (math.pi, 3.0 * math.pi):
        for s in radiance_boundary(kl):
            geom = DetectionGeometry.from_sin_beta(kl, s)
            for c in np.arange(0.0, 1.0 + 1e-12, 0.1):
                p = XStateParams(-float(c), -float(c), -float(c))
                dev = max(dev, abs(intensity_closed_x(p, geom) - 1.0))
    return _result("unit intensity on the radiance boundary", dev, 1e-12, tol_scale)


def suite_superradiant_statistics(tol_scale: float = 1.0) -> SuiteResult:
    dev = -math.inf
    for s in (-0.95, -0.75, -0.55, 0.55, 0.75, 0.95):
        geom = DetectionGeometry.from_sin_beta(math.pi, s)
        previous = None
        for d in np.linspace(0.0, 1.0, 50):
            c = discord_to_c(float(d))
            g2 = g2_closed_werner(c, geom)
            if 0.0 < c < 1.0:
                dev = max(dev, g2 - 1.0)
            if previous is not None:
                dev = max(dev, g2 - previous)
            previous = g2
    return _result("superradiant lobes stay sub-Poissonian", dev, 0.0, tol_scale)


def suite_transition_sign_structure(tol_scale: float = 1.0) -> SuiteResult:
    geom = DetectionGeometry.from_sin_beta(math.pi, 0.2)
    signs = []
    for c in np.linspace(1e-6, 1.0 - 1e-6, 2001):
        g2 = g2_closed_werner(float(c), geom)
        if abs(g2 - 1.0) > 1e-12:
            signs.append(1 if g2 > 1.0 else -1)
    flips = sum(1 for a, b in zip(signs[:-1], signs[1:]) if a != b)
    return _result("single statistics crossing at the reference angle", abs(flips - 1), 0.0, tol_scale)


ALL_SUITES = (
    suite_x_state_validity,
    suite_marginals,
    suite_excitation,
    suite_lowering_algebra,
    suite_entropy_unitary_invariance,
    suite_discord_monotonicity,
    suite_discord_oracle,
    suite_discord_symmetry,
    suite_discord_zero_at_classical,
    suite_discord_round_trip,
    suite_concurrence_oracle,
    suite_intensity_oracle,
    suite_g2_oracle,
    suite_phase_convention,
    suite_monotone_enhancement,
    suite_boundary_neutrality,
    suite_superradiant_statistics,
    suite_transition_sign_structure,
)


def run_all(tol_scale: float = 1.0) -> list[SuiteResult]:
    """Run every suite; the package is healthy iff all of them pass."""
    return [suite(tol_scale) for suite in ALL_SUITES]
