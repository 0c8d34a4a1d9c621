"""Cross-validation suites: each closed form checked against its independent
route, plus the structural guarantees the rest of the package relies on.

Every suite reports its worst observed deviation next to the tolerance it
must meet, so a verification run shows actual margins rather than a bare
pass/fail.  The suites take no arguments and report at their own tolerances;
``run_all(tol_scale)`` rescales them all, and running it with 0 is a
self-test that the harness can fail.  A numeric discord optimum that did not
converge counts as an infinite deviation.
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from ._ginibre import GINIBRE_PAIRS
from .correlations import (
    DiscordResult,
    concurrence_closed,
    concurrences_wootters,
    discord_numerics,
    discord_to_c,
    discord_werner_closed,
)

# The one-state optimizer stays bound here, although the discord suites take
# their optima as stacks: the benchmark's tracer (bench/tracing.py) wraps it
# by this name.
from .correlations import discord_numeric  # noqa: F401
from .emission import (
    STATISTICS,
    DetectionGeometry,
    PhotonStatistics,
    g2_oracle,
    intensity_oracle,
    radiance_boundary,
    werner_emission,
    x_intensity,
)
from .qstate import (
    XStateParams,
    excitation_probabilities,
    make_werner,
    make_x_state,
    partial_traces,
    sigma_minus,
    valid_x_coefficients,
    validate_density,
    von_neumann_entropy,
    x_states,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool


def _result(name: str, deviation: float, tolerance: float, tol_scale: float = 1.0) -> SuiteResult:
    allowed = tolerance * tol_scale
    return SuiteResult(name, float(deviation), allowed, float(deviation) <= allowed)


def _geometry_grid(angles: int) -> list[DetectionGeometry]:
    """``angles`` values of sin beta over [-1, 1] at each of four ``kl``."""
    return [DetectionGeometry.from_sin_beta(kl, float(s))
            for kl in (1.7, math.pi, 2.0 * math.pi, 3.0 * math.pi)
            for s in np.linspace(-1.0, 1.0, angles)]


def _werner_grid(step: float) -> list[float]:
    """Werner c from 0 to 1 by ``step``, rounded to 10 decimals: 0.3, not 0.30000000000000004."""
    return [float(round(c, 10)) for c in np.arange(0.0, 1.0 + 1e-12, step)]


def _cos_phases(geoms: list[DetectionGeometry]) -> np.ndarray:
    return np.array([geom.cos_phase for geom in geoms])


@functools.cache
def _x_state_grid() -> np.ndarray:
    """The states of ``valid_x_coefficients()`` as one read-only stack from
    ``x_states``, built once per process, on first use, and shared by the
    suites that sweep them."""
    return x_states(valid_x_coefficients())


def _werner_stack(cs) -> np.ndarray:
    """The Werner states cx = cy = cz = -c of ``cs`` (each in [0, 1]) as one
    stack from ``x_states``."""
    return x_states([(-c, -c, -c) for c in cs])


def suite_x_state_validity() -> SuiteResult:
    check = validate_density(_x_state_grid())
    dev = max(
        0.0,
        float(check.trace_deviation.max()),
        float(check.hermiticity_deviation.max()),
        float(-check.min_eigenvalue.min()),
    )
    if not check.passed.all():
        dev = max(dev, 1.0)
    return _result("x-state validity on 0.1-step grid", dev, 1e-10)


def suite_marginals() -> SuiteResult:
    half = np.eye(2) / 2.0
    dev = 0.0
    for keep in (1, 2):
        dev = max(dev, float(np.max(np.abs(partial_traces(_x_state_grid(), keep) - half))))
    return _result("reduced states are maximally mixed", dev, 1e-12)


def suite_excitation() -> SuiteResult:
    dev = float(np.max(np.abs(excitation_probabilities(_x_state_grid()) - 1.0)))
    return _result("one excitation shared between the atoms", dev, 1e-12)


def suite_lowering_algebra() -> SuiteResult:
    s1, s2 = sigma_minus(1), sigma_minus(2)
    dev = max(
        float(np.max(np.abs(s1 @ s1))),
        float(np.max(np.abs(s2 @ s2))),
        float(np.max(np.abs(s1 @ s2 - s2 @ s1))),
    )
    return _result("lowering operators nilpotent and commuting", dev, 0.0)


def suite_entropy_unitary_invariance() -> SuiteResult:
    states = [make_werner(0.3).mat, make_x_state(XStateParams(0.5, 0.5, -0.5)).mat]
    dev = 0.0
    for real, imag in np.array(GINIBRE_PAIRS):
        z = real + 1j * imag
        q, r = np.linalg.qr(z)
        u = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        for mat in states:
            dev = max(
                dev,
                abs(von_neumann_entropy(u @ mat @ u.conj().T) - von_neumann_entropy(mat)),
            )
    return _result("entropy invariant under unitaries", dev, 1e-10)


def suite_discord_monotonicity() -> SuiteResult:
    cs = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    ds = np.array([discord_werner_closed(float(c)) for c in cs])
    dev = float(np.max(ds[:-1] - ds[1:]))
    return _result("discord nondecreasing in c", dev, 1e-12)


# the Werner optima of the current run_all call, keyed by (c, measured);
# None outside run_all
_run_optima: ContextVar[dict | None] = ContextVar("_run_optima", default=None)


def _werner_optima(cs, measured: int) -> list[DiscordResult]:
    """The numeric discord optima of the Werner states ``cs`` with atom
    ``measured`` measured.  Inside ``run_all`` each optimum is computed once
    and shared by the discord suites of that call; the ones not yet computed
    are computed together, in one ``discord_numerics`` call."""
    optima = _run_optima.get()
    if optima is None:
        optima = {}
    missing = [c for c in cs if (c, measured) not in optima]
    if missing:
        found = discord_numerics(_werner_stack(missing), measured)
        optima.update(((c, measured), result) for c, result in zip(missing, found))
    return [optima[c, measured] for c in cs]


def suite_discord_oracle() -> SuiteResult:
    cs = _werner_grid(0.1)
    dev = 0.0
    for c, numeric in zip(cs, _werner_optima(cs, 2)):
        closed = discord_werner_closed(c)
        dev = max(dev, abs(numeric.value - closed) if numeric.converged else math.inf)
    return _result("discord optimizer matches closed form", dev, 1e-4)


def suite_discord_symmetry() -> SuiteResult:
    cs = (0.3, 0.9)
    dev = 0.0
    for one, two in zip(_werner_optima(cs, 1), _werner_optima(cs, 2)):
        dev = max(dev, abs(one.value - two.value) if one.converged and two.converged else math.inf)
    return _result("discord independent of measured atom", dev, 2e-4)


def suite_discord_zero_at_classical() -> SuiteResult:
    (numeric,) = _werner_optima((0.0,), 2)
    dev = abs(numeric.value) if numeric.converged else math.inf
    return _result("zero discord for the uncorrelated state", dev, 1e-8)


def suite_discord_round_trip() -> SuiteResult:
    dev = 0.0
    for c in _werner_grid(0.1):
        dev = max(dev, abs(discord_to_c(discord_werner_closed(c)) - c))
    return _result("discord inversion round trip", dev, 1e-6)


def suite_concurrence_oracle() -> SuiteResult:
    cs = _werner_grid(0.05)
    flipped = concurrences_wootters(_werner_stack(cs))
    dev = max(abs(numeric - concurrence_closed(c)) for c, numeric in zip(cs, flipped.tolist()))
    return _result("spin-flip concurrence matches closed form", dev, 1e-10)


def suite_intensity_oracle() -> SuiteResult:
    coefficients = valid_x_coefficients(step=0.4)
    geoms = _geometry_grid(7)
    assert len(coefficients) * len(geoms) >= 1000
    stack = x_states(coefficients)
    oracle = np.stack([intensity_oracle(stack, geom) for geom in geoms], axis=1)
    half_sums = 0.5 * (coefficients[:, 0] + coefficients[:, 1])
    dev = float(np.max(np.abs(oracle - x_intensity(half_sums[:, None], _cos_phases(geoms)))))
    return _result("intensity trace matches closed form", dev, 1e-12)


def suite_g2_oracle() -> SuiteResult:
    geoms = _geometry_grid(13)
    cs = _werner_grid(0.05)
    closed = werner_emission(np.array(cs)[:, None], _cos_phases(geoms))
    werner = _werner_stack(cs)
    oracle = np.stack([g2_oracle(werner, geom) for geom in geoms], axis=1)
    defined = ~closed.undefined & ~np.isnan(oracle)
    assert np.count_nonzero(defined) >= 1000
    dev = max(
        float(np.max(np.abs(oracle - closed.g2), where=defined, initial=0.0)),
        float(np.any(closed.undefined != np.isnan(oracle))),
    )
    return _result("g2 trace ratio matches closed form", dev, 1e-12)


def suite_phase_convention() -> SuiteResult:
    werner = _werner_stack((0.0, 0.4, 0.8, 1.0))
    dev = 0.0
    for kl in (math.pi, 3.0 * math.pi):
        for s in np.linspace(-1.0, 1.0, 9):
            geom = DetectionGeometry.from_sin_beta(kl, float(s))
            ia = intensity_oracle(werner, geom, "indexed")
            ib = intensity_oracle(werner, geom, "centered")
            ga = g2_oracle(werner, geom, "indexed")
            gb = g2_oracle(werner, geom, "centered")
            both = ~np.isnan(ga) & ~np.isnan(gb)
            dev = max(
                dev,
                float(np.max(np.abs(ia - ib))),
                float(np.max(np.abs(ga - gb), where=both, initial=0.0)),
                float(np.any(np.isnan(ga) != np.isnan(gb))),
            )
    return _result("observables blind to phase convention", dev, 1e-12)


def suite_monotone_enhancement() -> SuiteResult:
    c = np.array([discord_to_c(float(d)) for d in np.linspace(0.0, 1.0, 21)])
    geoms = [DetectionGeometry.from_sin_beta(math.pi, s) for s in (1.0, 0.0)]
    rising, falling = x_intensity(-c[:, None], _cos_phases(geoms)).T
    dev = max(float(np.max(rising[:-1] - rising[1:])), float(np.max(falling[1:] - falling[:-1])))
    return _result("intensity strictly monotone in discord", dev, 0.0)


def suite_boundary_neutrality() -> SuiteResult:
    geoms = [
        DetectionGeometry.from_sin_beta(kl, s)
        for kl in (math.pi, 3.0 * math.pi)
        for s in radiance_boundary(kl)
    ]
    c = np.arange(0.0, 1.0 + 1e-12, 0.1)
    dev = float(np.max(np.abs(x_intensity(-c, _cos_phases(geoms)[:, None]) - 1.0)))
    return _result("unit intensity on the radiance boundary", dev, 1e-12)


def suite_superradiant_statistics() -> SuiteResult:
    geoms = [DetectionGeometry.from_sin_beta(math.pi, s) for s in (-0.95, -0.75, -0.55, 0.55, 0.75, 0.95)]
    c = np.array([discord_to_c(float(d)) for d in np.linspace(0.0, 1.0, 50)])
    g2 = werner_emission(c, _cos_phases(geoms)[:, None]).g2
    inside = (0.0 < c) & (c < 1.0)
    dev = max(float(np.max(g2[:, inside] - 1.0)), float(np.max(g2[:, 1:] - g2[:, :-1])))
    return _result("superradiant lobes stay sub-Poissonian", dev, 0.0)


def suite_transition_sign_structure() -> SuiteResult:
    geom = DetectionGeometry.from_sin_beta(math.pi, 0.2)
    codes = werner_emission(np.linspace(1e-6, 1.0 - 1e-6, 2001), geom.cos_phase).statistics
    signs = codes[codes != STATISTICS.index(PhotonStatistics.POISSONIAN)]
    flips = np.count_nonzero(signs[1:] != signs[:-1])
    return _result("single statistics crossing at the reference angle", abs(flips - 1), 0.0)


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
    """Run every suite with its tolerance times ``tol_scale``; the package is
    healthy iff all of them pass.

    The discord suites share each Werner optimum they have in common, within
    this call only, and compute the ones they miss in one stacked call: two
    optimizer calls in all, one per measured atom.
    """
    token = _run_optima.set({})
    try:
        results = [suite() for suite in ALL_SUITES]
    finally:
        _run_optima.reset(token)
    return [_result(r.name, r.max_deviation, r.tolerance, tol_scale) for r in results]
