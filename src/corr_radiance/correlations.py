"""Correlation measures for two-atom states: quantum discord and concurrence.

Every closed form here is paired with an independent numerical route (direct
measurement optimization for discord, the spin-flip eigenvalue construction
for concurrence) so the two can be cross-checked against each other.
"""

from __future__ import annotations

import functools
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from math import log2

import numpy as np

from .qstate import (
    ID2,
    PAULI_Y,
    DensityMatrix,
    eigenvalue_entropy,
    partial_traces,
    two_atom_stack,
)

# snap window for the separability threshold c = 1/3
CLASS_BOUNDARY_TOL = 1e-12


class CorrelationClass(Enum):
    CLASSICAL = "classical"
    DISCORDANT_SEPARABLE = "discordant_separable"
    ENTANGLED = "entangled"


@dataclass(frozen=True)
class DiscordResult:
    """Discord value with the minimizing measurement angles on the Bloch sphere."""

    value: float
    optimizer_angles: tuple[float, float]
    iterations: int
    converged: bool = True


def discord_werner_closed(c: float) -> float:
    """Quantum discord of the Werner state with mixing parameter c, in bits.

    Near c = 0 the discord is about c^2 / ln 2 while the three terms cancel
    to about 1e-16, so below c of about 1e-8 the sum can come out negative;
    it is clamped at 0.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"Werner parameter c = {c} lies outside [0, 1]")
    # 1 + c and 1 + 3c are at least 1; only 1 - c reaches 0, where x log2 x -> 0
    a, b, e = 1.0 - c, 1.0 + c, 1.0 + 3.0 * c
    d = 0.25 * (a * log2(a) if a > 0.0 else 0.0) - 0.5 * (b * log2(b)) + 0.25 * (e * log2(e))
    return d if d > 0.0 else 0.0


def _xlog2_array(x: np.ndarray) -> np.ndarray:
    """x log2 x elementwise, with 0 log 0 = 0 (and 0 for x < 0)."""
    positive = x > 0.0
    return np.where(positive, x * np.log2(np.where(positive, x, 1.0)), 0.0)


# sigma_0 = I, sigma_x, sigma_y, sigma_z, and each (sigma_i x sigma_j)^T:
# tr(rho A) is the sum of the elementwise product of rho and A^T
_PAULIS = np.array([ID2, [[0.0, 1.0], [1.0, 0.0]], PAULI_Y, [[1.0, 0.0], [0.0, -1.0]]], dtype=complex)
_PAULI_PAIRS_T = np.array([[np.kron(s, t).T for t in _PAULIS] for s in _PAULIS])


def _conditional_entropy(rho4: np.ndarray, measured: int, thetas, phis) -> np.ndarray:
    """Average post-measurement entropy of the unmeasured atom, one value per
    measurement direction (theta, phi) of atom ``measured``.

    ``rho4`` is one (4, 4) state, shared by every direction, or an (n, 4, 4)
    stack with one state per direction.  In the Pauli coefficients
    c_ij = tr(rho sigma_i x sigma_j), with a the unmeasured atom's Bloch
    vector, b the measured atom's and T their correlation matrix (unmeasured
    x measured), the outcome +-n has probability p = (1 +- b.n)/2 and leaves
    the eigenvalues 1/2 +- |a +- T n|/(4p) (Luo, PRA 77, 042303).  Every step
    is an elementwise real ufunc on each row alone, written out term by term,
    so a row's value does not depend on the rest of the batch, bit for bit;
    ``discord_numerics`` relies on that when it batches the pattern searches
    of all its members.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    c = (np.asarray(rho4)[..., None, None, :, :] * _PAULI_PAIRS_T).sum(axis=(-2, -1)).real
    if measured == 1:
        # rows index the unmeasured atom, columns the measured one
        c = c.swapaxes(-1, -2)
    n1 = np.sin(thetas) * np.cos(phis)
    n2 = np.sin(thetas) * np.sin(phis)
    n3 = np.cos(thetas)
    b_n = c[..., 0, 1] * n1 + c[..., 0, 2] * n2 + c[..., 0, 3] * n3
    a = [c[..., i, 0] for i in (1, 2, 3)]
    t_n = [c[..., i, 1] * n1 + c[..., i, 2] * n2 + c[..., i, 3] * n3 for i in (1, 2, 3)]
    total = np.zeros(thetas.shape)
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * b_n)
        v1, v2, v3 = (a[i] + sign * t_n[i] for i in range(3))
        live = p > 1e-15
        half_gap = np.sqrt(v1 * v1 + v2 * v2 + v3 * v3) / (4.0 * np.where(live, p, 1.0))
        entropy = -(_xlog2_array(0.5 + half_gap) + _xlog2_array(0.5 - half_gap))
        total += np.where(live, p * entropy, 0.0)
    return total


# discord_numeric scans a DISCORD_GRID x DISCORD_GRID grid of Bloch angles;
# its pattern search stops once a sweep gains less than DISCORD_TOL, and
# reports unconverged after DISCORD_MAX_DEPTH sweeps
DISCORD_GRID = 64
DISCORD_TOL = 1e-8
DISCORD_MAX_DEPTH = 50
# discord_to_c stops once the bracket in c and the residual in discord are
# both within DISCORD_TO_C_TOL
DISCORD_TO_C_TOL = 1e-9


def discord_numeric(rho: DensityMatrix, measured: int = 2) -> DiscordResult:
    """Discord by direct minimization over projective measurements.

    Computes S(rho_measured) - S(rho) + min over rank-one projective
    measurements on atom ``measured`` of the average conditional entropy of
    the other atom.  The minimization runs an exhaustive grid x grid scan
    (grid = ``DISCORD_GRID``) over the measurement Bloch angles (theta, phi)
    followed by pattern search with step halving; it stops once a sweep
    improves the objective by less than ``DISCORD_TOL``.  Grid ties resolve
    to the lowest (theta, phi) in lexicographic order.  This is
    ``discord_numerics`` of the stack of one.

    Returns
    -------
    DiscordResult
        ``converged`` is False if the ``DISCORD_MAX_DEPTH`` sweeps ran out
        before the improvement dropped below ``DISCORD_TOL``.
    """
    return discord_numerics(rho.mat[np.newaxis], measured)[0]


def discord_numerics(stack, measured: int = 2) -> list[DiscordResult]:
    """``discord_numeric`` of each state of a (k, 4, 4) stack, such as
    ``x_states`` returns, bit for bit: one ``DiscordResult`` per member.

    Each member's grid scan is one ``_conditional_entropy`` call over the
    whole grid.  The members' pattern searches then run in lockstep:
    each round evaluates the pending moves of every unfinished member in one
    ``_conditional_entropy`` call, one state per row, while each member keeps
    its own step, best point, stop test and evaluation count.
    """
    if measured not in (1, 2):
        raise ValueError(f"measured atom must be 1 or 2, got {measured}")
    states = two_atom_stack(stack, "discord")
    s_total = [eigenvalue_entropy(lam) for lam in np.linalg.eigvalsh(states)]
    s_measured = [eigenvalue_entropy(lam) for lam in np.linalg.eigvalsh(partial_traces(states, measured))]

    theta_axis = np.linspace(0.0, math.pi, DISCORD_GRID)
    phi_axis = np.linspace(0.0, 2.0 * math.pi, DISCORD_GRID, endpoint=False)
    # theta-major layout so the first minimum is the lexicographically lowest
    tt, pp = np.meshgrid(theta_axis, phi_axis, indexing="ij")
    thetas, phis = tt.ravel(), pp.ravel()
    searches = []
    for rho4 in states:
        values = _conditional_entropy(rho4, measured, thetas, phis)
        k = int(np.argmin(values))
        searches.append(_pattern_search(float(values[k]), float(thetas[k]), float(phis[k])))
    optima = _in_lockstep(searches, states, measured)
    return [
        DiscordResult(s_m - s_t + best_f, angles, evaluations, converged)
        for s_m, s_t, (best_f, angles, evaluations, converged) in zip(s_measured, s_total, optima)
    ]


def _pattern_search(best_f: float, best_t: float, best_p: float):
    """One member's pattern search with step halving from its grid optimum.

    A generator: it yields the angles ``(thetas, phis)`` of each batch of
    moves, is sent their values, and returns ``(best_f, (best_t, best_p),
    evaluations, converged)``.
    """
    evaluations = DISCORD_GRID * DISCORD_GRID
    step_t = math.pi / DISCORD_GRID
    step_p = 2.0 * math.pi / DISCORD_GRID
    converged = False
    for _ in range(DISCORD_MAX_DEPTH):
        before = best_f
        moves = ((step_t, 0.0), (-step_t, 0.0), (0.0, step_p), (0.0, -step_p))
        evaluations += len(moves)
        # Each move steps from the best point so far.  The moves left in the
        # sweep are evaluated in one batch; the first that improves is taken
        # and the moves after it are evaluated again from the new point.
        while moves:
            ts = [min(max(best_t + dt, 0.0), math.pi) for dt, _ in moves]
            ps = [(best_p + dp) % (2.0 * math.pi) for _, dp in moves]
            fs = yield ts, ps
            better = np.flatnonzero(fs < best_f)
            if better.size == 0:
                break
            k = int(better[0])
            best_f, best_t, best_p = float(fs[k]), ts[k], ps[k]
            moves = moves[k + 1:]
        gain = before - best_f
        if gain > 0.0:
            if gain < DISCORD_TOL:
                converged = True
                break
        else:
            step_t *= 0.5
            step_p *= 0.5
            if step_t < 1e-9:
                converged = True
                break
    return best_f, (best_t, best_p), evaluations, converged


def _in_lockstep(searches: list, states: np.ndarray, measured: int) -> list:
    """Run the ``_pattern_search`` generators of the members of ``states``
    together and return what each one returns.  Each round sends every
    unfinished search the values of the moves it yielded, all of them
    computed by one ``_conditional_entropy`` call."""
    results = [None] * len(searches)
    pending = {j: next(search) for j, search in enumerate(searches)}
    while pending:
        members = list(pending)
        sizes = [len(pending[j][0]) for j in members]
        values = _conditional_entropy(
            states[np.repeat(members, sizes)],
            measured,
            [t for j in members for t in pending[j][0]],
            [p for j in members for p in pending[j][1]],
        )
        for j, fs in zip(members, np.split(values, np.cumsum(sizes)[:-1])):
            try:
                pending[j] = searches[j].send(fs)
            except StopIteration as done:
                results[j] = done.value
                del pending[j]
    return results


def concurrence_closed(c: float) -> float:
    """Concurrence of the Werner state: max{0, (3c - 1)/2}."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"Werner parameter c = {c} lies outside [0, 1]")
    return max(0.0, (3.0 * c - 1.0) / 2.0)


_YY = np.kron(PAULI_Y, PAULI_Y)


def concurrence_wootters(rho: DensityMatrix) -> float:
    """Concurrence from the spin-flip construction.

    The eigenvalues l1 >= l2 >= l3 >= l4 of rho (YY) rho* (YY) give
    C = max{0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)}.  This is
    ``concurrences_wootters`` of the stack of one.
    """
    return float(concurrences_wootters(rho.mat[np.newaxis])[0])


def concurrences_wootters(stack) -> np.ndarray:
    """``concurrence_wootters`` of each state of a (k, 4, 4) stack, bit for
    bit, by one batched product and one batched ``eigvals``."""
    r = two_atom_stack(stack, "concurrence")
    flipped = _YY @ r.conj() @ _YY
    lam = np.sort(np.clip(np.linalg.eigvals(r @ flipped).real, 0.0, None), axis=-1)[:, ::-1]
    roots = np.sqrt(lam)
    excess = roots[:, 0] - roots[:, 1] - roots[:, 2] - roots[:, 3]
    # max(0.0, x) of each member: 0.0 unless x > 0.0
    return np.where(excess > 0.0, excess, 0.0)


# the top bisection levels of discord_to_c, whose midpoints every target shares
_SHARED_LEVELS = 12
_SHARED_WIDTH = 0.5 ** _SHARED_LEVELS


@functools.cache
def _shared_midpoint_values() -> array:
    """``discord_werner_closed`` at k 2^-``_SHARED_LEVELS`` for
    k = 1 ... 2^``_SHARED_LEVELS`` - 1, in ascending order, built once per
    process.  The values strictly increase."""
    return array(
        "d",
        (discord_werner_closed(k * _SHARED_WIDTH) for k in range(1, 2 ** _SHARED_LEVELS)),
    )


def discord_to_c(d: float) -> float:
    """Invert the Werner discord curve: the c in [0, 1] whose discord is d.

    Bisection on the monotone closed form; ``DISCORD_TO_C_TOL`` bounds both
    the bracket width in c and the residual in discord.

    The first ``_SHARED_LEVELS`` steps are read from a shared table rather
    than evaluated.  Over those steps every bracket end and midpoint is a
    multiple of 2^-``_SHARED_LEVELS``, the same exact float for every target,
    and the bracket is still wider than the tolerance, so the stop test cannot
    fire.  The table holds ``discord_werner_closed`` at those midpoints in
    ascending order; the steps are a binary search on it, which ``bisect_left``
    runs, with a tie going left as ``value < d`` does.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"discord target {d} lies outside the attainable range [0, 1]")
    if d == 0.0:
        return 0.0
    if d == 1.0:
        return 1.0
    lo = bisect_left(_shared_midpoint_values(), d) * _SHARED_WIDTH
    hi = lo + _SHARED_WIDTH
    for _ in range(200 - _SHARED_LEVELS):
        mid = 0.5 * (lo + hi)
        value = discord_werner_closed(mid)
        if abs(value - d) <= DISCORD_TO_C_TOL and hi - lo <= DISCORD_TO_C_TOL:
            break
        if value < d:
            lo = mid
        else:
            hi = mid
    return mid


# a bisection decision whose residual lies this close to 0 or to tol may flip
# when np.log2 and math.log2 differ in the last ulp
_RESIDUAL_GUARD = 1e-12


def discord_to_c_array(d: np.ndarray) -> np.ndarray:
    """``discord_to_c`` over a 1-D array of targets, bit for bit.

    Runs the plain bisection step for step on every target at once, with the
    same arithmetic order and ``np.log2`` in place of ``math.log2``.  The two
    logarithms may differ in the last ulp, which can only matter where a
    residual |D(mid) - d| comes within ``_RESIDUAL_GUARD`` of 0 or of
    ``DISCORD_TO_C_TOL``; such targets are solved again by the scalar
    ``discord_to_c``.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise ValueError(f"discord targets must form a 1-D array, got shape {d.shape}")
    outside = ~((d >= 0.0) & (d <= 1.0))
    if outside.any():
        raise ValueError(
            f"discord target {d[outside][0]} lies outside the attainable range [0, 1]"
        )
    c = np.where(d == 1.0, 1.0, 0.0)
    recheck = np.zeros(d.shape, dtype=bool)
    index = np.flatnonzero((d > 0.0) & (d < 1.0))
    target = d[index]
    lo = np.zeros(index.size)
    hi = np.ones(index.size)
    mid = np.full(index.size, 0.5)
    tol = DISCORD_TO_C_TOL
    for _ in range(200):
        if index.size == 0:
            break
        mid = 0.5 * (lo + hi)
        value = (
            0.25 * _xlog2_array(1.0 - mid)
            - 0.5 * _xlog2_array(1.0 + mid)
            + 0.25 * _xlog2_array(1.0 + 3.0 * mid)
        )
        residual = np.abs(value - target)
        recheck[index] |= (residual < _RESIDUAL_GUARD) | (np.abs(residual - tol) < _RESIDUAL_GUARD)
        done = (residual <= tol) & (hi - lo <= tol)
        c[index[done]] = mid[done]
        below = value < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        going = ~done
        index, target, lo, hi, mid = index[going], target[going], lo[going], hi[going], mid[going]
    c[index] = mid
    for i in np.flatnonzero(recheck):
        c[i] = discord_to_c(float(d[i]))
    return c


def classify_correlations(c: float) -> CorrelationClass:
    """Correlation regime of the Werner state: classical, discordant, entangled."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"Werner parameter c = {c} lies outside [0, 1]")
    if c <= CLASS_BOUNDARY_TOL:
        return CorrelationClass.CLASSICAL
    if c <= 1.0 / 3.0 + CLASS_BOUNDARY_TOL:
        return CorrelationClass.DISCORDANT_SEPARABLE
    return CorrelationClass.ENTANGLED
