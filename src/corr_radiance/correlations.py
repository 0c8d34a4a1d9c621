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
from math import log1p, log2, sqrt

import numpy as np

from .qstate import (
    PAULI_Y,
    PAULIS,
    DensityMatrix,
    partial_traces,
    two_atom_stack,
    von_neumann_entropy,
    xlog2,
)

@dataclass(frozen=True)
class DiscordResult:
    """Discord value with the minimizing measurement angles on the Bloch sphere."""

    value: float
    optimizer_angles: tuple[float, float]
    iterations: int
    converged: bool


_LN2 = math.log(2.0)
# ln 2 D(c) = sum over n >= 2 of a_n c^n, a_n = [1/4 - 1/2 (-1)^n + 1/4 (-3)^n]/(n(n - 1)),
# the Taylor series of the closed form's three x ln x terms, whose sum cancels
# to order c^2; below _SERIES_BOUND each term is under 3c < 0.15 times the one
# before, so 22 terms reach the double's resolution.  Stored divided by ln 2,
# highest power first for Horner's rule.
_SERIES_BOUND = 0.05
_SERIES = tuple(
    (0.25 - 0.5 * (-1) ** n + 0.25 * (-3) ** n) / (n * (n - 1)) / _LN2
    for n in range(23, 1, -1)
)


def discord_werner_closed(c: float) -> float:
    """Quantum discord of the Werner state with mixing parameter c, in bits.

    The closed form (1-c)/4 log2(1-c) - (1+c)/2 log2(1+c) + (1+3c)/4 log2(1+3c);
    below c = 0.05, where its terms cancel to about c^2 / ln 2, its Taylor
    series instead, which keeps the relative error near 1e-16 down to where
    c^2 underflows.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"Werner parameter c = {c} lies outside [0, 1]")
    if c < _SERIES_BOUND:
        s = 0.0
        for a in _SERIES:
            s = s * c + a
        return c * (c * s)
    # 1 + c and 1 + 3c are at least 1; only 1 - c reaches 0, where x log2 x -> 0.
    # libm's log2, not qstate.xlog2: numpy's log2 moves in the last ulp with SIMD off
    a, b, e = 1.0 - c, 1.0 + c, 1.0 + 3.0 * c
    return 0.25 * (a * log2(a) if a > 0.0 else 0.0) - 0.5 * (b * log2(b)) + 0.25 * (e * log2(e))


# each (sigma_i x sigma_j)^T, with sigma_0 = I: tr(rho A) is the sum of the
# elementwise product of rho and A^T
_PAULI_PAIRS_T = np.array([[np.kron(s, t).T for t in PAULIS] for s in PAULIS])


def _conditional_entropy(rho4: np.ndarray, measured: int, thetas, phis) -> np.ndarray:
    """Average post-measurement entropy of the unmeasured atom, one value per
    measurement direction (theta, phi) of atom ``measured``.

    ``rho4`` is a (..., 4, 4) array of states whose leading shape broadcasts
    against the directions' shape, as numpy broadcasts: one (4, 4) state is
    shared by every direction, an (n, 4, 4) stack gives each of n directions
    its own state, and a (k, 1, 4, 4) stack against (k, m) angles gives each
    row its state.  In the Pauli coefficients
    c_ij = tr(rho sigma_i x sigma_j), with a the unmeasured atom's Bloch
    vector, b the measured atom's and T their correlation matrix (unmeasured
    x measured), the outcome +-n has probability p = (1 +- b.n)/2 and leaves
    the eigenvalues 1/2 +- |a +- T n|/(4p) (Luo, PRA 77, 042303).  Every step
    is an elementwise real ufunc on each value alone, written out term by
    term, so a value does not depend on the rest of the batch, bit for bit;
    ``discord_numerics`` relies on that when it evaluates the moves of all
    its members in one call.
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
    total = np.zeros(b_n.shape)
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * b_n)
        v1, v2, v3 = (a[i] + sign * t_n[i] for i in range(3))
        live = p > 1e-15
        half_gap = np.sqrt(v1 * v1 + v2 * v2 + v3 * v3) / (4.0 * np.where(live, p, 1.0))
        entropy = -(xlog2(0.5 + half_gap) + xlog2(0.5 - half_gap))
        total += np.where(live, p * entropy, 0.0)
    return total


# discord_numeric scans a DISCORD_GRID x DISCORD_GRID grid of Bloch angles;
# its pattern search stops once a sweep gains less than DISCORD_TOL, and
# reports unconverged after DISCORD_MAX_DEPTH sweeps
DISCORD_GRID = 64
DISCORD_TOL = 1e-8
DISCORD_MAX_DEPTH = 50


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
    ``_minimize`` runs the measurement searches of all members together."""
    if measured not in (1, 2):
        raise ValueError(f"measured atom must be 1 or 2, got {measured}")
    states = two_atom_stack(stack, "discord")
    s_total = von_neumann_entropy(states).tolist()
    s_measured = von_neumann_entropy(partial_traces(states, measured)).tolist()
    optima = zip(*(a.tolist() for a in _minimize(states, measured)))
    return [
        DiscordResult(s_m - s_t + f, (t, p), DISCORD_GRID * DISCORD_GRID + 4 * sweeps, converged)
        for s_m, s_t, (f, t, p, sweeps, converged) in zip(s_measured, s_total, optima)
    ]


# the moves of a sweep in the order they are tried, in units of (step_t, step_p)
_MOVES_T = np.array([1.0, -1.0, 0.0, 0.0])
_MOVES_P = np.array([0.0, 0.0, 1.0, -1.0])


def _minimize(states: np.ndarray, measured: int):
    """The arrays ``f, t, p, sweeps, converged``: the least conditional
    entropy of each member of ``states`` found, its angles (theta, phi), the
    sweeps of its pattern search and whether that search converged.

    Each member's grid scan is one ``_conditional_entropy`` call; a (k, 4096)
    call for the whole stack would hold k times its temporaries.  The
    pattern searches from the grid optima then run together.  A sweep tries
    the four moves in turn, each from the best point so far, and takes every
    one that improves.  Each round evaluates the four moves from the best
    point of every member still searching (``live``) in one call, and each
    member takes its first improving move at or after ``first``, the first
    move not yet tried in this sweep: the path of trying one move at a
    time.  The sweep ends where no move from ``first`` on improves or the
    last move did.
    """
    theta_axis = np.linspace(0.0, math.pi, DISCORD_GRID)
    phi_axis = np.linspace(0.0, 2.0 * math.pi, DISCORD_GRID, endpoint=False)
    # theta-major layout so the first minimum is the lexicographically lowest
    tt, pp = np.meshgrid(theta_axis, phi_axis, indexing="ij")
    thetas, phis = tt.ravel(), pp.ravel()
    f = np.empty(len(states))
    k = np.empty(len(states), dtype=int)
    for j, rho4 in enumerate(states):
        values = _conditional_entropy(rho4, measured, thetas, phis)
        k[j] = np.argmin(values)
        f[j] = values[k[j]]
    t, p = thetas[k], phis[k]
    step_t = np.full(f.shape, math.pi / DISCORD_GRID)
    step_p = np.full(f.shape, 2.0 * math.pi / DISCORD_GRID)
    sweeps = np.zeros(f.shape, dtype=int)
    first = np.zeros(f.shape, dtype=int)
    before = f.copy()
    converged = np.zeros(f.shape, dtype=bool)
    live = sweeps < DISCORD_MAX_DEPTH
    while live.any():
        j = np.flatnonzero(live)
        ts = np.clip(t[j, None] + step_t[j, None] * _MOVES_T, 0.0, math.pi)
        ps = (p[j, None] + step_p[j, None] * _MOVES_P) % (2.0 * math.pi)
        fs = _conditional_entropy(states[j, None], measured, ts, ps)
        better = (fs < f[j, None]) & (np.arange(4) >= first[j, None])
        # the index of the move taken, 4 where none improves
        move = np.where(better.any(axis=1), better.argmax(axis=1), 4)
        taken = np.flatnonzero(move < 4)
        f[j[taken]] = fs[taken, move[taken]]
        t[j[taken]] = ts[taken, move[taken]]
        p[j[taken]] = ps[taken, move[taken]]
        first[j] = move + 1
        end = j[move >= 3]
        gain = before[end] - f[end]
        halve = end[~(gain > 0.0)]
        step_t[halve] *= 0.5
        step_p[halve] *= 0.5
        sweeps[end] += 1
        converged[end] = np.where(gain > 0.0, gain < DISCORD_TOL, step_t[end] < 1e-9)
        live[end] = ~converged[end] & (sweeps[end] < DISCORD_MAX_DEPTH)
        before[end] = f[end]
        first[end] = 0
    return f, t, p, sweeps, converged


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


# discord_to_c starts from a table of the closed form at multiples of this width
_TABLE_WIDTH = 2.0 ** -12


@functools.cache
def _discord_table() -> array:
    """``discord_werner_closed`` at k ``_TABLE_WIDTH`` for k = 1 ... 4095, in
    ascending order, built once per process.  The values strictly increase."""
    return array(
        "d", (discord_werner_closed(k * _TABLE_WIDTH) for k in range(1, round(1.0 / _TABLE_WIDTH)))
    )


_SQRT_LN2 = math.sqrt(_LN2)
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _discord_slope(c: float) -> float:
    """D'(c) = [3 ln(1 + 3c) - ln(1 - c) - 2 ln(1 + c)] / (4 ln 2) for c < 1,
    as one ``log1p`` of (1 + 3c)^3 / ((1 - c)(1 + c)^2) - 1, whose numerator
    4c(2 + 7c + 7c^2) has no cancellation: about 2c / ln 2 near c = 0."""
    b = 1.0 + c
    return log1p(4.0 * c * (2.0 + 7.0 * c * b) / ((1.0 - c) * (b * b))) / (4.0 * _LN2)


def discord_to_c(d: float) -> float:
    """Invert the Werner discord curve: the c in [0, 1] whose discord is d.

    Newton's method on ``discord_werner_closed(c) - d``.  D is increasing and
    convex on [0, 1] (D'' > 3/2), so from a start below the root the first
    step lands at or above it.  Each later step divides by the slope at that
    landing point, at least D' anywhere below it, so it lowers c toward the
    root and never past it.  The iteration returns the first c that a step
    does not lower: it needs no tolerance.  The first step is clamped to the
    root's cell of ``_discord_table`` and below c = 1, where D' diverges.

    The start is the chord of that cell, below the root as D is convex.  In
    the first cell, where ln 2 D = c^2 (1 - c + ...), it is sqrt(d ln 2)
    instead, below the root by a factor 1 - c/2 + ....  For a subnormal d,
    D rounds to d itself about the root, so no step moves that start.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"discord target {d} lies outside the attainable range [0, 1]")
    if d == 0.0:
        return 0.0
    if d == 1.0:
        return 1.0
    table = _discord_table()
    k = bisect_left(table, d)
    lo = k * _TABLE_WIDTH
    hi = lo + _TABLE_WIDTH
    if k == 0:
        x = sqrt(d) * _SQRT_LN2
    elif k < len(table):
        x = lo + (d - table[k - 1]) / (table[k] - table[k - 1]) * _TABLE_WIDTH
    else:
        # the last cell ends at c = 1, where the closed form is 1 and D'
        # diverges; its chord can round up to c = 1
        hi = _BELOW_ONE
        x = min(lo + (d - table[-1]) / (1.0 - table[-1]) * _TABLE_WIDTH, hi)
    x -= (discord_werner_closed(x) - d) / _discord_slope(x)
    if x > hi:
        x = hi
    slope = _discord_slope(x)
    while True:
        lower = x - (discord_werner_closed(x) - d) / slope
        if not lower < x:
            return x
        x = lower
