"""Correlation measures for two-atom states: quantum discord and concurrence.

Every closed form here is paired with an independent numerical route (direct
measurement optimization for discord, the spin-flip eigenvalue construction
for concurrence) so the two can be cross-checked against each other.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from math import log2

import numpy as np

from .qstate import (
    ID2,
    PAULI_Y,
    DensityMatrix,
    partial_trace,
    von_neumann_entropy,
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


def _embed_projectors(projs: np.ndarray, measured: int) -> np.ndarray:
    """Lift a batch of single-atom projectors into the two-atom space."""
    n = projs.shape[0]
    out = np.zeros((n, 4, 4), dtype=complex)
    if measured == 1:
        out[:, 0::2, 0::2] = projs
        out[:, 1::2, 1::2] = projs
    else:
        out[:, :2, :2] = projs
        out[:, 2:, 2:] = projs
    return out


def _conditional_entropy(rho4: np.ndarray, measured: int, thetas, phis) -> np.ndarray:
    """Average post-measurement entropy of the unmeasured atom.

    Vectorized over a batch of measurement directions: for each (theta, phi)
    the Bloch projector is embedded, the state conjugated, the measured atom
    traced out, and the branch entropies weighted by the branch probability.
    Every step acts on each direction alone, so a direction's value does not
    depend on the rest of the batch, bit for bit; ``discord_numeric`` relies
    on that when it batches its scan and its pattern search.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    kets = np.stack(
        [np.cos(thetas / 2.0) + 0.0j, np.sin(thetas / 2.0) * np.exp(1j * phis)],
        axis=-1,
    )
    projs = kets[:, :, None] * kets.conj()[:, None, :]
    total = np.zeros(len(thetas))
    for branch in (projs, ID2[None, :, :] - projs):
        m = _embed_projectors(branch, measured)
        sub = m @ rho4 @ m
        r = sub.reshape(-1, 2, 2, 2, 2)
        reduced = np.einsum("nabac->nbc", r) if measured == 1 else np.einsum("nabcb->nac", r)
        p = np.real(reduced[:, 0, 0] + reduced[:, 1, 1])
        # 2x2 Hermitian spectrum in closed form: mean +/- half-gap
        mean = 0.5 * p
        gap = np.sqrt(
            0.25 * np.real(reduced[:, 0, 0] - reduced[:, 1, 1]) ** 2
            + np.abs(reduced[:, 0, 1]) ** 2
        )
        lam = np.stack([mean + gap, mean - gap], axis=-1)
        safe_p = np.where(p > 1e-15, p, 1.0)
        lam = np.clip(lam / safe_p[:, None], 0.0, None)
        entropy = -np.sum(np.where(lam > 0.0, lam * np.log2(np.where(lam > 0.0, lam, 1.0)), 0.0), axis=-1)
        total += np.where(p > 1e-15, p * entropy, 0.0)
    return total


# measurement directions per _conditional_entropy call in the grid scan
_SCAN_CHUNK = 512
# the pattern search stops once a sweep gains less than DISCORD_TOL, and
# reports unconverged after DISCORD_MAX_DEPTH sweeps
DISCORD_TOL = 1e-8
DISCORD_MAX_DEPTH = 50


def discord_numeric(
    rho: DensityMatrix,
    measured: int = 2,
    grid: int = 64,
) -> DiscordResult:
    """Discord by direct minimization over projective measurements.

    Computes S(rho_measured) - S(rho) + min over rank-one projective
    measurements on atom ``measured`` of the average conditional entropy of
    the other atom.  The minimization runs an exhaustive grid x grid scan
    over the measurement Bloch angles (theta, phi) followed by pattern
    search with step halving; it stops once a sweep improves the objective
    by less than ``DISCORD_TOL``.  Grid ties resolve to the lowest (theta, phi)
    in lexicographic order.

    Returns
    -------
    DiscordResult
        ``converged`` is False if the ``DISCORD_MAX_DEPTH`` sweeps ran out
        before the improvement dropped below ``DISCORD_TOL``.
    """
    if measured not in (1, 2):
        raise ValueError(f"measured atom must be 1 or 2, got {measured}")
    if grid < 2:
        raise ValueError(f"grid resolution must be at least 2, got {grid}")
    if rho.dim != 4:
        raise ValueError("discord needs a two-atom (4x4) state")
    rho4 = rho.mat
    s_total = von_neumann_entropy(rho)
    s_measured = von_neumann_entropy(partial_trace(rho, keep=measured))

    theta_axis = np.linspace(0.0, math.pi, grid)
    phi_axis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    # theta-major layout so the first minimum is the lexicographically lowest
    tt, pp = np.meshgrid(theta_axis, phi_axis, indexing="ij")
    thetas, phis = tt.ravel(), pp.ravel()
    # chunked to bound the complex temporaries; rows do not depend on the chunking
    values = np.concatenate([
        _conditional_entropy(rho4, measured, thetas[i:i + _SCAN_CHUNK], phis[i:i + _SCAN_CHUNK])
        for i in range(0, thetas.size, _SCAN_CHUNK)
    ])
    best = int(np.argmin(values))
    best_f = float(values[best])
    best_t = float(thetas[best])
    best_p = float(phis[best])
    evaluations = grid * grid

    step_t = math.pi / grid
    step_p = 2.0 * math.pi / grid
    converged = False
    for _ in range(DISCORD_MAX_DEPTH):
        before = best_f
        moves = ((step_t, 0.0), (-step_t, 0.0), (0.0, step_p), (0.0, -step_p))
        evaluations += len(moves)
        # Each move steps from the best point so far.  The moves left in the
        # sweep are evaluated in one call; the first that improves is taken and
        # the moves after it are evaluated again from the new point.
        while moves:
            ts = [min(max(best_t + dt, 0.0), math.pi) for dt, _ in moves]
            ps = [(best_p + dp) % (2.0 * math.pi) for _, dp in moves]
            fs = _conditional_entropy(rho4, measured, ts, ps)
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

    value = s_measured - s_total + best_f
    return DiscordResult(value, (best_t, best_p), evaluations, converged)


def concurrence_closed(c: float) -> float:
    """Concurrence of the Werner state: max{0, (3c - 1)/2}."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"Werner parameter c = {c} lies outside [0, 1]")
    return max(0.0, (3.0 * c - 1.0) / 2.0)


_YY = np.kron(PAULI_Y, PAULI_Y)


def concurrence_wootters(rho: DensityMatrix) -> float:
    """Concurrence from the spin-flip construction.

    The eigenvalues l1 >= l2 >= l3 >= l4 of rho (YY) rho* (YY) give
    C = max{0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)}.
    """
    if rho.dim != 4:
        raise ValueError("concurrence needs a two-atom (4x4) state")
    r = rho.mat
    flipped = _YY @ r.conj() @ _YY
    lam = np.sort(np.clip(np.linalg.eigvals(r @ flipped).real, 0.0, None))[::-1]
    roots = np.sqrt(lam)
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


# the top bisection levels of discord_to_c, whose midpoints every target shares
_SHARED_LEVELS = 12
_SHARED_WIDTH = 0.5 ** _SHARED_LEVELS


@functools.cache
def _shared_bisection_tree() -> array:
    """``discord_werner_closed`` at the midpoints of the top ``_SHARED_LEVELS``
    bisection levels of [0, 1], in heap order, built once per process.

    Node n at level i (2^i <= n < 2^(i+1)) holds the midpoint
    (2(n - 2^i) + 1) / 2^(i+1); its children are 2n and 2n + 1.  Index 0 is
    unused.
    """
    tree = array("d", [0.0])
    for level in range(_SHARED_LEVELS):
        width = 0.5 ** (level + 1)
        tree.extend(discord_werner_closed((2 * j + 1) * width) for j in range(2 ** level))
    return tree


def discord_to_c(d: float, tol: float = 1e-9) -> float:
    """Invert the Werner discord curve: the c in [0, 1] whose discord is d.

    Bisection on the monotone closed form; ``tol`` bounds both the bracket
    width in c and the residual in discord.

    The first ``_SHARED_LEVELS`` steps are read from a shared table rather
    than evaluated.  Over those steps every bracket end and midpoint is a
    dyadic rational with at most ``_SHARED_LEVELS + 1`` significant bits, so
    each is the same exact float for every target, and the table holds
    ``discord_werner_closed`` at exactly those midpoints.  The stop test needs
    the bracket width 2^-i at step i to be at most max(tol, 1e-15); while that
    floor lies below 2^-(_SHARED_LEVELS - 1) it cannot fire in those steps,
    so reading the table takes the same branches as evaluating.  A coarser
    ``tol`` may stop earlier and skips the table.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"discord target {d} lies outside the attainable range [0, 1]")
    if d == 0.0:
        return 0.0
    if d == 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    mid = 0.5
    floor = max(tol, 1e-15)
    steps = 200
    if floor < 2.0 * _SHARED_WIDTH:
        tree = _shared_bisection_tree()
        n = 1
        for _ in range(_SHARED_LEVELS):
            n = 2 * n + 1 if tree[n] < d else 2 * n
        lo = (n - 2 ** _SHARED_LEVELS) * _SHARED_WIDTH
        hi = lo + _SHARED_WIDTH
        steps -= _SHARED_LEVELS
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        value = discord_werner_closed(mid)
        if abs(value - d) <= tol and hi - lo <= floor:
            break
        if value < d:
            lo = mid
        else:
            hi = mid
    return mid


# a bisection decision whose residual lies this close to 0 or to tol may flip
# when np.log2 and math.log2 differ in the last ulp
_RESIDUAL_GUARD = 1e-12


def _xlog2_array(x: np.ndarray) -> np.ndarray:
    positive = x > 0.0
    return np.where(positive, x * np.log2(np.where(positive, x, 1.0)), 0.0)


def discord_to_c_array(d: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """``discord_to_c`` over a 1-D array of targets, bit for bit.

    Runs the scalar bisection step for step on every target at once, with the
    same arithmetic order and ``np.log2`` in place of ``math.log2``.  The two
    logarithms may differ in the last ulp, which can only matter where a
    residual |D(mid) - d| comes within ``_RESIDUAL_GUARD`` of 0 or of ``tol``;
    such targets are solved again by the scalar ``discord_to_c``.
    """
    d = np.asarray(d, dtype=float)
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
    floor = max(tol, 1e-15)
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
        done = (residual <= tol) & (hi - lo <= floor)
        c[index[done]] = mid[done]
        below = value < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        going = ~done
        index, target, lo, hi, mid = index[going], target[going], lo[going], hi[going], mid[going]
    c[index] = mid
    for i in np.flatnonzero(recheck):
        c[i] = discord_to_c(float(d[i]), tol)
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
