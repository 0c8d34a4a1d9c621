"""The verify suites share work without changing a bit of any result.

``discord_numeric`` evaluates its grid scan in chunks and its pattern search
in batches; ``reference_discord_numeric`` below is the one-move-at-a-time,
one-call scan it replaces, and the two must agree in every field of
``DiscordResult``.  Both rest on ``_conditional_entropy`` giving each row of a
batch exactly the value of a one-row call.  The lowering operators are shared
read-only constants, and three suites sweep one shared X-state grid.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corr_radiance import correlations, verify
from corr_radiance.correlations import DiscordResult, _conditional_entropy, discord_numeric
from corr_radiance.qstate import (
    ID2,
    LOWERING,
    DensityMatrix,
    XStateParams,
    make_werner,
    make_x_state,
    partial_trace,
    sigma_minus,
    von_neumann_entropy,
)


def reference_discord_numeric(rho, measured=2, grid=64, tol=1e-8, max_depth=50):
    """``discord_numeric`` with one unchunked scan and one call per move."""
    rho4 = rho.mat
    s_total = von_neumann_entropy(rho)
    s_measured = von_neumann_entropy(partial_trace(rho, keep=measured))
    theta_axis = np.linspace(0.0, math.pi, grid)
    phi_axis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    tt, pp = np.meshgrid(theta_axis, phi_axis, indexing="ij")
    values = _conditional_entropy(rho4, measured, tt.ravel(), pp.ravel())
    best = int(np.argmin(values))
    best_f = float(values[best])
    best_t = float(tt.ravel()[best])
    best_p = float(pp.ravel()[best])
    evaluations = grid * grid
    step_t = math.pi / grid
    step_p = 2.0 * math.pi / grid
    converged = False
    for _ in range(max_depth):
        before = best_f
        for dt, dp in ((step_t, 0.0), (-step_t, 0.0), (0.0, step_p), (0.0, -step_p)):
            t = min(max(best_t + dt, 0.0), math.pi)
            p = (best_p + dp) % (2.0 * math.pi)
            f = float(_conditional_entropy(rho4, measured, t, p)[0])
            evaluations += 1
            if f < best_f:
                best_f, best_t, best_p = f, t, p
        gain = before - best_f
        if gain > 0.0:
            if gain < tol:
                converged = True
                break
        else:
            step_t *= 0.5
            step_p *= 0.5
            if step_t < 1e-9:
                converged = True
                break
    return DiscordResult(s_measured - s_total + best_f, (best_t, best_p), evaluations, converged)


def bits(result: DiscordResult) -> tuple:
    return (
        result.value.hex(),
        result.optimizer_angles[0].hex(),
        result.optimizer_angles[1].hex(),
        result.iterations,
        result.converged,
    )


def random_states(count: int, seed: int = 7) -> list[np.ndarray]:
    """Full-rank states off the X family: their optima lie off the grid axes,
    so one sweep can have several improving moves."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = z @ z.conj().T
        states.append(a / np.trace(a).real)
    return states


STATES = [
    *((f"werner c={c:.2f}", ("werner", float(c))) for c in np.linspace(0.0, 1.0, 21)),
    *((f"x {p.cx:g},{p.cy:g},{p.cz:g}", ("x", p)) for p in verify.valid_x_params(0.4)),
    *((f"random {i}", ("random", a)) for i, a in enumerate(random_states(4))),
]
BUILD = {"werner": make_werner, "x": make_x_state, "random": DensityMatrix}


@pytest.mark.parametrize("measured", [1, 2])
@pytest.mark.parametrize("spec", [s for _, s in STATES], ids=[name for name, _ in STATES])
def test_discord_numeric_equals_the_sequential_search_bit_for_bit(spec, measured):
    kind, value = spec
    rho = BUILD[kind](value)
    assert bits(discord_numeric(rho, measured=measured)) == bits(
        reference_discord_numeric(rho, measured=measured)
    )


def test_the_cases_reach_every_batch_size(monkeypatch):
    # a batch of fewer than 4 moves is the re-evaluation after an accepted move
    sizes = set()
    evaluate = correlations._conditional_entropy

    def recording(rho4, measured, thetas, phis):
        values = evaluate(rho4, measured, thetas, phis)
        sizes.add(values.size)
        return values

    monkeypatch.setattr(correlations, "_conditional_entropy", recording)
    for params in (XStateParams(-0.6, -0.6, -0.2), XStateParams(-1.0, -0.6, -0.6)):
        discord_numeric(make_x_state(params))
    assert sizes == {1, 2, 3, 4, 512}


@st.composite
def x_params(draw):
    cx, cy, cz = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    try:
        return XStateParams(cx, cy, cz)
    except ValueError:
        assume(False)


@settings(max_examples=60, deadline=None, database=None)
@given(
    params=x_params(),
    measured=st.sampled_from([1, 2]),
    angles=st.lists(
        st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
        min_size=1,
        max_size=40,
    ),
)
def test_conditional_entropy_rows_are_batch_invariant(params, measured, angles):
    rho4 = make_x_state(params).mat
    thetas = [t for t, _ in angles]
    phis = [p for _, p in angles]
    batch = _conditional_entropy(rho4, measured, thetas, phis)
    assert batch.shape == (len(angles),)
    for i, (t, p) in enumerate(angles):
        alone = _conditional_entropy(rho4, measured, t, p)
        assert float(batch[i]).hex() == float(alone[0]).hex()


def test_a_full_scan_equals_its_chunks():
    rho4 = make_x_state(XStateParams(0.3, -0.5, 0.1)).mat
    tt, pp = np.meshgrid(np.linspace(0.0, math.pi, 64),
                         np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False), indexing="ij")
    thetas, phis = tt.ravel(), pp.ravel()
    for measured in (1, 2):
        whole = _conditional_entropy(rho4, measured, thetas, phis)
        for chunk in (7, 512, 1000):
            parts = np.concatenate([
                _conditional_entropy(rho4, measured, thetas[i:i + chunk], phis[i:i + chunk])
                for i in range(0, thetas.size, chunk)
            ])
            assert np.array_equal(parts.view(np.int64), whole.view(np.int64))


def test_sigma_minus_is_the_kron_product_and_read_only():
    for j, expected in ((1, np.kron(LOWERING, ID2)), (2, np.kron(ID2, LOWERING))):
        op = sigma_minus(j)
        assert op.dtype == expected.dtype and np.array_equal(op, expected)
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
        assert sigma_minus(j) is op
    assert sigma_minus(1) is not sigma_minus(2)


def test_shared_grid_equals_freshly_built_states():
    grid = verify._x_state_grid()
    fresh = [make_x_state(p) for p in verify.valid_x_params()]
    assert isinstance(grid, tuple) and len(grid) == len(fresh) == 3101
    for shared, built in zip(grid, fresh):
        assert isinstance(shared, DensityMatrix)
        assert np.array_equal(shared.mat, built.mat)
        assert not shared.mat.flags.writeable
    assert verify._x_state_grid() is grid
