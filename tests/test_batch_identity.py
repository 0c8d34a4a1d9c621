"""The verify suites share work without changing a bit of any result.

``discord_numerics`` refines the grid optima of all its members with one
array pattern search, and ``discord_numeric`` is its stack of one;
``reference_discord_numeric`` below is the one-move-at-a-time search of one
state they replace, and all three must agree in every field of
``DiscordResult``, with the sweep cap at its default and lowered so that it
stops the search.  They rest on ``_conditional_entropy`` giving each value of
a batch exactly the value of a one-direction call, whether the directions
share one state or each row has its own.
``concurrences_wootters`` gives each member its one-state value.  The
lowering operators are shared read-only constants, and three suites sweep one
shared X-state grid.
"""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corr_radiance import correlations, verify
from corr_radiance.correlations import (
    DiscordResult,
    _conditional_entropy,
    concurrence_wootters,
    concurrences_wootters,
    discord_numeric,
    discord_numerics,
)
from corr_radiance.qstate import (
    ID2,
    LOWERING,
    DensityMatrix,
    XStateParams,
    make_werner,
    make_x_state,
    partial_trace,
    sigma_minus,
    valid_x_params,
)
from test_qstate import reference_entropy


def reference_discord_numeric(rho, measured=2, grid=64, tol=1e-8, max_depth=50):
    """``discord_numeric`` with one call per move, and entropies from
    ``reference_entropy``, which shares no code with ``von_neumann_entropy``."""
    rho4 = rho.mat
    s_total = reference_entropy(rho4)
    s_measured = reference_entropy(partial_trace(rho, keep=measured).mat)
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
    *((f"x {p.cx:g},{p.cy:g},{p.cz:g}", ("x", p)) for p in valid_x_params(0.4)),
    *((f"random {i}", ("random", a)) for i, a in enumerate(random_states(4))),
]
BUILD = {"werner": make_werner, "x": make_x_state, "random": DensityMatrix}


@functools.cache
def stacked_optima(measured: int) -> list[DiscordResult]:
    """``discord_numerics`` of every state of ``STATES`` as one stack."""
    return discord_numerics(np.array([BUILD[kind](value).mat for _, (kind, value) in STATES]), measured)


@pytest.mark.parametrize("measured", [1, 2])
@pytest.mark.parametrize("index", range(len(STATES)), ids=[name for name, _ in STATES])
def test_discord_numeric_equals_the_sequential_search_bit_for_bit(index, measured):
    kind, value = STATES[index][1]
    rho = BUILD[kind](value)
    expected = bits(reference_discord_numeric(rho, measured=measured))
    assert bits(discord_numeric(rho, measured=measured)) == expected
    assert bits(stacked_optima(measured)[index]) == expected


@pytest.mark.parametrize("measured", [1, 2])
def test_the_verify_werner_stack_gives_each_member_its_one_state_optimum(measured):
    cs = verify._werner_grid(0.1)
    results = discord_numerics(verify._werner_stack(cs), measured)
    assert len(results) == len(cs) == 11
    for c, result in zip(cs, results):
        rho = make_werner(c)
        assert bits(result) == bits(discord_numeric(rho, measured)), c
        assert bits(result) == bits(reference_discord_numeric(rho, measured)), c


def test_a_member_s_optimum_does_not_depend_on_the_rest_of_the_stack():
    stack = np.array([BUILD[kind](value).mat for _, (kind, value) in STATES])
    order = np.random.default_rng(3).permutation(len(stack))[:9]
    for measured in (1, 2):
        alone = stacked_optima(measured)
        assert [bits(r) for r in discord_numerics(stack[order], measured)] == [bits(alone[i]) for i in order]


def test_an_empty_stack_has_no_optima_and_a_bad_shape_raises():
    assert discord_numerics(np.zeros((0, 4, 4), dtype=complex), 2) == []
    for shape in ((4, 4), (3, 2, 2), (1, 4, 3)):
        with pytest.raises(ValueError, match="two-atom"):
            discord_numerics(np.zeros(shape, dtype=complex), 2)
    with pytest.raises(ValueError, match="measured atom"):
        discord_numerics(verify._werner_stack([0.5]), 3)


def record_measurement_calls(monkeypatch) -> list[tuple[tuple[int, ...], int]]:
    """The shape of the states and the number of values of each
    ``_conditional_entropy`` call from now on."""
    calls = []
    evaluate = correlations._conditional_entropy

    def recording(rho4, measured, thetas, phis):
        values = evaluate(rho4, measured, thetas, phis)
        calls.append((np.shape(rho4), values.size))
        return values

    monkeypatch.setattr(correlations, "_conditional_entropy", recording)
    return calls


def test_each_member_scans_the_grid_once_and_each_round_holds_four_moves_per_searching_member(monkeypatch):
    calls = record_measurement_calls(monkeypatch)
    stack = np.array([make_x_state(params).mat
                      for params in (XStateParams(-0.8, -0.8, -0.6), XStateParams(-1.0, -0.8, -0.8))])
    discord_numerics(stack, 2)
    assert calls[:2] == [((4, 4), 4096)] * 2
    # every later round: the n members still searching, each with its 4 moves
    members = [shape[0] for shape, _ in calls[2:]]
    assert calls[2:] == [((n, 1, 4, 4), 4 * n) for n in members]
    assert members[0] == 2 and members == sorted(members, reverse=True)


def test_lockstep_rounds_evaluate_the_moves_of_every_member_together(monkeypatch):
    calls = record_measurement_calls(monkeypatch)
    stack = verify._werner_stack(verify._werner_grid(0.1))
    alone = []
    for rho4 in stack:
        calls.clear()
        discord_numeric(DensityMatrix(rho4))
        alone.append([size for _, size in calls if size != 4096])
    calls.clear()
    discord_numerics(stack, 2)
    sizes = [size for _, size in calls]
    # one scan of the whole grid per member, and each round holds the next
    # moves of every member still searching
    assert sizes.count(4096) == 11
    rounds = [size for size in sizes if size != 4096]
    assert len(rounds) == max(map(len, alone))
    assert rounds == [sum(batches[i] for batches in alone if i < len(batches)) for i in range(len(rounds))]


@pytest.mark.parametrize("measured", [1, 2])
@pytest.mark.parametrize("depth", [1, 2, 3, 7])
def test_the_sweep_cap_stops_each_member_where_the_sequential_search_stops(depth, measured, monkeypatch):
    monkeypatch.setattr(correlations, "DISCORD_MAX_DEPTH", depth)
    rhos = [BUILD[kind](value) for _, (kind, value) in STATES]
    results = discord_numerics(np.array([rho.mat for rho in rhos]), measured)
    expected = [reference_discord_numeric(rho, measured, max_depth=depth) for rho in rhos]
    assert [bits(r) for r in results] == [bits(r) for r in expected]
    # the cap stops every member at 1 to 3 sweeps and all but 4 at 7
    assert sum(not r.converged for r in results) == (97 if depth == 7 else len(rhos))


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


# grid X states and full-rank states off the X family, drawn without filtering
row_states = st.one_of(
    st.sampled_from(valid_x_params(0.1)).map(lambda params: make_x_state(params).mat),
    st.integers(0, 2**32 - 1).map(lambda seed: random_states(1, seed)[0]),
)


@settings(max_examples=60, deadline=None, database=None)
@given(
    rows=st.lists(
        st.tuples(row_states, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
        min_size=1,
        max_size=12,
    ),
    more=st.lists(
        st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi, exclude_max=True)), max_size=4
    ),
    measured=st.sampled_from([1, 2]),
)
def test_conditional_entropy_with_a_state_per_row_gives_each_row_its_one_state_value(rows, more, measured):
    states = np.array([rho4 for rho4, _, _ in rows])
    batch = _conditional_entropy(states, measured, [t for _, t, _ in rows], [p for _, _, p in rows])
    assert batch.shape == (len(rows),)
    for value, (rho4, t, p) in zip(batch.tolist(), rows):
        assert value.hex() == float(_conditional_entropy(rho4, measured, t, p)[0]).hex()
    # (k, 1, 4, 4) states against (k, m) angles: row i holds its own
    # direction, then the directions of ``more``
    thetas = np.array([[t, *(t for t, _ in more)] for _, t, _ in rows])
    phis = np.array([[p, *(p for _, p in more)] for _, _, p in rows])
    grid = _conditional_entropy(states[:, None], measured, thetas, phis)
    assert grid.shape == thetas.shape
    for row, rho4, ts, ps in zip(grid.tolist(), states, thetas.tolist(), phis.tolist()):
        assert [v.hex() for v in row] == [float(_conditional_entropy(rho4, measured, t, p)[0]).hex()
                                          for t, p in zip(ts, ps)]


def test_stacked_concurrence_equals_one_state_calls():
    mats = [
        *verify._werner_stack(verify._werner_grid(0.05)),
        *(make_x_state(p).mat for p in valid_x_params(0.4)),
        *random_states(4),
    ]
    singles = [concurrence_wootters(DensityMatrix(a)) for a in mats]
    stacked = concurrences_wootters(np.array(mats))
    assert stacked.shape == (len(singles),)
    assert [v.hex() for v in stacked.tolist()] == [v.hex() for v in singles]
    assert any(v > 0.0 for v in singles) and any(v == 0.0 for v in singles)


def dynamic_arch_openblas() -> bool:
    """numpy's BLAS is an OpenBLAS that picks its kernel at run time, so
    OPENBLAS_CORETYPE can select another one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return False
    return "openblas" in blas.get("name", "").lower() and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def cpu_flags() -> set[str]:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return {flag for line in lines if line.startswith("flags") for flag in line.partition(":")[2].split()}


# the comparisons of stacked and one-state results, rerun under another kernel
KERNEL_CASES = (
    "test_discord_numeric_equals_the_sequential_search_bit_for_bit",
    "test_the_verify_werner_stack_gives_each_member_its_one_state_optimum",
    "test_conditional_entropy_with_a_state_per_row_gives_each_row_its_one_state_value",
    "test_stacked_concurrence_equals_one_state_calls",
)


@pytest.mark.skipif(
    not (dynamic_arch_openblas() and {"avx2", "fma"} <= cpu_flags()),
    reason="needs a DYNAMIC_ARCH OpenBLAS and a CPU with AVX2 and FMA",
)
def test_stacked_and_one_state_results_agree_under_the_haswell_kernel():
    # the discord objective calls no BLAS, but another OpenBLAS kernel may
    # round concurrences_wootters' 4x4 product or the LAPACK eigenvalue calls
    # (eigvalsh, eigvals) differently, so the bit-for-bit comparisons run
    # again under Haswell's, the kernel of AVX2 machines; a CPU without AVX2
    # and FMA cannot run it
    src = Path(correlations.__file__).resolve().parents[1]
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Haswell",
        "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))),
    }
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", " or ".join(KERNEL_CASES)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    assert " passed" in run.stdout.splitlines()[-1]


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
    fresh = [make_x_state(p) for p in valid_x_params()]
    assert isinstance(grid, np.ndarray) and grid.shape == (len(fresh), 4, 4) == (3101, 4, 4)
    assert not grid.flags.writeable
    for shared, built in zip(grid, fresh):
        assert shared.tobytes() == built.mat.tobytes()
    assert verify._x_state_grid() is grid
