"""Density matrices are validated as stacks, with nothing skipped.

``validate_density`` takes one matrix or a (k, n, n) stack, and a stack must
give each member exactly the result of validating it alone, and of
``reference_validate`` below, the one-matrix-at-a-time check it replaces.
``x_states`` and ``partial_traces`` return one read-only stack validated in
one call, every other constructor validates its one matrix once, and the
verify suites that sweep the X-state grid must validate every grid state and
every reduced state while returning the results of the per-matrix loops they
replace (``reference_*`` below).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corr_radiance import qstate, verify
from corr_radiance.qstate import (
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    TRACE_TOL,
    DensityCheck,
    DensityMatrix,
    XStateParams,
    make_x_state,
    partial_trace,
    partial_traces,
    valid_x_coefficients,
    valid_x_params,
    validate_density,
    x_states,
)

GRID_SIZE = 3101  # states in valid_x_params() at the 0.1 step


def reference_validate(a):
    """The per-matrix check: one trace, one adjoint and one eigvalsh call."""
    trace_dev = float(abs(a.trace() - 1.0))
    herm_dev = float(np.max(np.abs(a - a.conj().T)))
    min_eig = float(np.linalg.eigvalsh((a + a.conj().T) / 2.0).min())
    passed = trace_dev <= TRACE_TOL and herm_dev <= HERMITICITY_TOL and min_eig >= EIGENVALUE_FLOOR
    return DensityCheck(trace_dev, herm_dev, min_eig, passed)


def reference_x_state(p):
    """The X-state matrix, assembled literally one state at a time."""
    cx, cy, cz = p.cx, p.cy, p.cz
    return np.array(
        [
            [1.0 + cz, 0.0, 0.0, cx - cy],
            [0.0, 1.0 - cz, cx + cy, 0.0],
            [0.0, cx + cy, 1.0 - cz, 0.0],
            [cx - cy, 0.0, 0.0, 1.0 + cz],
        ],
        dtype=complex,
    ) / 4.0


def reference_state(mat):
    """A validated state built from one matrix, raising as a constructor does."""
    assert reference_validate(mat).passed
    return mat


def reference_partial_trace(mat, keep):
    r = mat.reshape(2, 2, 2, 2)
    return reference_state(np.einsum("abcb->ac" if keep == 1 else "abac->bc", r))


def reference_grid():
    return [reference_state(reference_x_state(p)) for p in valid_x_params()]


def reference_x_state_validity(grid, tol_scale):
    dev = 0.0
    for mat in grid:
        check = reference_validate(mat)
        dev = max(dev, check.trace_deviation, check.hermiticity_deviation, max(0.0, -check.min_eigenvalue))
        if not check.passed:
            dev = max(dev, 1.0)
    return verify._result("x-state validity on 0.1-step grid", dev, 1e-10, tol_scale)


def reference_marginals(grid, tol_scale):
    half = np.eye(2) / 2.0
    dev = 0.0
    for mat in grid:
        for keep in (1, 2):
            dev = max(dev, float(np.max(np.abs(reference_partial_trace(mat, keep) - half))))
    return verify._result("reduced states are maximally mixed", dev, 1e-12, tol_scale)


def reference_excitation(grid, tol_scale):
    number = np.diag([2.0, 1.0, 1.0, 0.0]).astype(complex)
    dev = max(abs(float(np.real(np.trace(number @ mat))) - 1.0) for mat in grid)
    return verify._result("one excitation shared between the atoms", dev, 1e-12, tol_scale)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_same_checks(stacked, singles):
    for field in ("trace_deviation", "hermiticity_deviation", "min_eigenvalue"):
        assert bits(getattr(stacked, field)) == bits([getattr(s, field) for s in singles]), field
    assert stacked.passed.tolist() == [s.passed for s in singles]


# -- random candidates: valid states and each way of failing ------------------

KINDS = ("valid", "trace", "hermiticity", "negative")


@st.composite
def candidates(draw, n):
    """An n x n matrix of a drawn kind: a density matrix, or one that misses
    unit trace, Hermiticity or positivity (by a margin that may be tiny)."""
    kind = draw(st.sampled_from(KINDS))
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    z = np.array([[complex(draw(parts), draw(parts)) for _ in range(n)] for _ in range(n)])
    u = np.linalg.qr(z + 2.0 * np.eye(n))[0]  # the shift keeps z + 2I invertible
    lam = np.array([draw(st.floats(0.0, 1.0)) for _ in range(n)])
    lam = lam / lam.sum() if lam.sum() > 0.0 else np.full(n, 1.0 / n)
    if kind == "negative":
        shift = lam[0] + draw(st.floats(1e-12, 1.0))
        lam[0] -= shift
        lam[1:] += shift / (n - 1)
    mat = (u * lam) @ u.conj().T
    size = draw(st.floats(1e-14, 0.5))
    if kind == "trace":
        mat = mat + size * np.eye(n)
    elif kind == "hermiticity":
        mat[0, n - 1] += size * 1j
    return mat


@st.composite
def stacks(draw):
    n = draw(st.sampled_from([2, 4]))
    k = draw(st.integers(1, 8))
    return np.array([draw(candidates(n)) for _ in range(k)])


@settings(max_examples=300, deadline=None, database=None)
@given(stack=stacks())
def test_a_stack_gives_each_member_its_own_result(stack):
    stacked = validate_density(stack)
    singles = [validate_density(mat) for mat in stack]
    assert_same_checks(stacked, singles)
    assert_same_checks(stacked, [reference_validate(mat) for mat in stack])
    for single in singles:
        assert type(single.trace_deviation) is float and type(single.passed) is bool
    for field in ("trace_deviation", "hermiticity_deviation", "min_eigenvalue", "passed"):
        assert getattr(stacked, field).shape == (len(stack),)


@settings(max_examples=100, deadline=None, database=None)
@given(stack=stacks())
def test_a_stack_is_accepted_exactly_when_every_member_passes(stack):
    # _frozen_valid is the one validation step of every stack constructor
    check = validate_density(stack)
    if check.passed.all():
        frozen = qstate._frozen_valid(stack.astype(complex))
        assert frozen.tobytes() == stack.astype(complex).tobytes()
        assert not frozen.flags.writeable
    else:
        first = int(np.flatnonzero(~check.passed)[0])
        with pytest.raises(ValueError, match=rf"invalid density matrix at index {first}: trace deviation"):
            qstate._frozen_valid(stack.astype(complex))


def test_validate_density_rejects_what_is_not_a_matrix_or_a_stack():
    for shape in [(4,), (2, 3), (3, 2, 3), (2, 2, 2, 2), (0, 0), (3, 0, 0)]:
        with pytest.raises(ValueError, match="square matrix"):
            validate_density(np.zeros(shape))


def test_an_empty_stack_has_empty_checks():
    check = validate_density(np.zeros((0, 4, 4)))
    assert check.min_eigenvalue.shape == (0,) and check.passed.all()
    assert x_states([]).shape == (0, 4, 4)
    assert partial_traces(np.zeros((0, 4, 4)), 1).shape == (0, 2, 2)


# -- the stack constructor -----------------------------------------------------


def good_stack():
    return np.array(x_states([(0.1 * i, -0.05 * i, 0.02 * i) for i in range(6)]))


@pytest.mark.parametrize("bad", [0, 3, 5])
@pytest.mark.parametrize("defect", KINDS[1:])
def test_partial_traces_names_the_bad_member(bad, defect):
    stack = good_stack()
    if defect == "trace":
        stack[bad] *= 1.1
    elif defect == "hermiticity":
        # |ee><ge| survives the trace over atom 2 as |e><g| of atom 1
        stack[bad, 0, 2] += 0.01
    else:
        stack[bad] = np.diag([0.6, 0.5, 0.0, -0.1])
    with pytest.raises(ValueError, match=rf"invalid density matrix at index {bad}: trace deviation .*, hermiticity deviation .*, minimum eigenvalue"):
        partial_traces(stack, 1)


def test_one_matrix_is_rejected_without_an_index():
    with pytest.raises(ValueError, match=r"^invalid density matrix: trace deviation 0\.1,"):
        DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.1]))


def test_stacks_cannot_be_made_writable_and_own_their_data():
    stack = good_stack()
    built = x_states([(0.1 * i, -0.05 * i, 0.02 * i) for i in range(6)])
    reduced = partial_traces(stack, 2)
    for out in (built, reduced):
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out.setflags(write=True)
        with pytest.raises(ValueError):
            out[0, 0, 0] = 9.0
    held = (verify._x_state_grid(), make_x_state(XStateParams(0.1, 0.2, 0.3)).mat,
            partial_trace(DensityMatrix(stack[0]), 1).mat)
    for out in held:
        with pytest.raises(ValueError):
            out.setflags(write=True)
    assert np.array_equal(built, stack)
    before = reduced.copy()
    stack[:] = 0.0  # the caller's array stays the caller's
    assert np.array_equal(reduced, before)


def test_make_x_state_equals_its_row_of_the_stack():
    params = valid_x_params(step=0.25)
    stack = x_states(valid_x_coefficients(step=0.25))
    assert stack.shape == (len(params), 4, 4) and not stack.flags.writeable
    for p, row in zip(params, stack):
        single = make_x_state(p).mat
        assert single.tobytes() == row.tobytes()
        assert single.tobytes() == reference_x_state(p).tobytes()
        assert not single.flags.writeable


def test_stacked_partial_traces_equal_one_state_at_a_time():
    stack = verify._x_state_grid()
    rng = np.random.default_rng(5)
    z = rng.normal(size=(16, 4, 4)) + 1j * rng.normal(size=(16, 4, 4))
    mixed = z @ z.conj().swapaxes(1, 2)
    mixed /= np.trace(mixed, axis1=1, axis2=2)[:, None, None]
    for states in (stack, mixed):
        for keep in (1, 2):
            reduced = partial_traces(states, keep)
            assert reduced.shape == (len(states), 2, 2) and not reduced.flags.writeable
            for mat, part in zip(states, reduced):
                assert part.tobytes() == reference_partial_trace(mat, keep).tobytes()
                assert part.tobytes() == partial_trace(DensityMatrix(mat), keep).mat.tobytes()


def test_partial_traces_rejects_bad_arguments():
    with pytest.raises(ValueError, match="4x4"):
        partial_traces(np.eye(2)[None] / 2.0, 1)
    with pytest.raises(ValueError, match="keep"):
        partial_traces(good_stack(), 3)


@pytest.mark.parametrize("keep", [1, 2])
def test_partial_traces_names_the_first_invalid_reduced_state(keep):
    stack = good_stack()
    stack[2] *= 1.1
    stack[4] *= 1.1
    with pytest.raises(ValueError, match=r"invalid density matrix at index 2: trace deviation 0\.1,"):
        partial_traces(stack, keep)


# -- no check is skipped, and the suites' results are unchanged ---------------


def test_shared_grid_is_one_read_only_stack():
    grid = verify._x_state_grid()
    assert type(grid) is np.ndarray and grid.dtype == complex
    assert grid.shape == (GRID_SIZE, 4, 4) and not grid.flags.writeable
    assert verify._x_state_grid() is grid


def counting_validations(monkeypatch):
    """Patch ``validate_density`` where qstate and verify look it up; the
    returned list gets the number of matrices of each call."""
    sizes = []

    def counting(mat):
        a = np.asarray(mat)
        sizes.append(1 if a.ndim == 2 else len(a))
        return validate_density(mat)

    monkeypatch.setattr(qstate, "validate_density", counting)
    monkeypatch.setattr(verify, "validate_density", counting)
    return sizes


@pytest.mark.parametrize("name", ["make_x_state", "partial_trace", "x_states", "partial_traces"])
def test_each_constructor_validates_once(monkeypatch, name):
    params = valid_x_coefficients(step=0.4)
    rho, stack = make_x_state(XStateParams(*params[0])), x_states(params)
    build, size = {
        "make_x_state": (lambda: make_x_state(XStateParams(*params[0])), 1),
        "partial_trace": (lambda: partial_trace(rho, 2), 1),
        "x_states": (lambda: x_states(params), len(params)),
        "partial_traces": (lambda: partial_traces(stack, 1), len(params)),
    }[name]
    sizes = counting_validations(monkeypatch)
    build()
    assert sizes == [size]


def test_run_all_validates_every_grid_and_reduced_state(monkeypatch):
    sizes = counting_validations(monkeypatch)
    verify._x_state_grid.cache_clear()
    try:
        results = verify.run_all()
    finally:
        verify._x_state_grid.cache_clear()
    assert all(r.passed for r in results)
    # the grid build, the explicit validity check and the two reduced stacks
    assert sum(sizes) >= GRID_SIZE + GRID_SIZE + 2 * GRID_SIZE
    assert sizes.count(GRID_SIZE) == 4
    assert len(sizes) < 200


@pytest.fixture(scope="module")
def grid():
    return reference_grid()


@pytest.mark.parametrize("tol_scale", [1.0, 0.0])
@pytest.mark.parametrize(
    "suite, reference",
    [
        (verify.suite_x_state_validity, reference_x_state_validity),
        (verify.suite_marginals, reference_marginals),
        (verify.suite_excitation, reference_excitation),
    ],
)
def test_grid_suites_equal_the_per_matrix_loops(grid, suite, reference, tol_scale):
    # run_all's rescaling of the suite's own result
    own = suite()
    got = verify._result(own.name, own.max_deviation, own.tolerance, tol_scale)
    want = reference(grid, tol_scale)
    assert got == want
    assert got.max_deviation.hex() == want.max_deviation.hex()


def test_grid_suites_fail_when_a_grid_state_is_invalid(monkeypatch):
    stack = np.array(verify._x_state_grid())
    stack[7, 0, 0] += 1e-6
    monkeypatch.setattr(verify, "_x_state_grid", lambda: stack)
    result = verify.suite_x_state_validity()
    assert not result.passed and result.max_deviation == 1.0
    with pytest.raises(ValueError, match="at index 7:"):
        verify.suite_marginals()
