"""Stack scans run in chunks of ``qstate._STACK_CHUNK`` members.

``validate_density`` and ``excitation_probabilities`` take a (k, 4, 4) stack
1,024 states at a time, so that each temporary stays within 256 KiB.  The
chunks must not show: at every chunk edge each member's fields equal those
of checking it alone, bit for bit, and a failure names the index of its
member in the whole stack.
"""

import numpy as np
import pytest

from corr_radiance import qstate, verify
from corr_radiance.qstate import validate_density
from test_stack_validation import GRID_SIZE, assert_same_checks, bits, reference_validate


def chunk_edge_stack(k):
    """The first k X-grid states (which pass) with every third replaced by a
    generic complex matrix (which fails on every count)."""
    rng = np.random.default_rng(k)
    stack = verify._x_state_grid()[:k].copy()
    stack[::3] = rng.normal(size=stack[::3].shape) + 1j * rng.normal(size=stack[::3].shape)
    return stack


@pytest.mark.parametrize("k", [0, 1, 255, 256, 257, 1023, 1024, 1025, GRID_SIZE])
def test_every_chunk_gives_each_member_its_own_result(k):
    assert qstate._STACK_CHUNK == 1024
    stack = chunk_edge_stack(k)
    stacked = validate_density(stack)
    singles = [validate_density(mat) for mat in stack]
    assert_same_checks(stacked, singles)
    assert_same_checks(stacked, [reference_validate(mat) for mat in stack])
    for single in singles:
        assert type(single.min_eigenvalue) is float and type(single.passed) is bool
    for field in ("trace_deviation", "hermiticity_deviation", "min_eigenvalue", "passed"):
        assert getattr(stacked, field).shape == (k,)
    assert stacked.passed.tolist() == [i % 3 != 0 for i in range(k)]


@pytest.mark.parametrize("k", [0, 1, 1023, 1024, 1025, GRID_SIZE])
def test_chunked_excitation_equals_one_batched_product(k):
    stack = chunk_edge_stack(k)
    whole = np.trace(qstate._NUMBER_OP @ stack, axis1=1, axis2=2).real
    assert bits(qstate.excitation_probabilities(stack)) == bits(whole)


@pytest.mark.parametrize("bad", [1024, 2500, GRID_SIZE - 2])
def test_the_first_bad_member_of_a_later_chunk_is_named(bad):
    stack = verify._x_state_grid().copy()
    stack[bad] = np.diag([0.6, 0.5, 0.0, -0.1])
    stack[-1] *= 1.1  # a later failure, in the last chunk
    with pytest.raises(ValueError, match=rf"invalid density matrix at index {bad}: trace deviation"):
        qstate._frozen_valid(stack)
