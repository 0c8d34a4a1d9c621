"""``discord_to_c`` and ``discord_werner_closed`` agree with their plain forms, bit for bit.

``reference_discord_to_c`` below is the bisection that evaluates the closed
form at every step, and ``reference_discord_werner_closed`` the closed form
with one helper call per x log2 x term.  ``discord_to_c`` finds its first
bracket with ``bisect`` on an ascending table shared by every target, and
``discord_werner_closed`` writes the terms inline; neither may move a single
bit of a result.
"""

import inspect
import math
import random

import numpy as np
import pytest

from corr_radiance import correlations
from corr_radiance.correlations import (
    discord_numeric,
    discord_to_c,
    discord_to_c_array,
    discord_werner_closed,
)


def _reference_xlog2(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def reference_discord_werner_closed(c: float) -> float:
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"Werner parameter c = {c} lies outside [0, 1]")
    d = (
        0.25 * _reference_xlog2(1.0 - c)
        - 0.5 * _reference_xlog2(1.0 + c)
        + 0.25 * _reference_xlog2(1.0 + 3.0 * c)
    )
    return d if d > 0.0 else 0.0


def reference_discord_to_c(d: float, tol: float = 1e-9) -> float:
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"discord target {d} lies outside the attainable range [0, 1]")
    if d == 0.0:
        return 0.0
    if d == 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    mid = 0.5
    floor = max(tol, 1e-15)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = reference_discord_werner_closed(mid)
        if abs(value - d) <= tol and hi - lo <= floor:
            break
        if value < d:
            lo = mid
        else:
            hi = mid
    return mid


def assert_same_bits(targets):
    got = [discord_to_c(d).hex() for d in targets]
    expected = [reference_discord_to_c(d).hex() for d in targets]
    mismatched = [(d, g, e) for d, g, e in zip(targets, got, expected) if g != e]
    assert not mismatched, f"{len(mismatched)} targets differ, first {mismatched[0]}"


EDGE_TARGETS = [
    1.0 - 2.0 ** -53,
    1.0 - 1e-16,
    5e-324,
    2.2250738585072014e-308,
    1e-310,
    0.0,
    1.0,
    0.5,
    0.12581458369391152,
]


def tiny_targets(n: int = 2000) -> list[float]:
    """Targets in (0, 1e-6], where the clamped closed form is not monotone."""
    rng = random.Random(3)
    return [1e-6 * (1.0 - rng.random()) for _ in range(n)] + [1e-6, 1e-12, 1e-17, 1e-30]


@pytest.mark.parametrize("points", [2, 11, 101, 401, 4097, 25001])
def test_linspace_axes_match_the_reference(points):
    assert_same_bits(np.linspace(0.0, 1.0, points).tolist())


def test_random_targets_match_the_reference():
    rng = random.Random(11)
    assert_same_bits([rng.random() for _ in range(100_000)])


def test_targets_near_zero_match_the_reference():
    assert_same_bits(tiny_targets())


def test_edge_targets_match_the_reference():
    assert_same_bits(EDGE_TARGETS)


def test_targets_that_tie_with_a_shared_midpoint_match_the_reference():
    # the closed form at every odd multiple of 2^-12, so each level's
    # comparison meets a target equal to its own midpoint value
    assert_same_bits([reference_discord_werner_closed(k / 4096) for k in range(1, 4096, 2)])


def test_targets_that_tie_with_an_upper_level_midpoint_match_the_reference():
    # the closed form at every even multiple of 2^-12: each equals a table
    # entry that the bisection meets above its last shared level
    assert_same_bits([reference_discord_werner_closed(k / 4096) for k in range(2, 4096, 2)])


def mixed_targets() -> list[float]:
    rng = random.Random(17)
    return [rng.random() for _ in range(3000)] + tiny_targets(500) + EDGE_TARGETS


def test_mixed_targets_match_the_reference():
    assert_same_bits(mixed_targets())


def test_array_inversion_of_mixed_targets_matches_the_reference():
    targets = mixed_targets()
    got = discord_to_c_array(np.array(targets)).tolist()
    expected = [reference_discord_to_c(d) for d in targets]
    mismatched = [(d, g, e) for d, g, e in zip(targets, got, expected) if g.hex() != e.hex()]
    assert not mismatched, f"{len(mismatched)} targets differ, first {mismatched[0]}"


@pytest.mark.parametrize(
    "solver, parameters",
    [
        (discord_to_c, ["d"]),
        (discord_to_c_array, ["d"]),
        (discord_numeric, ["rho", "measured"]),
    ],
    ids=["discord_to_c", "discord_to_c_array", "discord_numeric"],
)
def test_the_solvers_take_no_settings(solver, parameters):
    # the tolerance and the angle grid are module constants, not arguments
    assert list(inspect.signature(solver).parameters) == parameters


def test_out_of_range_targets_are_still_rejected():
    for d in (-1e-300, 1.0 + 2.0 ** -52, math.nan, math.inf):
        with pytest.raises(ValueError):
            discord_to_c(d)


def test_flat_closed_form_matches_the_reference():
    rng = random.Random(23)
    cs = [rng.random() for _ in range(100_000)] + [0.0, 1.0, 1.0 / 3.0, 5e-324, 1.0 - 2.0 ** -53]
    got = [discord_werner_closed(c).hex() for c in cs]
    assert got == [reference_discord_werner_closed(c).hex() for c in cs]


def test_the_shared_table_holds_the_closed_form_at_each_midpoint_in_ascending_order():
    values = correlations._shared_midpoint_values()
    size = 2 ** correlations._SHARED_LEVELS
    assert len(values) == size - 1
    for k in range(1, size):
        assert values[k - 1].hex() == reference_discord_werner_closed(k / size).hex(), k
    # bisect reproduces the bisection's descent only on a strictly increasing table
    assert all(a < b for a, b in zip(values, values[1:]))
