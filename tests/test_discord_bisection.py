"""``discord_to_c`` and ``discord_werner_closed`` agree with their plain forms, bit for bit.

``reference_discord_to_c`` below is the bisection that evaluates the closed
form at every step, and ``reference_discord_werner_closed`` the closed form
with one helper call per x log2 x term.  ``discord_to_c`` reads its first
steps from a table shared by every target, and ``discord_werner_closed``
writes the terms inline; neither may move a single bit of a result.
"""

import math
import random

import numpy as np
import pytest

from corr_radiance import correlations
from corr_radiance.correlations import discord_to_c, discord_werner_closed


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


def assert_same_bits(targets, tol=None):
    kwargs = {} if tol is None else {"tol": tol}
    got = [discord_to_c(d, **kwargs).hex() for d in targets]
    expected = [reference_discord_to_c(d, **kwargs).hex() for d in targets]
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


# 2^-12 and 2^-11 sit on either side of the table's guard floor < 2^-11
@pytest.mark.parametrize("tol", [1e-9, 1e-12, 0.0, 2.0 ** -12, 2.0 ** -11, 1e-3, 0.3])
def test_every_tolerance_matches_the_reference(tol):
    rng = random.Random(17)
    targets = [rng.random() for _ in range(3000)] + tiny_targets(500) + EDGE_TARGETS
    assert_same_bits(targets, tol)


def test_out_of_range_targets_are_still_rejected():
    for d in (-1e-300, 1.0 + 2.0 ** -52, math.nan, math.inf):
        with pytest.raises(ValueError):
            discord_to_c(d)


def test_flat_closed_form_matches_the_reference():
    rng = random.Random(23)
    cs = [rng.random() for _ in range(100_000)] + [0.0, 1.0, 1.0 / 3.0, 5e-324, 1.0 - 2.0 ** -53]
    got = [discord_werner_closed(c).hex() for c in cs]
    assert got == [reference_discord_werner_closed(c).hex() for c in cs]


def test_the_shared_table_holds_the_closed_form_at_each_midpoint():
    tree = correlations._shared_bisection_tree()
    levels = correlations._SHARED_LEVELS
    assert len(tree) == 2 ** levels
    for n in range(1, 2 ** levels):
        level = n.bit_length() - 1
        mid = (2 * (n - 2 ** level) + 1) / 2 ** (level + 1)
        assert tree[n].hex() == reference_discord_werner_closed(mid).hex(), n
