"""``discord_to_c`` and ``discord_werner_closed`` agree with their plain forms, bit for bit.

``reference_discord_to_c`` below is the bisection that evaluates the closed
form at every step, and ``reference_discord_werner_closed`` the closed form
with one helper call per x log2 x term.  ``discord_to_c`` finds its first
bracket with ``bisect`` on an ascending table shared by every target, then
jumps to the root's level-30 cell where two probes certify it, and below
c = 0.95 returns that cell's centre; ``discord_to_c_array`` maps it over an
array; ``discord_werner_closed`` writes the terms inline.  None of this may
move a single bit of a result.  The certificate rests on
``_CLOSED_FORM_ERROR`` bounding the closed form's error, and the centre on
D'(0.95) 2^-31 + eps < 1e-9; both are checked here
against 40-digit ``decimal`` evaluations.  Targets on or next to a cell end
take the uncertified path, and the evaluation count per target is pinned on
the 25001-point axis.
"""

import inspect
import math
import random
from bisect import bisect_left
from decimal import Decimal, localcontext

import numpy as np
import pytest

from corr_radiance import correlations
from corr_radiance.correlations import (
    discord_numeric,
    discord_numerics,
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


@pytest.mark.parametrize("points", [2, 11, 101, 401, 4097, 10001, 25001])
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
        (discord_numerics, ["stack", "measured"]),
    ],
    ids=["discord_to_c", "discord_to_c_array", "discord_numeric", "discord_numerics"],
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


def certified_cell(d: float) -> float | None:
    """The cell ``discord_to_c`` certifies for the target ``d`` in (0, 1)."""
    return correlations._certified_cell(d, bisect_left(correlations._shared_midpoint_values(), d))


# in the first table cell, or the estimate leaves its table cell or fails a probe
FALLBACK_TARGETS = [1.0 - 1e-13, 1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53, 1e-8, 1e-12, 1e-17, 1e-300, 5e-324]


def test_targets_without_a_certified_cell_match_the_reference():
    assert [certified_cell(d) for d in FALLBACK_TARGETS] == [None] * len(FALLBACK_TARGETS)
    assert_same_bits(FALLBACK_TARGETS)


def test_targets_that_tie_with_a_cell_end_match_the_reference():
    # the closed form at seeded multiples of 2^-30, and the doubles either
    # side: the root lies on a cell end or within an ulp of one, so no cell
    # is certified and the bisection evaluates every step
    rng = random.Random(41)
    ends = [reference_discord_werner_closed(rng.randrange(1, 2 ** 30) / 2 ** 30) for _ in range(2000)]
    targets = [t for d in ends for t in (math.nextafter(d, 0.0), d, math.nextafter(d, 1.0))]
    assert [d for d in targets if certified_cell(d) is not None] == []
    assert_same_bits(targets)


def test_targets_next_to_the_ends_match_the_reference():
    # within 1e-12 of 1, and below 1e-7, where D' -> 0 and the estimate fails
    rng = random.Random(37)
    assert_same_bits([1.0 - 1e-12 * rng.random() for _ in range(2000)] + [1e-7 * rng.random() for _ in range(2000)])


def test_seeded_targets_at_every_scale_match_the_reference():
    # log-uniform distances from 0 and from 1, so the windows meet every
    # slope and curvature the curve has
    rng = random.Random(31)
    targets = [10.0 ** rng.uniform(-20.0, 0.0) for _ in range(50_000)]
    targets += [1.0 - 10.0 ** rng.uniform(-16.0, 0.0) for _ in range(50_000)]
    assert_same_bits(targets)


def test_the_axis_evaluates_few_closed_forms_per_target(monkeypatch):
    # the plain bisection evaluates 19 per target on this axis
    correlations._shared_midpoint_values()
    closed = correlations.discord_werner_closed
    calls = 0

    def counted(c):
        nonlocal calls
        calls += 1
        return closed(c)

    monkeypatch.setattr(correlations, "discord_werner_closed", counted)
    axis = np.linspace(0.0, 1.0, 25001).tolist()
    for d in axis:
        discord_to_c(d)
    assert calls <= 2.2 * len(axis)


def exact_discord(c: float) -> Decimal:
    """The Werner discord at the float ``c``, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(c)
        ln2 = Decimal(2).ln()

        def xlog2(y: Decimal) -> Decimal:
            return y * y.ln() / ln2 if y > 0 else Decimal(0)

        return xlog2(1 - x) / 4 - xlog2(1 + x) / 2 + xlog2(1 + 3 * x) / 4


def test_the_closed_form_error_is_a_hundredth_of_its_bound():
    cs = [k / 2000 for k in range(2001)]
    cs += [2.0 ** -k for k in range(1, 41)]
    cs += [1.0 - 2.0 ** -k for k in range(1, 54)]
    cs += [1.0 / 3.0]
    worst = max(abs(Decimal(discord_werner_closed(c)) - exact_discord(c)) for c in cs)
    assert worst <= Decimal(correlations._CLOSED_FORM_ERROR) / 100


def exact_slope_and_bend(c: Decimal) -> tuple[Decimal, Decimal]:
    """D'(c) and D''(c) of the Werner discord, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        ln2 = Decimal(2).ln()
        slope = (-(1 - c).ln() / 4 - (1 + c).ln() / 2 + 3 * (1 + 3 * c).ln() / 4) / ln2
        bend = (1 / (4 * (1 - c)) - 1 / (2 * (1 + c)) + 9 / (4 * (1 + 3 * c))) / ln2
        return slope, bend


def test_a_certified_cell_below_the_bound_stops_at_its_centre():
    # the level-30 brackets are the first within the tolerance, and below
    # the bound the centre of a cell holding the root is within it of d:
    # eps + D'(bound) 2^-31 < tol, as D'' > 0 makes D' largest at the bound
    width = Decimal(correlations._CELL_WIDTH)
    tol = Decimal(correlations.DISCORD_TO_C_TOL)
    assert width <= tol < 2 * width
    slope, _ = exact_slope_and_bend(Decimal(correlations._CENTRE_STOP_BOUND))
    assert slope * width / 2 + Decimal(correlations._CLOSED_FORM_ERROR) < tol
    assert all(exact_slope_and_bend(Decimal(k) / 1000)[1] > 0 for k in range(1000))
