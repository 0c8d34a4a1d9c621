"""``discord_to_c`` returns the root of the Werner discord, and
``discord_werner_closed`` the discord, within stated relative bounds of
their 40-digit decimal values.

The oracle is ``tests/exact_discord.py``: the discord, and Newton's method on it,
in 40-digit decimal arithmetic, not another float solver.  ``discord_to_c``
runs Newton's method on the float closed form from the chord of a table
cell and stops at the first step that does not lower c; the table and the
iteration rest on D being increasing and convex, and its first-cell start
sqrt(d ln 2) on ln 2 D <= c^2, all checked here against 40-digit values.
Its roots are checked on the linspace axes the CLI prints, on 100,000
log-uniform and 20,000 uniform targets, next to both ends of [0, 1], at
every table entry, at the ends of the table's first and last cells and next
to the closed form's switch to its series; they are nondecreasing on sorted
targets, and the CLI's printed c column is checked against the root rounded
to 12 digits.
"""

import inspect
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from exact_discord import (
    PREC,
    exact_discord,
    exact_root,
    exact_slope,
    log_form,
    relative_error,
)

from corr_radiance import correlations
from corr_radiance import cli
from corr_radiance.cli import RunConfig, main
from corr_radiance.emission import UNDEFINED_INTENSITY_TOL
from corr_radiance.correlations import (
    discord_numeric,
    discord_numerics,
    discord_to_c,
    discord_werner_closed,
)

# |discord_to_c(d) - c| / c for the root c of D(c) = d; the worst seen is
# 1.5e-14, just above c = 0.05, where the closed form's own relative error
# of 3.9e-14 moves the root by half of it
ROOT_BOUND = 1e-13
# |discord_werner_closed(c) - D(c)| / D(c), below and above c = 0.05; the
# worst seen are 1.8e-16 and 3.9e-14
SERIES_ERROR_BOUND = 1e-15
CLOSED_FORM_ERROR_BOUND = 1e-13
# |discord_werner_closed(c) - D(c)| over [0, 1]; the worst seen on the grid
# below is under a hundredth of it
CLOSED_FORM_ABSOLUTE_BOUND = 1e-13
# where discord_werner_closed switches from its series to the logarithms
SERIES_BOUND = correlations._SERIES_BOUND


def worst_root_error(targets) -> tuple[float, float]:
    """The largest relative error of ``discord_to_c`` over targets in (0, 1),
    and the target where it occurs."""
    worst = (0.0, math.nan)
    for d in targets:
        c = discord_to_c(d)
        worst = max(worst, (relative_error(c, exact_root(d, c)), d))
    return worst


def assert_roots(targets):
    error, d = worst_root_error(targets)
    assert error <= ROOT_BOUND, f"relative error {error:.3g} at d = {d!r}"


@pytest.mark.parametrize("points", [2, 11, 101, 401, 4097, 10001, 25001])
def test_linspace_axes_give_the_root(points):
    axis = np.linspace(0.0, 1.0, points).tolist()
    c = [discord_to_c(d) for d in axis]
    assert (c[0], c[-1]) == (0.0, 1.0)
    assert all(a <= b for a, b in zip(c, c[1:]))
    assert_roots(axis[1:-1])


def test_log_uniform_targets_give_the_root():
    rng = random.Random(31)
    assert_roots([10.0 ** rng.uniform(-300.0, 0.0) for _ in range(100_000)])


def test_targets_next_to_one_give_the_root():
    # D' diverges at c = 1, and within 1.6e-15 of d = 1 the root is within
    # an ulp of c = 1
    rng = random.Random(37)
    targets = [1.0 - 1e-13, 1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53, 1.0 - 1e-15]
    targets += [1.0 - 10.0 ** rng.uniform(-16.0, 0.0) for _ in range(3000)]
    targets += [1.0 - 1e-12 * rng.random() for _ in range(500)]
    assert_roots(targets)


def next_to(d: float) -> list[float]:
    return [math.nextafter(d, 0.0), d, math.nextafter(d, 1.0)]


def test_targets_at_the_ends_of_the_table_cells_give_the_root():
    table = correlations._discord_table()
    rng = random.Random(41)
    # the first cell's top, where D' -> 0 below, and the last cell's bottom
    targets = next_to(table[0]) + next_to(table[-1])
    targets += [t for k in rng.sample(range(len(table)), 300) for t in next_to(table[k])]
    assert_roots(targets)


def test_targets_in_the_first_cell_give_the_root():
    # the start sqrt(d ln 2) lies below the root by a factor 1 - c/2; for a
    # subnormal target D(c) rounds to the target itself about the root
    rng = random.Random(43)
    targets = [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-32, 1e-17, 1e-12, 1e-8]
    targets += [8.6e-8 * rng.random() for _ in range(2000)]
    targets += [rng.randrange(1, 2**52) * 5e-324 for _ in range(2000)]
    assert_roots(targets)


def test_uniform_targets_give_the_root():
    # the log-uniform targets crowd toward 0; these spread over the whole
    # range, where the chord start and the last-ulp noise of the log form
    # set the root's error
    rng = random.Random(11)
    assert_roots([rng.random() for _ in range(20_000)])


def test_targets_near_zero_give_the_root():
    # (0, 1e-6]: the first cell and the cells above it, where D' -> 0 and
    # the closed form is the series
    rng = random.Random(3)
    targets = [1e-6 * (1.0 - rng.random()) for _ in range(2000)] + [1e-6, 1e-12, 1e-17, 1e-30]
    assert_roots(targets)


def test_targets_equal_to_a_table_entry_give_the_root():
    # bisect_left puts a target equal to an entry in the cell below it, so
    # the chord start sits on that cell's top end
    assert_roots(correlations._discord_table())


def test_targets_next_to_the_series_bound_give_the_root():
    # the closed form switches from the series to the logarithms at
    # c = 0.05, inside a table cell, so Newton's steps cross the switch
    bound = discord_werner_closed(SERIES_BOUND)
    rng = random.Random(59)
    targets = next_to(bound) + next_to(discord_werner_closed(math.nextafter(SERIES_BOUND, 0.0)))
    targets += [bound * (1.0 + 1e-3 * (2.0 * rng.random() - 1.0)) for _ in range(2000)]
    assert_roots(targets)


def test_roots_are_nondecreasing_in_the_target():
    # on sorted targets at every scale down to 1e-300; adjacent doubles
    # about a table entry can order their roots the other way, by up to
    # 7e-15 of c, well inside ROOT_BOUND
    rng = random.Random(61)
    targets = [rng.random() for _ in range(20_000)] + [10.0 ** rng.uniform(-300.0, 0.0) for _ in range(20_000)]
    targets.sort()
    c = [discord_to_c(d) for d in targets]
    assert all(a <= b for a, b in zip(c, c[1:]))


def test_the_end_targets_are_exact():
    assert discord_to_c(0.0) == 0.0
    assert discord_to_c(1.0) == 1.0


def test_out_of_range_targets_are_still_rejected():
    for d in (-1e-300, 1.0 + 2.0 ** -52, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            discord_to_c(d)


@pytest.mark.parametrize(
    "solver, parameters",
    [
        (discord_to_c, ["d"]),
        (discord_numeric, ["rho", "measured"]),
        (discord_numerics, ["stack", "measured"]),
    ],
    ids=["discord_to_c", "discord_numeric", "discord_numerics"],
)
def test_the_solvers_take_no_settings(solver, parameters):
    # the angle grid and its tolerances are module constants, not arguments
    assert list(inspect.signature(solver).parameters) == parameters


def test_the_table_holds_the_closed_form_at_each_multiple_in_ascending_order():
    values = correlations._discord_table()
    size = round(1.0 / correlations._TABLE_WIDTH)
    assert len(values) == size - 1
    assert values.tolist() == [discord_werner_closed(k / size) for k in range(1, size)]
    # bisect finds the root's cell only on a strictly increasing table
    assert all(a < b for a, b in zip(values, values[1:]))


def test_the_axis_evaluates_few_closed_forms_per_target(monkeypatch):
    # 2.92 closed forms per target on this axis, and at most 9 where the
    # closed form's last-ulp noise walks c down an ulp or two at a time; each
    # interior target also takes two slopes, one log1p each
    correlations._discord_table()
    counted = {"discord_werner_closed": 0, "_discord_slope": 0}

    def counting(name):
        function = getattr(correlations, name)

        def call(c):
            counted[name] += 1
            return function(c)

        return call

    for name in counted:
        monkeypatch.setattr(correlations, name, counting(name))
    closed, slopes = [], []
    for d in np.linspace(0.0, 1.0, 25001).tolist():
        counted.update(dict.fromkeys(counted, 0))
        discord_to_c(d)
        closed.append(counted["discord_werner_closed"])
        slopes.append(counted["_discord_slope"])
    assert sum(closed) <= 2.95 * len(closed)
    assert max(closed) <= 9
    assert max(slopes) == 2


def high_precision_discord(c: float) -> Decimal:
    """D at the float c from its three logarithms, with the precision raised
    by the digits their cancellation to c^2 costs."""
    with localcontext() as ctx:
        ctx.prec = PREC + 2 * max(0, -math.floor(math.log10(c)))
        return log_form(Decimal(c))[0] / Decimal(2).ln()


def test_the_closed_form_keeps_its_relative_error_below_the_series_bound():
    # log-uniform c down to 1e-150, below which c^2 underflows; the 40-digit
    # series of exact_discord is checked on the same points
    rng = random.Random(47)
    cs = [10.0 ** rng.uniform(-150.0, math.log10(SERIES_BOUND)) for _ in range(300)]
    cs += [1e-9, math.nextafter(SERIES_BOUND, 0.0)]
    for c in cs:
        exact = high_precision_discord(c)
        assert abs(exact_discord(c) - exact) <= exact * Decimal("1e-38"), c
        assert abs(Decimal(discord_werner_closed(c)) - exact) <= exact * Decimal(SERIES_ERROR_BOUND), c


def test_the_closed_form_no_longer_vanishes_near_zero():
    # the three x log2 x terms cancel to about 1e-16 here, so their sum
    # alone comes out 0 or negative
    assert discord_werner_closed(1e-9) == pytest.approx(1e-18 / math.log(2.0), rel=1e-8)
    assert discord_werner_closed(1e-150) > 0.0


def test_the_closed_form_error_is_a_hundredth_of_its_bound():
    cs = [k / 2000 for k in range(2001)]
    cs += [2.0 ** -k for k in range(1, 41)]
    cs += [1.0 - 2.0 ** -k for k in range(1, 54)]
    cs += [1.0 / 3.0]
    worst = max(abs(Decimal(discord_werner_closed(c)) - exact_discord(c)) for c in cs)
    assert worst <= Decimal(CLOSED_FORM_ABSOLUTE_BOUND) / 100


def _reference_xlog2(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def reference_discord_werner_closed(c: float) -> float:
    """The log2 form with one helper call per x log2 x term."""
    return (
        0.25 * _reference_xlog2(1.0 - c)
        - 0.5 * _reference_xlog2(1.0 + c)
        + 0.25 * _reference_xlog2(1.0 + 3.0 * c)
    )


def test_flat_closed_form_matches_the_reference():
    # from the series bound up, discord_werner_closed is the log2 form with
    # its terms written inline, bit for bit
    rng = random.Random(23)
    cs = [rng.random() for _ in range(100_000)] + [SERIES_BOUND, 1.0, 1.0 / 3.0, 1.0 - 2.0 ** -53]
    cs = [c for c in cs if c >= SERIES_BOUND]
    got = [discord_werner_closed(c).hex() for c in cs]
    assert got == [reference_discord_werner_closed(c).hex() for c in cs]


def test_the_closed_form_keeps_its_relative_error_above_the_series_bound():
    cs = [SERIES_BOUND + k * (1.0 - SERIES_BOUND) / 4000 for k in range(4001)]
    cs += [1.0 - 2.0 ** -k for k in range(1, 54)] + [1.0 / 3.0]
    worst = max(abs(Decimal(discord_werner_closed(c)) / exact_discord(c) - 1) for c in cs)
    assert worst <= CLOSED_FORM_ERROR_BOUND


def exact_bend(c: float) -> Decimal:
    """D''(c) of the Werner discord, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = PREC
        x = Decimal(c)
        return (1 / (4 * (1 - x)) - 1 / (2 * (1 + x)) + 9 / (4 * (1 + 3 * x))) / Decimal(2).ln()


def test_the_curve_is_increasing_and_convex_and_below_its_first_term():
    # the Newton iteration's monotone descent needs D' > 0 and D'' > 0 (the
    # least D'' is 1.54, near c = 1/2); the first cell's start needs
    # ln 2 D(c) <= c^2, whose margin c^3 is resolved down to c = 1e-30
    with localcontext() as ctx:
        ctx.prec = PREC
        for c in [k / 2000 for k in range(1, 2000)] + [10.0 ** -k for k in range(2, 31)]:
            assert exact_slope(c) > 0 and exact_bend(c) > Decimal("1.5"), c
            assert exact_discord(c) * Decimal(2).ln() <= Decimal(c) ** 2, c


def test_the_newton_slope_is_the_derivative():
    rng = random.Random(53)
    cs = [rng.random() for _ in range(1000)] + [10.0 ** rng.uniform(-300.0, 0.0) for _ in range(1000)]
    cs += [1.0 - 10.0 ** rng.uniform(-16.0, 0.0) for _ in range(1000)]
    for c in cs:
        assert abs(Decimal(correlations._discord_slope(c)) / exact_slope(c) - 1) <= Decimal("1e-14"), c


@pytest.mark.parametrize("points", [101, 2001])
def test_the_printed_c_column_is_the_root_rounded_to_12_digits(points, tmp_path):
    # a root within 1.5e-14 of the exact one misprints a row only where the
    # exact root lies that close to a 12-digit rounding boundary
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--grid-d", str(points), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == points
    missed = []
    for d, (_, c_text, *_) in zip(np.linspace(0.0, 1.0, points).tolist()[1:-1], rows[1:-1]):
        root = exact_root(d, discord_to_c(d))
        with localcontext() as ctx:
            ctx.prec = 12
            if Decimal(c_text) != +root:
                missed.append((d, c_text, root))
    assert len(missed) <= 1, missed


def rounded_12(x: Fraction) -> Decimal:
    """The exact rational x correctly rounded to 12 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 12
        return Decimal(x.numerator) / Decimal(x.denominator)


# misses of the 12-digit correct rounding per column at 101 x 101, as
# measured; near the dark points the squared bracket 1 - c cos(phase) in the
# denominator of g2 magnifies the bracket's rounding
@pytest.mark.parametrize(("command", "column", "bound"), [("fig2", "I", 0), ("fig4", "g2", 2)])
def test_the_printed_i_and_g2_cells_are_their_exact_values_rounded_to_12_digits(command, column, bound, tmp_path):
    # the exact value at the double inputs c and cos(phase) that the command
    # itself computes: I = 1 - c cos(phase), g2 = (1 - c) / I^2
    cfg = RunConfig(command)
    c = [Fraction(x) for x in cli._discord_axis(cfg)[1].tolist()]
    cos_phase = [Fraction(x) for x in cli._sin_beta_axis(cfg)[1].tolist()]
    out = tmp_path / f"{command}.csv"
    assert main([command, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    index = lines[0].split(",").index(column)
    tokens = [line.split(",")[index] for line in lines[1:]]
    assert len(tokens) == len(c) * len(cos_phase)
    missed, defined = [], 0
    for row, token in enumerate(tokens):
        i, j = divmod(row, len(cos_phase))
        intensity = 1 - c[i] * cos_phase[j]
        if token == "":
            # g2 is undefined (0/0) only where the intensity vanishes
            assert column == "g2" and intensity < Fraction(UNDEFINED_INTENSITY_TOL), row
            continue
        defined += 1
        exact = intensity if column == "I" else (1 - c[i]) / (intensity * intensity)
        if Decimal(token) != rounded_12(exact):
            missed.append((row, token, rounded_12(exact)))
    print(f"{command} {column}: {len(missed)} of {defined} cells miss the 12-digit rounding")
    assert len(missed) <= bound, missed

