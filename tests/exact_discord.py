"""The Werner discord and its root in 40-digit decimal arithmetic: the oracle
for ``discord_werner_closed``, ``discord_to_c`` and the transition's discord.

In nats, ln 2 D(c) = (1-c)/4 ln(1-c) - (1+c)/2 ln(1+c) + (1+3c)/4 ln(1+3c).
Its three terms cancel to about c^2 near c = 0, so below ``SERIES_BOUND`` it
is summed as its Taylor series, ln 2 D = sum over n >= 2 of a_n c^n; the
tests check that series against the logarithms at a precision raised to
cover the cancellation.
"""

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

PREC = 40
SERIES_BOUND = 0.05
# a series term this small against the sum ends the series, and a Newton
# step this small against c ends the root
_TAIL = Decimal("1e-45")
_SETTLED = Decimal("1e-30")


def series_coefficient(n: int) -> Fraction:
    """a_n = [1/4 - 1/2 (-1)^n + 1/4 (-3)^n]/(n(n - 1)), exactly."""
    return Fraction(1 - 2 * (-1) ** n + (-3) ** n, 4 * n * (n - 1))


@functools.cache
def _decimal_coefficient(n: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        a = series_coefficient(n)
        return Decimal(a.numerator) / a.denominator


def _ln(y: Decimal) -> Decimal:
    """ln y to the context's precision of 40 digits: the float log, corrected
    by ln(1 + u) = u - u^2/2 + u^3/3 with u = y exp(-guess) - 1 of order
    1e-16, as one decimal exp costs much less than a decimal ln."""
    guess = Decimal(math.log(y))
    u = y * (-guess).exp() - 1
    return guess + u - u * u / 2 + u * u * u / 3


def log_form(c: Decimal, log=Decimal.ln) -> tuple[Decimal, Decimal]:
    """ln 2 D(c) and ln 2 D'(c) from the three logarithms, in the context's
    precision."""
    la, lb, le = log(1 - c), log(1 + c), log(1 + 3 * c)
    return (1 - c) * la / 4 - (1 + c) * lb / 2 + (1 + 3 * c) * le / 4, (3 * le - la - 2 * lb) / 4


def _series(c: Decimal) -> tuple[Decimal, Decimal]:
    """ln 2 D(c) and ln 2 D'(c) summed as Taylor series, for c < 1/3, until a
    term of D' falls below 1e-45 of it: the terms then shrink by 3c or more
    each, so the tail is smaller still."""
    value = slope = Decimal(0)
    power = c  # c^(n - 1)
    n = 2
    while True:
        term = _decimal_coefficient(n) * power
        slope += n * term
        value += term * c
        if abs(n * term) < abs(slope) * _TAIL:
            return value, slope
        power *= c
        n += 1


def _discord_and_slope(c: Decimal) -> tuple[Decimal, Decimal]:
    """ln 2 D(c) and ln 2 D'(c) to 40 digits, 0 < c < 1."""
    return _series(c) if c < SERIES_BOUND else log_form(c, _ln)


@functools.cache
def _ln2() -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        return Decimal(2).ln()


def exact_discord(c: float) -> Decimal:
    """D at the float c in bits, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = PREC
        if c in (0.0, 1.0):
            return Decimal(c)
        return +(_discord_and_slope(Decimal(c))[0] / _ln2())


def exact_slope(c: float) -> Decimal:
    """D' at the float c, 0 < c < 1, in bits, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = PREC
        return +(_discord_and_slope(Decimal(c))[1] / _ln2())


def exact_root(d: float, start: float) -> Decimal:
    """The c in [0, 1] with D(c) = d, to 40 digits: Newton's method in decimal
    from ``start``, kept inside (0, 1), until a step falls below 1e-30 of c.
    D is increasing and convex, so the limit does not depend on the start;
    a start near the root only saves steps."""
    with localcontext() as ctx:
        ctx.prec = PREC
        if d in (0.0, 1.0):
            return Decimal(d)
        target = Decimal(d) * _ln2()
        x = Decimal(min(max(start, 5e-324), 1.0 - 2.0 ** -53))
        for _ in range(200):
            value, slope = _discord_and_slope(x)
            step = (value - target) / slope
            x = min(x - step, (1 + x) / 2)
            if abs(step) <= x * _SETTLED:
                return +x
    raise AssertionError(f"Newton's method did not settle on the root for d = {d}")


def relative_error(c: float, root: Decimal) -> float:
    """|c - root| / root."""
    return float(abs(Decimal(c) - root) / root)
