"""Exact square-root arithmetic.

`sqrt_sum_sign` decides the sign of a + b*sqrt(B) + c*sqrt(C) exactly, by
comparing signs first and squaring only where they differ.  Every square-root
decision in the package goes through it: norm bounds, slice thresholds,
octahedrality ratios, and the comparison of a `Surd` value
a + b*sqrt(2) + c*sqrt(delta) with a rational (`Surd.compare`).  No decision
rests on an enclosure width or a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, isqrt, ldexp


def sqrt_bounds(value: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= sqrt(value) < hi with hi - lo = 1/(d*scale), d the
    denominator of value.  The upper bound stays strict on perfect squares.

    For value > 0 the same bounds divided by value bracket 1/sqrt(value):
    lo/value <= 1/sqrt(value) < hi/value.
    """
    n, d = value.numerator, value.denominator
    base = isqrt(n * d * scale * scale)
    return Fraction(base, d * scale), Fraction(base + 1, d * scale)


def float_or_none(value: Fraction, root: bool = False) -> float | None:
    """The float nearest value, or sqrt(value) when root; None when that
    number lies beyond the float range.  A root whose radicand overflows a
    float is taken of value / 4^k and scaled back by 2^k."""
    try:
        number = float(value)
    except OverflowError:
        if not root:
            return None
        k = (value.numerator.bit_length() - value.denominator.bit_length()) // 2
        try:
            return ldexp(float(value / 4**k) ** 0.5, k)
        except OverflowError:
            return None
    return number ** 0.5 if root else number


def _sign(value) -> int:
    n = value.numerator  # ints and Fractions alike; cheaper than comparing a Fraction
    return (n > 0) - (n < 0)


def sqrt_sum_sign(a, b=0, B=0, c=0, C=0) -> int:
    """Exact sign (-1, 0 or 1) of a + b*sqrt(B) + c*sqrt(C), for rationals
    a, b, c and radicands B, C >= 0.

    No enclosure is needed.  Terms of one sign add up; where two terms
    differ in sign, the one with the larger square wins.  So the sign s of
    X + Y, for X = b*sqrt(B) and Y = c*sqrt(C), comes from X^2 and Y^2;
    where a has the other sign, X + Y wins iff (X + Y)^2 - a^2 =
    (X^2 + Y^2 - a^2) + 2XY is positive, a sum of the same two-term form.
    """
    if _sign(B) < 0 or _sign(C) < 0:
        raise ValueError("negative radicand")
    sx = _sign(b) if B else 0
    sy = _sign(c) if C else 0
    x2 = b * b * B if sx else 0
    y2 = c * c * C if sy else 0
    s = (sx or sy) if sx * sy >= 0 else sx * _sign(x2 - y2)  # sign of X + Y
    sa = _sign(a)
    if sa * s >= 0:
        return sa or s
    p = x2 + y2 - a * a
    sp, sxy = _sign(p), sx * sy
    wins = (sp or sxy) if sp * sxy >= 0 else sp * _sign(p * p - 4 * x2 * y2)
    return s * wins


def exact_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    n, d = value.numerator, value.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class Surd:
    """a + b*sqrt(2) + c*sqrt(delta) with rational a, b, c and delta >= 0."""

    a: Fraction
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)
    delta: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")

    def compare(self, q: Fraction) -> int:
        """Exact sign (-1, 0 or 1) of self - q, for a rational q."""
        return sqrt_sum_sign(self.a - q, self.b, 2, self.c, self.delta)

    @property
    def float_value(self) -> float | None:
        parts = (
            float_or_none(self.a),
            float_or_none(self.b),
            float_or_none(self.c),
            float_or_none(self.delta, root=True),
        )
        if None in parts:
            return None
        a, b, c, root = parts
        total = a + b * 2**0.5 + c * root
        return total if isfinite(total) else None
