"""Exact square-root arithmetic.

`sqrt_sum_sign` decides the sign of a + b*sqrt(B) + c*sqrt(C) exactly, by
comparing signs first and squaring only where they differ; every norm bound,
slice threshold and octahedrality ratio is decided through it.  `Surd`
values a + b*sqrt(2) + c*sqrt(delta) compare (`surd_le`) through rational
interval enclosures with outward rounding; the default width is 10^-12 and
is refined until the comparison resolves or symbolic equality is
established.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, ldexp

from .errors import AmbiguousComparisonError

DEFAULT_WIDTH = Fraction(1, 10**12)


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


def sqrt_bracket(value: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Outward rational enclosure of sqrt(value) no wider than `width`,
    collapsed to (root, root) when value is a perfect square."""
    if value < 0:
        raise ValueError("negative radicand")
    if value == 0:
        return Fraction(0), Fraction(0)
    scale = 1
    while Fraction(1, value.denominator * scale) > width:
        scale *= 2
    lo, hi = sqrt_bounds(value, scale)
    if lo * lo == value:
        return lo, lo
    return lo, hi


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

    def bracket(self, width: Fraction = DEFAULT_WIDTH) -> tuple[Fraction, Fraction]:
        lo2, hi2 = sqrt_bracket(Fraction(2), width)
        lod, hid = sqrt_bracket(self.delta, width)
        lo = self.a
        hi = self.a
        if self.b >= 0:
            lo += self.b * lo2
            hi += self.b * hi2
        else:
            lo += self.b * hi2
            hi += self.b * lo2
        if self.c >= 0:
            lo += self.c * lod
            hi += self.c * hid
        else:
            lo += self.c * hid
            hi += self.c * lod
        return lo, hi

    def rational_value(self) -> Fraction | None:
        if self.b != 0:
            return None
        if self.c == 0:
            return self.a
        root = exact_sqrt(self.delta)
        if root is None:
            return None
        return self.a + self.c * root

    @property
    def float_value(self) -> float | None:
        lo, hi = self.bracket()
        return float_or_none((lo + hi) / 2)


def as_surd(value) -> Surd:
    if isinstance(value, Surd):
        return value
    return Surd(Fraction(value))


def surd_le(lhs, rhs, width: Fraction = DEFAULT_WIDTH, max_refinements: int = 8) -> bool:
    """Certified lhs <= rhs.  Refines the enclosure on overlap; falls back to
    symbolic equality; raises AmbiguousComparisonError if still undecided."""
    left, right = as_surd(lhs), as_surd(rhs)
    if (left.a, left.b, left.c, left.delta) == (right.a, right.b, right.c, right.delta):
        return True
    lr, rr = left.rational_value(), right.rational_value()
    if lr is not None and rr is not None:
        return lr <= rr
    w = width
    for _ in range(max_refinements):
        llo, lhi = left.bracket(w)
        rlo, rhi = right.bracket(w)
        if lhi <= rlo:
            return True
        if llo > rhi:
            return False
        w = w / 2**10
    raise AmbiguousComparisonError(
        f"could not order {left} and {right} at width {width}"
    )


def surd_lt(lhs, rhs, width: Fraction = DEFAULT_WIDTH) -> bool:
    return surd_le(lhs, rhs, width) and not surd_le(rhs, lhs, width)
