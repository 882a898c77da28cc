import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

import pytest

from jamestree.errors import AmbiguousComparisonError
from jamestree.surds import (
    Surd,
    float_or_none,
    sqrt_bounds,
    sqrt_bracket,
    sqrt_sum_sign,
    surd_le,
    surd_lt,
)


def test_sqrt_bracket_tight_and_outward():
    lo, hi = sqrt_bracket(Fraction(2), Fraction(1, 10**12))
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo <= Fraction(1, 10**12)
    lo, hi = sqrt_bracket(Fraction(9, 4), Fraction(1, 10**6))
    assert lo == hi == Fraction(3, 2)


def test_surd_comparisons():
    bound = Surd(a=Fraction(1, 20), b=Fraction(1), c=Fraction(2), delta=Fraction(1, 25))
    # sqrt(2) + 1/20 + 2/5 = 1.864...
    assert surd_le(Fraction(9, 5), bound)
    assert not surd_le(Fraction(2), bound)
    assert surd_lt(bound, Fraction(2))
    assert surd_le(bound, bound)


def test_rational_surds_compare_exactly():
    s = Surd(a=Fraction(1), c=Fraction(2), delta=Fraction(1, 4))  # 1 + 2*(1/2) = 2
    assert surd_le(s, Fraction(2)) and surd_le(Fraction(2), s)


def test_equal_irrationals_raise():
    with pytest.raises(AmbiguousComparisonError):
        surd_le(Surd(Fraction(0), b=Fraction(1)), Surd(Fraction(0), c=Fraction(1), delta=Fraction(2)))


def test_float_rendering():
    bound = Surd(a=Fraction(1, 20), b=Fraction(1), c=Fraction(2), delta=Fraction(1, 25))
    assert abs(bound.float_value - (2**0.5 + 0.05 + 0.4)) < 1e-9


# perfect squares, non-squares, and values below 1
ROOT_SAMPLES = [
    Fraction(v)
    for v in ("4", "9/4", "1/9", "49/100", "2", "3", "123456789/1000", "5/7", "1/3", "2/9", "1/1000000")
]


@pytest.mark.parametrize("scale", [10**6, 10**9, 10**12])
def test_sqrt_bounds_match_inline_formulas(scale):
    for value in ROOT_SAMPLES:
        n, d = value.numerator, value.denominator
        base = isqrt(n * d * scale * scale)
        lo, hi = sqrt_bounds(value, scale)
        assert (lo, hi) == (Fraction(base, d * scale), Fraction(base + 1, d * scale))
        assert (lo / value, hi / value) == (Fraction(base, n * scale), Fraction(base + 1, n * scale))
        assert lo * lo <= value < hi * hi


def test_float_or_none_at_the_float_range():
    big = Fraction(10**400)
    assert float_or_none(big) is None
    assert float_or_none(big, root=True) == 1e200  # the root fits though its radicand does not
    assert float_or_none(big * big, root=True) is None
    assert float_or_none(-big) is None
    for value in (Fraction(0), Fraction(2), Fraction(1, 3), Fraction(10**300), Fraction(1, 10**400)):
        assert float_or_none(value) == float(value)
        assert float_or_none(value, root=True) == float(value) ** 0.5


def test_sqrt_sum_sign_checks_sign_before_squaring():
    # p + s*sqrt(B_s) <= q + t*sqrt(B_t) is sqrt_sum_sign(q - p, t, B_t, -s, B_s) >= 0
    assert sqrt_sum_sign(-2, 1, 1, -1, 9) == -1  # 5 <= 1 fails
    assert sqrt_sum_sign(-1, 1, 9, -1, 4) == 0  # 3 <= 3
    assert sqrt_sum_sign(2, 1, 1, -1, 9) == 0  # 3 <= 3


def test_sqrt_sum_sign_exact_zeros():
    assert sqrt_sum_sign(0, 2, 2, -1, 8) == 0  # 2 sqrt(2) - sqrt(8)
    assert sqrt_sum_sign(-1, 2, Fraction(1, 4)) == 0  # 2 sqrt(1/4) - 1
    assert sqrt_sum_sign(1, 2, Fraction(1, 4), -2, 1) == 0  # 1 + 2 sqrt(1/4) - 2
    assert sqrt_sum_sign(0) == 0 and sqrt_sum_sign(0, 5, 0, -3, 0) == 0
    with pytest.raises(ValueError):
        sqrt_sum_sign(0, 1, -1)


def _decimal(value: Fraction) -> Decimal:
    return Decimal(value.numerator) / Decimal(value.denominator)


def test_sqrt_sum_sign_matches_decimal():
    rng = random.Random(12)

    def radicand() -> Fraction:
        if rng.random() < 0.5:  # a square times 1, 2, 3 or 1/2
            root = Fraction(rng.randint(0, 6), rng.randint(1, 4))
            return root * root * rng.choice((1, 2, 3, Fraction(1, 2)))
        return Fraction(rng.randint(0, 30), rng.randint(1, 5))

    zeros = three_term_zeros = 0
    with localcontext() as ctx:
        ctx.prec = 120
        for _ in range(10_000):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            B, C = radicand(), radicand()
            total = _decimal(a) + _decimal(b) * _decimal(B).sqrt() + _decimal(c) * _decimal(C).sqrt()
            expected = 0 if abs(total) < Decimal(10) ** -100 else (1 if total > 0 else -1)
            assert sqrt_sum_sign(a, b, B, c, C) == expected, (a, b, B, c, C)
            zeros += expected == 0
            three_term_zeros += expected == 0 and a * b * c * B * C != 0
    assert zeros >= 20 and three_term_zeros >= 1  # exact cancellations occur
