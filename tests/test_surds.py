import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt, ulp

import pytest

from jamestree.surds import Surd, float_or_none, sqrt_bounds, sqrt_sum_sign

NEAR_TIE = Surd(a=Fraction(41, 2048), b=Fraction(1), c=Fraction(2), delta=Fraction(1, 25))


def _decimal(value: Fraction) -> Decimal:
    return Decimal(value.numerator) / Decimal(value.denominator)


def _rational_near(surd: Surd, digits: int) -> Fraction:
    """A rational within 10^-digits of the surd, from a decimal expansion."""
    with localcontext() as ctx:
        ctx.prec = digits + 20
        total = _decimal(surd.a) + _decimal(surd.b) * Decimal(2).sqrt()
        total += _decimal(surd.c) * _decimal(surd.delta).sqrt()
    return Fraction(total)


def test_surd_comparisons():
    # a rational 10^-40 away from sqrt(2) + 41/2048 + 2 sqrt(1/25), on either side
    near = _rational_near(NEAR_TIE, 60)
    gap = Fraction(1, 10**40)
    assert NEAR_TIE.compare(near - gap) == 1
    assert NEAR_TIE.compare(near + gap) == -1
    bound = Surd(a=Fraction(1, 20), b=Fraction(1), c=Fraction(2), delta=Fraction(1, 25))
    assert bound.compare(Fraction(9, 5)) == 1  # sqrt(2) + 1/20 + 2/5 = 1.864...
    assert bound.compare(Fraction(2)) == -1


def test_rational_surds_compare_exactly():
    assert Surd(a=Fraction(1), c=Fraction(2), delta=Fraction(1, 4)).compare(Fraction(2)) == 0
    assert Surd(Fraction(3)).compare(Fraction(3)) == 0
    assert Surd(Fraction(0), b=Fraction(1), c=Fraction(-1), delta=Fraction(2)).compare(Fraction(0)) == 0


def test_float_rendering():
    """float_value is the float of the exact value, to a few ulp (50-digit decimal reference)."""
    for surd in (
        Surd(Fraction(1, 100), Fraction(1), Fraction(2), Fraction(1, 25)),  # 1.824213562373095...
        Surd(Fraction(1, 20), Fraction(1), Fraction(2), Fraction(1, 25)),
        NEAR_TIE,
        Surd(Fraction(-3, 7), Fraction(5, 3), Fraction(-2, 9), Fraction(7, 11)),
        Surd(Fraction(10**30, 3), Fraction(1), Fraction(2), Fraction(1, 10**50)),
    ):
        expected = float(_rational_near(surd, 50))
        assert abs(surd.float_value - expected) <= 4 * ulp(expected), surd


def test_float_value_at_the_float_range():
    assert Surd(Fraction(1, 100), Fraction(1), Fraction(2), Fraction(10**400)).float_value == 2e200
    assert Surd(Fraction(1, 100), Fraction(1), Fraction(2), Fraction(10**800)).float_value is None
    assert Surd(Fraction(10**400), Fraction(1)).float_value is None
    assert Surd(Fraction(0), Fraction(1), Fraction(10**308), Fraction(10**10)).float_value is None


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
