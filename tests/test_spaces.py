from fractions import Fraction

import pytest

from jamestree.errors import InvalidVectorError
from jamestree.norms import norm
from jamestree.spaces import JH, M_HYP, SparseVector, embed_dyadic, project_levels, unit_vector


def test_zero_entries_dropped_and_sorted():
    x = SparseVector((((1,), Fraction(0)), ((0,), Fraction(2)), ((), Fraction(1))))
    assert x.entries == (((), Fraction(1)), ((0,), Fraction(2)))
    assert x.value_at((1,)) == 0


def test_duplicate_nodes_rejected():
    with pytest.raises(InvalidVectorError):
        SparseVector((((0,), Fraction(1)), ((0,), Fraction(2))))


def test_vector_arithmetic_cancels():
    x = unit_vector((1,)) + unit_vector((2,))
    y = x - unit_vector((2,))
    assert y == unit_vector((1,))
    assert (Fraction(0) * x).is_zero


def test_unit_vector_examples():
    assert unit_vector((0,)).entries == (((0,), Fraction(1)),)
    assert norm(unit_vector((0, 1)), JH).value == 1
    with pytest.raises(InvalidVectorError):
        unit_vector(()).validate_for(M_HYP)


def test_space_validation():
    with pytest.raises(InvalidVectorError):
        SparseVector((((2,), Fraction(1)),)).validate_for(JH)
    with pytest.raises(InvalidVectorError):
        SparseVector((((), Fraction(1)),)).validate_for(M_HYP)


def test_project_levels_examples():
    x = unit_vector(()) + unit_vector((1, 1))
    assert project_levels(x, 0) == unit_vector(())
    assert project_levels(x, 5) == x
    assert project_levels(x, 1).is_zero is False


def test_embed_dyadic_identity_and_validation():
    x = unit_vector((1, 0))
    assert embed_dyadic(x) == x
    assert embed_dyadic(SparseVector(())).is_zero
    with pytest.raises(InvalidVectorError):
        embed_dyadic(unit_vector((2,)))
