from fractions import Fraction

import pytest

from jamestree.errors import InvalidFunctionalError
from jamestree.functionals import (
    MOLECULE,
    SIGNED_FAMILY,
    DualFunctional,
    best_molecule,
    evaluate,
    segment_functional,
    validate_functional,
)
from jamestree.spaces import JH_INF, JT_INF, M_HYP, SparseVector, unit_vector
from jamestree.trees import Segment


def test_evaluate_examples():
    x = SparseVector((((), Fraction(4, 5)), ((1,), Fraction(1, 5))))
    assert evaluate(segment_functional((), (1,)), x) == 1
    assert evaluate(segment_functional((), (1,)), SparseVector(())) == 0
    g = segment_functional((1,), (1,)) - segment_functional((2,), (2,))
    assert evaluate(g, unit_vector((1,)) - unit_vector((2,))) == 2


def test_best_molecule_examples():
    x = SparseVector((((), Fraction(4, 5)), ((1,), Fraction(1, 5))))
    fit = best_molecule((Segment((), ()), Segment((1,), (1,))), x)
    assert fit.value_sq == Fraction(17, 25)
    assert fit.proportions == (Fraction(4, 5), Fraction(1, 5))
    chain = best_molecule((Segment((), (1,)),), x)
    assert chain.value_sq == 1
    assert best_molecule((Segment((), (1,)),), SparseVector(())).value_sq == 0


def test_best_molecule_needs_disjoint_segments():
    with pytest.raises(InvalidFunctionalError):
        best_molecule((Segment((), (1,)), Segment((1,), (1, 0))), SparseVector(()))


def test_validate_molecule_mass():
    too_heavy = DualFunctional(
        ((Fraction(1), Segment((1,), (1,))), (Fraction(1), Segment((2,), (2,)))), MOLECULE
    )
    with pytest.raises(InvalidFunctionalError):
        validate_functional(too_heavy, JT_INF)
    ok = DualFunctional(
        ((Fraction(3, 5), Segment((1,), (1,))), (Fraction(4, 5), Segment((2,), (2,)))), MOLECULE
    )
    validate_functional(ok, JT_INF)


def test_validate_signed_family_alignment():
    # disjoint segments with one top level and two bottom levels: the L1
    # spaces need one common (p, q), JT_INF only disjointness
    crooked = DualFunctional(
        ((Fraction(1), Segment((1,), (1,))), (Fraction(-1), Segment((2,), (2, 0)))), SIGNED_FAMILY
    )
    for space in (JH_INF, M_HYP):
        with pytest.raises(InvalidFunctionalError):
            validate_functional(crooked, space)
    validate_functional(crooked, JT_INF)
    with pytest.raises(InvalidFunctionalError):
        validate_functional(
            DualFunctional(((Fraction(1, 2), Segment((1,), (1,))),), SIGNED_FAMILY), JH_INF
        )


def test_overlapping_chains_are_neither_a_family_nor_a_molecule():
    # f_[(0),(0,1)] and f_[(0,1),(0,1,0)] share the node (0, 1)
    segments = (Segment((0,), (0, 1)), Segment((0, 1), (0, 1, 0)))
    family = DualFunctional(tuple((Fraction(1), s) for s in segments), SIGNED_FAMILY)
    with pytest.raises(InvalidFunctionalError, match="admissible family"):
        validate_functional(family, JT_INF)  # JT_INF asks for disjointness alone
    molecule = DualFunctional(tuple((Fraction(1, 2), s) for s in segments), MOLECULE)
    with pytest.raises(InvalidFunctionalError, match="pairwise disjoint"):
        validate_functional(molecule, JT_INF)
    apart = DualFunctional(((Fraction(1, 2), segments[0]), (Fraction(1, 2), Segment((1,), (1, 0)))), MOLECULE)
    validate_functional(apart, JT_INF)


def test_coefficient_map_collapses_overlaps():
    g = segment_functional((), (1,)) - segment_functional((1,), (1,))
    assert g.coefficient_map() == {(): Fraction(1)}
    assert g.depth() == 1


def test_evaluation_is_linear():
    import random

    from jamestree.sampling import nonzero_fraction, random_signed_family, random_vector
    from jamestree.spaces import JH_INF

    rng = random.Random(61)
    for _ in range(30):
        g = random_signed_family(rng, JH_INF, 3)
        x = random_vector(rng, JH_INF, max_level=3, max_nodes=4)
        y = random_vector(rng, JH_INF, max_level=3, max_nodes=4)
        c = nonzero_fraction(rng)
        assert evaluate(g, x + y) == evaluate(g, x) + evaluate(g, y)
        assert evaluate(g, x.scale(c)) == c * evaluate(g, x)
        assert evaluate(g.scale(c), x) == c * evaluate(g, x)
