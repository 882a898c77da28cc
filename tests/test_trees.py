import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jamestree.config import DEFAULT_CONFIG
from jamestree.errors import InvalidSegmentError
from jamestree.norms import evaluate_family
from jamestree.reference import naive_norm, padded_variants
from jamestree.sampling import random_vector
from jamestree.spaces import ALL_SPACES, JH, JH_INF, JT_INF, M_HYP
from jamestree.trees import (
    AdmissibleFamily,
    Closure,
    NodeOrder,
    Segment,
    _jt_core_candidates,
    aligned_candidates,
    avoiding_branch,
    enumerate_admissible_families,
    family_disjoint,
    is_admissible,
    max_index_used,
    node_order,
    segment_nodes,
    segments_disjoint,
)

nodes = st.lists(st.integers(min_value=0, max_value=3), max_size=5).map(tuple)


def test_node_order_examples():
    assert node_order((), (1,)) is NodeOrder.A_ANCESTOR_OF_B
    assert node_order((1,), (2,)) is NodeOrder.INCOMPARABLE
    assert node_order((0, 1), (0, 1)) is NodeOrder.EQUAL


@given(nodes, nodes)
def test_node_order_antisymmetry(a, b):
    order = node_order(a, b)
    flipped = node_order(b, a)
    if order is NodeOrder.EQUAL:
        assert flipped is NodeOrder.EQUAL and a == b
    elif order is NodeOrder.A_ANCESTOR_OF_B:
        assert flipped is NodeOrder.B_ANCESTOR_OF_A
    elif order is NodeOrder.INCOMPARABLE:
        assert flipped is NodeOrder.INCOMPARABLE


def test_segment_nodes_examples():
    assert segment_nodes(Segment((), (0, 1))) == ((), (0,), (0, 1))
    assert segment_nodes(Segment((2,), (2,))) == ((2,),)
    with pytest.raises(InvalidSegmentError):
        Segment((1,), (0,))


def test_is_admissible_examples():
    # a 0-1 and a 1-1 segment are not aligned in JH
    assert not is_admissible([Segment((), (0,)), Segment((1,), (1,))], JH)
    # JT_INF only needs disjointness
    assert is_admissible([Segment((), (1,)), Segment((2,), (2,))], JT_INF)
    # two aligned singletons
    assert is_admissible([Segment((0,), (0,)), Segment((1,), (1,))], JH)
    # hyperplane families start below the root
    assert not is_admissible([Segment((), (1,))], M_HYP)
    assert is_admissible([Segment((1,), (1, 0))], M_HYP)


@given(st.permutations(list(range(4))))
def test_is_admissible_permutation_invariant(perm):
    segs = [Segment((1,), (1, 0)), Segment((2,), (2, 2)), Segment((3,), (3, 1)), Segment((4,), (4, 0))]
    shuffled = [segs[i] for i in perm]
    assert is_admissible(shuffled, JH_INF) == is_admissible(segs, JH_INF)
    assert is_admissible(shuffled, JT_INF) == is_admissible(segs, JT_INF)


def test_enumeration_examples():
    fams = enumerate_admissible_families([(), (1,)], JT_INF)
    shapes = [tuple(s.sort_key() for s in f.segments) for f in fams]
    assert shapes == [
        ((((), ())),),
        ((((1,), (1,))),),
        ((((), (1,))),),
        (((), ()), ((1,), (1,))),
    ]
    fams_jh = enumerate_admissible_families([()], JH)
    assert len(fams_jh) == 1
    assert fams_jh[0].segments == (Segment((), ()),)
    assert enumerate_admissible_families([], JH) == []


def test_enumerated_families_are_admissible():
    rng = random.Random(3)
    for space in ALL_SPACES:
        for _ in range(10):
            x = random_vector(rng, space, max_level=3, max_nodes=4)
            for family in enumerate_admissible_families(x.support, space):
                assert is_admissible(family.segments, space)


def test_disjoint_extension_fact():
    # distinct bottoms at a common level have disjoint descendant subtrees
    rng = random.Random(5)
    for _ in range(200):
        level = rng.randint(1, 4)
        a = tuple(rng.randrange(3) for _ in range(level))
        b = tuple(rng.randrange(3) for _ in range(level))
        if a == b:
            continue
        below_a = a + tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
        below_b = b + tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
        assert node_order(below_a, below_b) is NodeOrder.INCOMPARABLE


def test_canonical_reduction_padding():
    # padding families with zero levels / zero segments never changes the optimum
    rng = random.Random(11)
    for space in ALL_SPACES:
        for _ in range(200):
            x = random_vector(rng, space, max_level=4, max_nodes=4, branching=3)
            value, _ = naive_norm(x, space)
            padded_max = Fraction(0)
            for family in enumerate_admissible_families(x.support, space):
                base = evaluate_family(family, x)
                padded_max = max(padded_max, base)
                for padded in padded_variants(family, x.support, 2, 2):
                    assert is_admissible(padded.segments, space)
                    assert evaluate_family(padded, x) == base
            assert padded_max == value


def test_avoiding_branch():
    paths = [(0, 1), (2,), (1, 1, 1)]
    branch = avoiding_branch(paths, 4)
    assert len(branch) == 4
    for node in branch:
        for p in paths:
            assert node_order(node, p) is NodeOrder.INCOMPARABLE


def test_family_sort_key_orders_by_size_then_nodes():
    small = AdmissibleFamily((Segment((1,), (1,)), Segment((2,), (2,))), JT_INF)
    long_chain = AdmissibleFamily((Segment((), (1,)), Segment((2,), (2,))), JT_INF)
    assert small.sort_key() < long_chain.sort_key()


def test_enumeration_cap_guard():
    from jamestree.errors import EnumerationCapError

    support = [(), (1,), (2,)]
    count = len(enumerate_admissible_families(support, JT_INF))
    assert count == 11
    # the guard counts emitted families: exactly `count` fit under the cap
    enumerate_admissible_families(support, JT_INF, DEFAULT_CONFIG.with_(family_cap=count))
    for cap in (3, count - 1):
        with pytest.raises(EnumerationCapError):
            enumerate_admissible_families(support, JT_INF, DEFAULT_CONFIG.with_(family_cap=cap))


def _brute_force_families(support, space):
    """Every subset of the canonical candidates that `family_disjoint` keeps,
    in canonical order."""
    closure = Closure(support)
    if not closure.support:
        return []
    top_level = max(len(n) for n in closure.support)
    if space.level_aligned:
        fresh = max_index_used(closure.support) + 1
        groups = [
            aligned_candidates(closure, p, q, space, fresh, DEFAULT_CONFIG)
            for q in range(space.min_top_level, top_level + 1)
            for p in range(space.min_top_level, q + 1)
        ]
    else:
        groups = [_jt_core_candidates(closure, DEFAULT_CONFIG)]
    out = []
    for cands in groups:
        for size in range(1, len(cands) + 1):
            for subset in combinations(cands, size):
                if family_disjoint(subset):
                    out.append(AdmissibleFamily(subset, space))
    out.sort(key=AdmissibleFamily.sort_key)
    return out


def test_enumeration_matches_brute_force_subsets():
    rng = random.Random(23)
    for space in ALL_SPACES:
        for _ in range(15):
            x = random_vector(rng, space, max_level=3, max_nodes=4, branching=2)
            assert enumerate_admissible_families(x.support, space) == _brute_force_families(
                x.support, space
            ), (space.kind, x.entries)


def test_segments_disjoint_matches_node_sets():
    rng = random.Random(7)
    for _ in range(300):
        def rand_seg():
            top = tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
            bottom = top + tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
            return Segment(top, bottom)

        s1, s2 = rand_seg(), rand_seg()
        expected = not (set(s1.nodes()) & set(s2.nodes()))
        assert segments_disjoint(s1, s2) == expected
