import hashlib
import json
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
    Segment,
    _jt_core_candidates,
    aligned_candidates,
    avoiding_branch,
    enumerate_admissible_families,
    family_disjoint,
    is_admissible,
    is_prefix,
    materialize_core,
    segments_disjoint,
)


def test_segment_chain_examples():
    assert Segment((), (0, 1)).nodes() == ((), (0,), (0, 1))
    assert Segment((2,), (2,)).nodes() == ((2,),)
    with pytest.raises(InvalidSegmentError):
        Segment((1,), (0,))


def test_segment_stores_tuples():
    class Path(tuple):
        pass

    seg = Segment([1], Path((1, 0)))
    assert type(seg.top) is tuple and type(seg.bottom) is tuple
    assert seg == Segment((1,), (1, 0)) and hash(seg) == hash(Segment((1,), (1, 0)))
    with pytest.raises(InvalidSegmentError):
        Segment([1], [0, 1])


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
        assert not is_prefix(below_a, below_b) and not is_prefix(below_b, below_a)


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
            assert not is_prefix(node, p) and not is_prefix(p, node)


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
    if space.level_aligned:
        groups = [
            aligned_candidates(closure, p, q, space, DEFAULT_CONFIG)
            for q in range(space.min_top_level, closure.max_level + 1)
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


def test_candidate_lists_match_their_definition():
    # each group against one built from node sets: every closure chain whose
    # nodes meet the support; an aligned core ends at level q, or above it at
    # a bottom with a child outside the closure (0 or 1 in JH, else the index
    # past every one used), padded by that child and then zeros; sorted
    rng = random.Random(31)
    for space in ALL_SPACES:
        for _ in range(40):
            x = random_vector(rng, space, max_level=4, max_nodes=7, branching=rng.choice((2, 3, 12)))
            closure = Closure(x.support)
            nodes, support = closure.nodes, set(x.support)
            chains = [
                Segment(top, bottom)
                for top in nodes
                for bottom in nodes
                if is_prefix(top, bottom) and set(Segment(top, bottom).nodes()) & support
            ]
            if not space.level_aligned:
                assert _jt_core_candidates(closure, DEFAULT_CONFIG) == sorted(chains, key=Segment.sort_key)
                continue
            fresh = max((i for node in nodes for i in node), default=-1) + 1
            steps = (0, 1) if space.dyadic else (fresh,)
            for q in range(space.min_top_level, closure.max_level + 2):
                for p in range(space.min_top_level, q + 1):
                    expected = []
                    for seg in chains:
                        if seg.p != p or seg.q > q:
                            continue
                        free = [i for i in steps if seg.bottom + (i,) not in nodes]
                        if seg.q == q:
                            expected.append(seg)
                        elif free:
                            expected.append(Segment(seg.top, seg.bottom + (free[0],) + (0,) * (q - seg.q - 1)))
                    got = aligned_candidates(closure, p, q, space, DEFAULT_CONFIG)
                    assert got == sorted(expected, key=Segment.sort_key), (space.kind, x.entries, p, q)


def test_materialize_core_pads_through_a_child_outside_the_closure():
    # lex indices: () 0, (1,) 1, (1, 0) 2 -- the root lacks child 0 and (1,)
    # lacks child 1 in JH; infinite branching steps past every index used
    closure = Closure([(1, 0)])
    assert materialize_core(closure, 0, 0, 2, JH) == Segment((), (0, 0))
    assert materialize_core(closure, 0, 1, 3, JH) == Segment((), (1, 1, 0))
    assert materialize_core(closure, 1, 2, 2, JH) == Segment((1,), (1, 0))
    assert materialize_core(closure, 0, 1, 2, JH_INF) == Segment((), (1, 2))
    with pytest.raises(InvalidSegmentError):
        materialize_core(Closure([(0,), (1,)]), 0, 0, 1, JH)


def test_enumeration_is_pinned():
    # the canonical family stream of seeded supports in every space, with and
    # without a level cap, hashed one family per line
    rng = random.Random(29)
    digest = hashlib.sha256()
    for space in ALL_SPACES:
        for _ in range(60):
            x = random_vector(rng, space, max_level=4, max_nodes=6, branching=3)
            q_cap = rng.choice((None, 2, 3))
            for family in enumerate_admissible_families(x.support, space, q_cap=q_cap):
                record = json.dumps([[seg.top, seg.bottom] for seg in family.segments], separators=(",", ":"))
                digest.update(record.encode() + b"\n")
            digest.update(b"--\n")
    assert digest.hexdigest() == "f62958d411d60d697fd1e249b5935550ca236bfdd797b3829bea0e1f75610b42"


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


def test_chains_sharing_a_node_are_no_family():
    shared = [Segment((0,), (0, 1)), Segment((0, 1), (0, 1, 0))]
    assert not family_disjoint(shared)
    assert not is_admissible(shared, JT_INF)  # JT_INF asks for disjointness alone
    assert family_disjoint([]) and family_disjoint(shared[:1])


def test_family_disjoint_matches_node_sets():
    rng = random.Random(19)
    seen = {True: 0, False: 0}
    for _ in range(400):
        family = []
        for _ in range(rng.randint(0, 4)):
            bottom = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
            family.append(Segment(bottom[: rng.randint(0, len(bottom))], bottom))
        expected = all(
            not set(s1.nodes()) & set(s2.nodes()) for s1, s2 in combinations(family, 2)
        )
        assert family_disjoint(family) == expected, family
        seen[expected] += 1
    assert min(seen.values()) > 50


def _closure_by_definition(support):
    """The closure views from the set of all prefixes, sorted."""
    support = frozenset(tuple(n) for n in support)
    nodes = tuple(sorted(frozenset(n[:k] for n in support for k in range(len(n) + 1))))
    children = {n: tuple(c for c in nodes if c and c[:-1] == n) for n in nodes}
    return support, nodes, children, max(map(len, nodes), default=-1)


def test_one_pass_closure_matches_the_prefix_set():
    # unsorted input, list-typed nodes, duplicates, the root alone and the
    # empty support, besides seeded supports with child indices past 9
    rng = random.Random(101)
    supports = [[], [()], [(), ()], [[0, 1], (0, 1), [2]], [(3,), (), (0, 0), (0,)]]
    for _ in range(200):
        support = [
            tuple(rng.randrange(rng.choice((2, 3, 12))) for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(1, 12))
        ]
        support += rng.sample(support, rng.randint(0, len(support)))  # duplicates
        rng.shuffle(support)
        supports.append([list(n) if rng.random() < 0.3 else n for n in support])
    for support in supports:
        closure = Closure(support)
        expected = _closure_by_definition(support)
        views = (closure.support, closure.sorted_nodes, closure.children, closure.max_level)
        assert views == expected, support
        assert closure.nodes == frozenset(expected[1])
        for i, node in enumerate(closure.sorted_nodes):
            assert closure.level[i] == len(node)
            assert closure.parent[i] == (closure.sorted_nodes.index(node[:-1]) if node else -1)
            subtree = tuple(n for n in expected[1] if is_prefix(node, n))
            assert closure.sorted_nodes[i : closure.end[i]] == subtree, (support, node)
            # a dyadic node has a fresh child iff fewer than two children are present
            assert closure.extendable(i, JH) == (len(expected[2][node]) < 2), (support, node)
            assert closure.extendable(i, JT_INF)
