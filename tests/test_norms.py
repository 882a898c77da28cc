import random
from fractions import Fraction

from jamestree.norms import evaluate_family, literal_norm_sq_jt, norm
from jamestree.reference import naive_norm
from jamestree.sampling import nonzero_fraction, random_node, random_vector
from jamestree.spaces import (
    ALL_SPACES,
    JH,
    JH_INF,
    JT_INF,
    M_HYP,
    SparseVector,
    project_levels,
    unit_vector,
)
from jamestree.trees import AdmissibleFamily, Segment, enumerate_admissible_families, is_admissible


def singleton_slice_vector(eps):
    return SparseVector(
        (
            ((), 1 - eps),
            ((0,), eps),
            ((1,), -eps),
            ((0, 0), -eps),
            ((0, 1), -eps),
            ((1, 0), -eps),
            ((1, 1), eps),
        )
    )


def test_jh_seven_node_unit_vector():
    eps = Fraction(1, 5)
    res = norm(singleton_slice_vector(eps), JH)
    assert res.value == 1
    assert res.witness.segments == (Segment((), (0,)),)
    # every other family stays under max(1 - eps, 4 eps)
    x = singleton_slice_vector(eps)
    for family in enumerate_admissible_families(x.support, JH):
        if family.segments != (Segment((), (0,)),):
            assert evaluate_family(family, x) <= max(1 - eps, 4 * eps)


def test_jt_two_point_vector_is_unit():
    x = SparseVector((((), Fraction(4, 5)), ((1,), Fraction(1, 5))))
    res = norm(x, JT_INF)
    assert res.value_sq == 1
    assert res.witness.segments == (Segment((), (1,)),)


def test_jt_sibling_sum_sqrt_two():
    res = norm(unit_vector((1,)) + unit_vector((2,)), JT_INF)
    assert res.value_sq == 2
    assert res.witness.segments == (Segment((1,), (1,)), Segment((2,), (2,)))


def test_jh_three_node_example():
    x = unit_vector(()) + unit_vector((0,)) + unit_vector((1,))
    assert norm(x, JH).value == 2


def test_empty_vector_norm_zero():
    for space in ALL_SPACES:
        res = norm(SparseVector(()), space)
        assert res.witness.segments == ()
        assert res.float_value == 0.0


def test_unit_vectors_have_norm_one_everywhere():
    for space in ALL_SPACES:
        node = (1, 0) if space.dyadic else (2, 1)
        assert norm(unit_vector(node), space).eq(Fraction(1))


def _assert_engine_matches_oracle(x, space):
    res = norm(x, space)
    value, witness = naive_norm(x, space)
    engine_value = res.value if res.value is not None else res.value_sq
    assert engine_value == value
    if not x.is_zero:
        assert res.witness.sort_key() == witness.sort_key()
        assert evaluate_family(res.witness, x) == value
        assert is_admissible(res.witness.segments, space)
    return value


def test_engine_matches_oracle_including_witness_key():
    rng = random.Random(23)
    for space in ALL_SPACES:
        for _ in range(60):
            _assert_engine_matches_oracle(random_vector(rng, space, max_level=3, max_nodes=5), space)
    # Dyadic JT_INF vectors with entries in {1, -1, 2}: here several attaining
    # families often share the fewest segments and nodes, so the witness is
    # decided by the lex tie-break alone.
    rng = random.Random(43)
    ties = 0
    for _ in range(60):
        entries = {
            random_node(rng, JT_INF, 3, 2): Fraction(rng.choice((1, -1, 2)))
            for _ in range(rng.randint(1, 7))
        }
        x = SparseVector(tuple(entries.items()))
        value = _assert_engine_matches_oracle(x, JT_INF)
        families = enumerate_admissible_families(x.support, JT_INF)
        keys = [f.sort_key()[:2] for f in families if evaluate_family(f, x) == value]
        ties += keys.count(min(keys)) > 1
    assert ties > 0


def test_naive_norm_is_exact_first_maximum_of_the_stream():
    # mixed and huge denominators: the integer scores must give back exactly
    # the Fraction maximum of `evaluate_family` and its first attaining family
    # (±1/3 cancel, so some segments sum to zero)
    values = (Fraction(1, 3), Fraction(-1, 3), Fraction(-5, 7), Fraction(1, 10**30), Fraction(-7, 2 * 10**30 + 1))
    rng = random.Random(67)
    for space in ALL_SPACES:
        for _ in range(20):
            nodes = {random_node(rng, space, 3, 2) for _ in range(rng.randint(1, 6))}
            if space is M_HYP:
                nodes.discard(())  # the hyperplane carries no root entry
            x = SparseVector(tuple((n, rng.choice(values)) for n in sorted(nodes)))
            value, witness = naive_norm(x, space)
            best, first = Fraction(0), AdmissibleFamily((), space)
            for family in enumerate_admissible_families(x.support, space):
                v = evaluate_family(family, x)
                if v > best:
                    best, first = v, family
            assert value == best and witness == first, (space.kind, x.entries)
        assert naive_norm(SparseVector(()), space) == (0, AdmissibleFamily((), space))


def test_norm_axioms_randomized():
    rng = random.Random(29)
    for space in ALL_SPACES:
        for _ in range(25):
            x = random_vector(rng, space, max_level=3, max_nodes=4)
            y = random_vector(rng, space, max_level=3, max_nodes=4)
            q = nonzero_fraction(rng)
            rx, ry, rxy = norm(x, space), norm(y, space), norm(x + y, space)
            rqx = norm(x.scale(q), space)
            if rx.value is not None:
                assert rqx.value == abs(q) * rx.value
                assert rxy.value <= rx.value + ry.value
            else:
                assert rqx.value_sq == q * q * rx.value_sq
                diff = rxy.value_sq - rx.value_sq - ry.value_sq
                assert diff <= 0 or diff * diff <= 4 * rx.value_sq * ry.value_sq
            assert (rx.value == 0 if rx.value is not None else rx.value_sq == 0) == x.is_zero


def test_monotone_projections():
    rng = random.Random(31)
    for space in ALL_SPACES:
        for _ in range(25):
            x = random_vector(rng, space, max_level=4, max_nodes=5)
            full = norm(x, space)
            for level in range(0, max(x.max_level, 0) + 1):
                part = norm(project_levels(x, level), space)
                if full.value is not None:
                    assert part.value <= full.value
                else:
                    assert part.value_sq <= full.value_sq


def test_hyperplane_restriction_matches_jh_inf():
    rng = random.Random(37)
    for _ in range(50):
        x = random_vector(rng, M_HYP, max_level=3, max_nodes=5)
        assert norm(x, JH_INF).value == norm(x, M_HYP).value


def test_literal_variant():
    # sign cancellations can be skipped, so literal >= interval
    rng = random.Random(41)
    for _ in range(30):
        x = random_vector(rng, JT_INF, max_level=3, max_nodes=4)
        literal_sq, witness = literal_norm_sq_jt(x)
        assert literal_sq >= norm(x, JT_INF).value_sq
        if not x.is_zero:
            total = Fraction(0)
            for chain in witness:
                s = sum((x.value_at(n) for n in chain), Fraction(0))
                total += s * s
            assert total == literal_sq
    # a gapped chain beats every interval family here
    x = SparseVector((((), Fraction(1)), ((1,), Fraction(-1)), ((1, 1), Fraction(1))))
    assert norm(x, JT_INF).value_sq == 3  # three disjoint singletons
    literal_sq, _ = literal_norm_sq_jt(x)
    assert literal_sq == 5  # {root, (1,1)} skipping the flip, plus {(1,)}


def test_engine_matches_truncated_universe():
    # third route: every admissible family of an explicit bounded tree,
    # including support-disjoint segments and below-support bottoms
    from jamestree.reference import truncated_universe_norm

    rng = random.Random(59)
    for space in ALL_SPACES:
        depth = 3 if space.dyadic else 2
        for _ in range(8):
            x = random_vector(rng, space, max_level=2, max_nodes=3, branching=2)
            res = norm(x, space)
            brute = truncated_universe_norm(x, space, branching=2 if space.dyadic else 3, depth=depth)
            engine_value = res.value if res.value is not None else res.value_sq
            assert engine_value == brute, (space.kind, x.entries)
