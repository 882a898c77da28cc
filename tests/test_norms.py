import hashlib
import json
import random
from fractions import Fraction

import pytest

from jamestree import norms
from jamestree.config import RunConfig
from jamestree.errors import EnumerationCapError
from jamestree.norms import NormResult, evaluate_family, literal_norm_sq_jt, norm
from jamestree.reference import naive_norm
from jamestree.sampling import nonzero_fraction, random_node, random_vector
from jamestree.schemas import norm_result_to_json
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
from jamestree.trees import (
    AdmissibleFamily,
    Closure,
    Segment,
    enumerate_admissible_families,
    is_admissible,
    literal_chain_subsets,
    scaled_prefix_sums,
)
from jamestree.verify import _triangle_ok


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
    # Large coprime denominators, and a tie: the chain from the root may take
    # either child, the other child and both grandchildren stay singletons.
    a, b, c = Fraction(1, 10007), Fraction(2, 9), Fraction(-3, 65537)
    x = SparseVector((((), a), ((0,), b), ((0, 0), c), ((1,), b), ((1, 0), c)))
    assert _assert_engine_matches_oracle(x, JT_INF) == (a + b) ** 2 + b * b + 2 * c * c


def test_jt_norm_results_are_pinned():
    # value and witness of 1500 seeded JT_INF vectors, hashed as JSON records
    rng = random.Random(2017)
    digest = hashlib.sha256()
    for _ in range(1500):
        x = random_vector(rng, JT_INF, max_level=rng.randint(1, 5), max_nodes=rng.randint(1, 9), branching=3)
        record = json.dumps(norm_result_to_json(norm(x, JT_INF)), sort_keys=True, separators=(",", ":"))
        digest.update(record.encode() + b"\n")
    assert digest.hexdigest() == "2b4b75c0dd94f1557529137695a37e82d4c506806b618a93671ecbc9ee4df4ba"


def test_l1_norm_results_are_pinned():
    # value and witness of 600 seeded JH, JH_INF and M_HYP vectors with 1 to
    # 48 support nodes, hashed as JSON records
    rng = random.Random(2018)
    digest = hashlib.sha256()
    for space in (JH, JH_INF, M_HYP):
        for _ in range(200):
            x = _support_vector(rng, rng.randint(1, 48), space)
            record = json.dumps(norm_result_to_json(norm(x, space)), sort_keys=True, separators=(",", ":"))
            digest.update(record.encode() + b"\n")
    assert digest.hexdigest() == "1467f3029d36f85f39376351750de069cfdac0ef5b1f9a78798c200e0e45db3f"


def _window_totals(x, space):
    """The closure, the sweep's level bounds, and every window total: (p, q)
    -> the sum of the level-p tops' optima."""
    closure = Closure(x.support)
    sums, _ = scaled_prefix_sums(x, closure)
    bounds = norms._level_bounds(closure, sums, space.min_top_level)
    open_ = [closure.extendable(i, space) for i in range(len(closure.level))]
    totals = {}
    for p in bounds:
        for u in (i for i, level in enumerate(closure.level) if level == p):
            for d, (best, _) in enumerate(norms._top_optima(closure, sums, open_, u)):
                totals[p, p + d] = totals.get((p, p + d), 0) + best
    return closure, bounds, totals


def test_level_bounds_cover_every_window():
    # The bound of level p is at least each of its window totals, and is the
    # q = depth total when every node is extendable.  In the dyadic JH a
    # node with both children present stops the chains that end there, so
    # the bound can exceed every total of its level; the sweep prunes on a
    # strict comparison and never assumes equality.
    rng = random.Random(83)
    strict = 0
    for space in (JH, JH_INF, M_HYP):
        for _ in range(60):
            x = _support_vector(rng, rng.randint(1, 24), space)
            closure, bounds, totals = _window_totals(x, space)
            assert sorted(bounds) == list(range(space.min_top_level, closure.max_level + 1))
            for (p, q), total in totals.items():
                assert bounds[p] >= total, (space.kind, x.entries, p, q)
            for p, bound in bounds.items():
                if not space.dyadic:
                    assert bound == totals[p, closure.max_level], (space.kind, x.entries, p)
                strict += bound > max(totals[p, q] for q in range(p, closure.max_level + 1))
    assert strict > 0


def test_aligned_sweep_skips_levels(monkeypatch):
    # Levels whose bound is below the best total found are never walked, so
    # fewer tops are walked than the closures hold; the results stay those
    # of the pinned engine above and of the oracle in the tie test below.
    # The walked count is pinned, so a change to the prune shows here.
    rng = random.Random(89)
    calls = []
    original = norms._top_optima

    def spy(closure, sums, open_, t):
        calls.append(t)
        return original(closure, sums, open_, t)

    monkeypatch.setattr(norms, "_top_optima", spy)
    tops = 0
    for space in (JH, JH_INF, M_HYP):
        for _ in range(30):
            x = _support_vector(rng, rng.randint(6, 48), space)
            res = norm(x, space)
            assert evaluate_family(res.witness, x) == res.value
            tops += sum(1 for node in Closure(x.support).nodes if len(node) >= space.min_top_level)
    assert 0 < len(calls) < tops, (len(calls), tops)
    assert (len(calls), tops) == (1029, 3583)


def _vector(*entries):
    return SparseVector(tuple((node, Fraction(value)) for node, value in entries))


@pytest.mark.parametrize(
    "x, counts",
    [
        # maximisers with (segments, nodes) = (2, 5), (4, 4) and (4, 5)
        (_vector(((), -2), ((0,), 1), ((0, 0, 0), -2), ((1,), 3)), (2, 5)),
        # maximisers with (2, 2) and (2, 3)
        (_vector(((0,), -1), ((0, 1), 1)), (2, 2)),
        # every closure node is its own segment: the largest counts the key holds
        (_vector(*(((0,) * k, (-1) ** k) for k in range(6))), (6, 6)),
    ],
    ids=["segments-before-nodes", "nodes-decide", "counts-fill-the-closure"],
)
def test_packed_jt_key_orders_segments_then_nodes(x, counts):
    assert _assert_engine_matches_oracle(x, JT_INF) > 0
    assert norm(x, JT_INF).witness.sort_key()[:2] == counts


def _support_vector(rng, size, space=JT_INF):
    entries = {}
    while len(entries) < size:
        entries.setdefault(random_node(rng, space, 5, 3), nonzero_fraction(rng))
    return SparseVector(tuple(entries.items()))


def _witness_vectors():
    """Seeded JT_INF vectors up to the 14-, 18- and 24-node vectors of the
    norm-jt benchmark, beyond the oracle."""
    rng = random.Random(61)
    xs = [random_vector(rng, JT_INF, max_level=4, max_nodes=8) for _ in range(40)]
    return xs + [_support_vector(rng, size) for size in (14, 18, 24) for _ in range(3)]


def _spy_fills(monkeypatch):
    """Record `(closure, sums, blocked, dp, below)` for every `_jt_fill` call."""
    fills = []
    original = norms._jt_fill

    def spy(closure, sums, blocked, order, dp, below):
        tables = original(closure, sums, blocked, order, dp, below)
        fills.append((closure, sums, blocked, dict(tables[0]), dict(tables[1])))
        return tables

    monkeypatch.setattr(norms, "_jt_fill", spy)
    return fills


def test_witness_path_updates_equal_full_reruns(monkeypatch):
    # Each witness probe recomputes one root path of the DP tables; every
    # table it leaves must be the DP run from scratch with the same nodes
    # blocked.
    xs = _witness_vectors()
    fills = _spy_fills(monkeypatch)
    results = [norm(x, JT_INF) for x in xs]
    monkeypatch.undo()
    probes = 0
    for closure, sums, blocked, dp, below in fills:
        assert (dp, below) == norms._jt_value_sq(closure, sums, blocked)
        probes += bool(blocked)
    assert probes > len(xs)
    for x, res in zip(xs, results):
        assert is_admissible(res.witness.segments, JT_INF)
        assert evaluate_family(res.witness, x) == res.value_sq


def test_witness_probe_count_is_pinned(monkeypatch):
    # Probes are the `_jt_fill` calls with a nonempty blocked set.  Only the
    # chains that head an optimal choice at their top are probed; before
    # that filter these vectors took 924 probes.
    fills = _spy_fills(monkeypatch)
    for x in _witness_vectors():
        norm(x, JT_INF)
    assert sum(bool(blocked) for _, _, blocked, _, _ in fills) == 251


def _unfiltered_witness(x):
    """The greedy witness with every unblocked candidate probed by a full DP
    rerun.  Returns the witness chains and the `(blocked, candidate,
    feasible)` record of each probe, in order."""
    closure = Closure(x.support)
    lex_sums, _ = scaled_prefix_sums(x, closure)
    sums = dict(zip(closure.sorted_nodes, lex_sums))  # the DP reads sums by node
    radix = norms._jt_radix(closure)
    goal = norms._jt_value_sq(closure, sums)[0].get((), 0)
    kept, probes, blocked, acc = [], [], frozenset(), 0
    for top, bottom, s in norms._jt_candidates(closure, lex_sums, RunConfig()):
        nodes = Segment(top, bottom).nodes()
        if acc == goal or blocked.intersection(nodes):
            continue
        step = acc + s * s * radix * radix - radix - len(nodes)
        trial = blocked.union(nodes)
        feasible = step + norms._jt_value_sq(closure, sums, trial)[0][()] == goal
        probes.append((trial, (top, bottom), feasible))
        if feasible:
            kept.append(Segment(top, bottom))
            blocked, acc = trial, step
    return tuple(kept), probes


def test_witness_filter_skips_only_infeasible_chains(monkeypatch):
    # The engine probes a chain only if it heads an optimal choice at its top
    # in the current tables.  Every chain it skips must fail the full-rerun
    # probe, and the witness must be the unfiltered greedy's.
    fills = _spy_fills(monkeypatch)
    runs = []
    for x in _witness_vectors():
        del fills[:]
        res = norm(x, JT_INF)
        runs.append((x, res, [blocked for _, _, blocked, _, _ in fills if blocked]))
    monkeypatch.undo()
    skipped = 0
    for x, res, probed in runs:
        kept, probes = _unfiltered_witness(x)
        assert res.witness.segments == kept, x.entries
        i = 0
        for trial, chain, feasible in probes:
            if i < len(probed) and probed[i] == trial:
                i += 1
            else:
                assert not feasible, (x.entries, chain)
                skipped += 1
        assert i == len(probed), x.entries
    assert skipped > 0


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


def test_naive_norm_results_are_pinned():
    # value and witness of the 1600 criterion-1 vectors of seeds 0 and 1
    # (drawn as `verify._check1_batch` draws them), hashed as JSON records
    digest = hashlib.sha256()
    for seed in (0, 1):
        for si, space in enumerate(ALL_SPACES):
            for ci in range(8):
                rng = random.Random(seed * 10_000 + si * 100 + ci)
                for _ in range(25):
                    x = random_vector(rng, space, max_level=4, max_nodes=6, branching=3)
                    value, witness = naive_norm(x, space)
                    segments = [[seg.top, seg.bottom] for seg in witness.segments]
                    record = json.dumps([space.kind.value, str(value), segments], separators=(",", ":"))
                    digest.update(record.encode() + b"\n")
    assert digest.hexdigest() == "9419c0aa2cd263ca89c1a87c624d8a42cd927cf39c5c4002f0c6c2cc1a84f736"


def test_naive_norm_keeps_the_first_of_tied_maxima():
    # Entries in {1, -1, 2}: many families attain the maximum, so the witness
    # rests on the canonical tie-break of the streamed oracle alone.
    rng = random.Random(73)
    for space in ALL_SPACES:
        tied = 0
        for _ in range(40):
            nodes = {random_node(rng, space, 3, 2) for _ in range(rng.randint(1, 6))}
            if space is M_HYP:
                nodes.discard(())  # the hyperplane carries no root entry
            x = SparseVector(tuple((n, Fraction(rng.choice((1, -1, 2)))) for n in sorted(nodes)))
            families = enumerate_admissible_families(x.support, space)
            values = [evaluate_family(f, x) for f in families]
            best = max(values, default=Fraction(0))
            first = families[values.index(best)] if best else AdmissibleFamily((), space)
            assert naive_norm(x, space) == (best, first), (space.kind, x.entries)
            tied += values.count(best) > 1
        assert tied > 0, space.kind


def test_naive_norm_trips_the_family_cap_like_the_enumeration():
    def raises(fn, cap):
        try:
            fn(RunConfig(family_cap=cap))
        except EnumerationCapError:
            return True
        return False

    # JT_INF has one candidate group: its 11 families fit under a cap of 11
    x = SparseVector((((), Fraction(1)), ((1,), Fraction(-1)), ((2,), Fraction(2))))
    assert len(enumerate_admissible_families(x.support, JT_INF)) == 11
    for cap in (10, 11):
        assert raises(lambda c: naive_norm(x, JT_INF, c), cap) == (cap == 10)
    # aligned spaces count each (p, q) window on its own, so a cap below the
    # total number of families can still pass
    y = SparseVector(
        (
            ((), Fraction(1)),
            ((0,), Fraction(2)),
            ((1,), Fraction(-1)),
            ((0, 0), Fraction(1)),
            ((1, 1), Fraction(2)),
        )
    )
    total = len(enumerate_admissible_families(y.support, JH))
    tripped = [
        cap
        for cap in range(1, total + 1)
        if raises(lambda c: enumerate_admissible_families(y.support, JH, c), cap)
    ]
    assert 0 < len(tripped) < total - 1
    for cap in range(1, total + 1):
        assert raises(lambda c: naive_norm(y, JH, c), cap) == (cap in tripped), cap


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


def test_criterion_10_triangle_check_can_fail():
    def l1(value):
        return NormResult(JH, Fraction(value), None, AdmissibleFamily((), JH))

    def jt(value_sq):
        return NormResult(JT_INF, None, Fraction(value_sq), AdmissibleFamily((), JT_INF))

    tiny = Fraction(1, 10**9)
    assert _triangle_ok(l1(1), l1(1), l1(2))
    assert not _triangle_ok(l1(1), l1(1), l1(2 + tiny))
    assert _triangle_ok(jt(2), jt(8), jt(18))  # sqrt(18) = sqrt(2) + sqrt(8)
    assert not _triangle_ok(jt(2), jt(8), jt(18 + tiny))


def test_jt_candidate_cap_counts_nonzero_chains():
    # chains with nonzero sum: four from the root, one from each other node
    x = SparseVector(
        (((), Fraction(1)), ((0,), Fraction(1)), ((0, 1), Fraction(-1)), ((1,), Fraction(2)))
    )
    assert norm(x, JT_INF, RunConfig(candidate_cap=7)).value_sq > 0
    with pytest.raises(EnumerationCapError):
        norm(x, JT_INF, RunConfig(candidate_cap=6))


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


def _disjoint_selections(chains):
    """Every pairwise-disjoint selection of `chains`, each in list order."""
    out = [()]
    for chain in chains:
        out += [sel + (chain,) for sel in out if not any(set(chain) & set(c) for c in sel)]
    return out


def _selection_key(sel):
    return (len(sel), sum(len(c) for c in sel), sel)


def test_literal_variant():
    # sign cancellations can be skipped, so literal >= interval
    rng = random.Random(41)
    vectors = [random_vector(rng, JT_INF, max_level=3, max_nodes=4) for _ in range(30)]
    # entries in {1, -1, 2}: attaining selections often tie in count and nodes
    for _ in range(30):
        entries = {random_node(rng, JT_INF, 3, 2): Fraction(rng.choice((1, -1, 2))) for _ in range(rng.randint(1, 5))}
        vectors.append(SparseVector(tuple(entries.items())))
    ties = 0
    for x in vectors:
        literal_sq, witness = literal_norm_sq_jt(x)
        assert literal_sq >= norm(x, JT_INF).value_sq
        if not x.is_zero:
            # the witness attains the value with the least (count, nodes, lex) key
            attaining = [
                _selection_key(sel)
                for sel in _disjoint_selections(literal_chain_subsets(x.support))
                if sum(sum(x.value_at(n) for n in c) ** 2 for c in sel) == literal_sq
            ]
            assert _selection_key(witness) == min(attaining), x.entries
            ties += sum(k[:2] == _selection_key(witness)[:2] for k in attaining) > 1
    assert ties > 0
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


def test_aligned_engine_matches_oracle_on_ties():
    # Entries in {1, -1, 2} on small trees: chains under one top often tie, as
    # do whole windows, so the witness rests on the canonical tie-break alone.
    # Dyadic closures with both children of a node present make that node a
    # bottom that cannot be extended, which the sweep must respect.
    rng = random.Random(71)
    top_ties = window_ties = blocked = 0
    for space in (JH, JH_INF, M_HYP):
        vectors = [SparseVector(())]
        for _ in range(70):
            entries = {
                random_node(rng, space, 3, 2): Fraction(rng.choice((1, -1, 2)))
                for _ in range(rng.randint(1, 8))
            }
            vectors.append(SparseVector(tuple(entries.items())))
        for x in vectors:
            res = norm(x, space)
            value, witness = naive_norm(x, space)
            assert (res.value, res.witness) == (value, witness), (space.kind, x.entries)
            attaining = [
                f for f in enumerate_admissible_families(x.support, space) if evaluate_family(f, x) == value
            ]
            windows = [(f.segments[0].p, f.segments[0].q) for f in attaining]
            # two attaining families in one window with the same tops differ
            # only in bottoms that tie under a common top
            tops = [(w, tuple(s.top for s in f.segments)) for w, f in zip(windows, attaining)]
            top_ties += len(set(tops)) < len(tops)
            window_ties += len(set(windows)) > 1
            closure = Closure(x.support)
            blocked += any(not closure.extendable(i, space) for i in range(len(closure.level)))
    assert top_ties > 0 and window_ties > 0 and blocked > 0, (top_ties, window_ties, blocked)
