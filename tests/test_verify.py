import time
from dataclasses import replace
from fractions import Fraction
from itertools import product

from jamestree import verify
from jamestree.functionals import segment_functional
from jamestree.trees import Segment
from jamestree.verify import _canonical_pair_key, _result


def _four_path_key(r_seg, s_seg):
    """The relabelling walked over all four paths, tops included, through one
    shared map of (relabelled parent, child index) -> new child index."""
    mapping, next_idx = {}, {}

    def relabel(path):
        cur, out = (), []
        for idx in path:
            if (cur, idx) not in mapping:
                mapping[cur, idx] = next_idx.get(cur, 0)
                next_idx[cur] = mapping[cur, idx] + 1
            out.append(mapping[cur, idx])
            cur += (out[-1],)
        return tuple(out)

    return tuple(relabel(path) for path in (r_seg.top, r_seg.bottom, s_seg.top, s_seg.bottom))


def test_canonical_pair_key_matches_four_path_relabelling():
    # the whole criterion-4 sweep of `check_53_bound`: disjoint segment pairs
    # at levels <= 4 with child indices <= 2
    keys, pairs = set(), 0
    for p in range(1, 5):
        tops = list(product(range(3), repeat=p))
        for q in range(p, 5):
            for r in range(q, 5):
                for top_r, top_s in product(tops, tops):
                    if top_r == top_s or (q == r and top_r > top_s):
                        continue
                    for eq in product(range(3), repeat=q - p):
                        for er in product(range(3), repeat=r - p):
                            seg_r, seg_s = Segment(top_r, top_r + eq), Segment(top_s, top_s + er)
                            key = _canonical_pair_key(seg_r, seg_s)
                            assert key == _four_path_key(seg_r, seg_s), (seg_r, seg_s)
                            keys.add(key)
                            pairs += 1
    assert pairs == 19740
    assert len(keys) == 35
    # every ordered pair of segments with tops on one level <= 4 and child
    # indices <= 2: the root, equal and overlapping segments included
    by_level = [[] for _ in range(5)]
    for q in range(5):
        for bottom in product(range(3), repeat=q):
            for p in range(q + 1):
                by_level[p].append(Segment(bottom[:p], bottom))
    pairs = 0
    for segs in by_level:
        for seg_r, seg_s in product(segs, segs):
            assert _canonical_pair_key(seg_r, seg_s) == _four_path_key(seg_r, seg_s), (seg_r, seg_s)
            pairs += 1
    assert pairs == 60955


def test_criterion_4_reports_each_pair_of_a_failing_class(monkeypatch):
    # one aligned class certified at upper 2: both of its flags fail, and
    # each of its pairs gets both messages, in sweep order (the messages
    # were taken from the check that judged every pair)
    real = verify.dual_norm
    target = segment_functional((0,), (0,)) - segment_functional((1,), (1,))

    def fake(g, space, **kw):
        cert = real(g, space, **kw)
        return replace(cert, upper=Fraction(2)) if g == target else cert

    monkeypatch.setattr(verify, "dual_norm", fake)
    result = verify.check_53_bound()
    assert not result.passed
    assert result.detail == (
        "pair (Segment(top=(0,), bottom=(0,)), Segment(top=(1,), bottom=(1,))) upper 2 > 5/3 + 1e-9; "
        "aligned pair (Segment(top=(0,), bottom=(0,)), Segment(top=(1,), bottom=(1,))) != 1 exactly; "
        "pair (Segment(top=(0,), bottom=(0,)), Segment(top=(2,), bottom=(2,))) upper 2 > 5/3 + 1e-9; "
        "aligned pair (Segment(top=(0,), bottom=(0,)), Segment(top=(2,), bottom=(2,))) != 1 exactly"
    )


def test_result_shows_the_detail_or_the_first_four_problems():
    started = time.monotonic()
    ok = _result("2", "name", [], "all good", started)
    assert ok.passed and ok.detail == "all good"
    failed = _result("2", "name", ["a", "b", "c", "d", "e"], "all good", started)
    assert not failed.passed and failed.detail == "a; b; c; d"
