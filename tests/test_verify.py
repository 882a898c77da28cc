import time
from itertools import product

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


def test_result_shows_the_detail_or_the_first_four_problems():
    started = time.monotonic()
    ok = _result("2", "name", [], "all good", started)
    assert ok.passed and ok.detail == "all good"
    failed = _result("2", "name", ["a", "b", "c", "d", "e"], "all good", started)
    assert not failed.passed and failed.detail == "a; b; c; d"
