"""Reference implementations used only to cross-check the engines.

Everything here is deliberately naive: a visit of every family in the
canonical stream for norms, one exact LP over the complete constraint set (L1
spaces) or a grid scan (JT_INF) for dual norms.  The norm oracle walks the
same candidate groups as `trees.enumerate_admissible_families`, through the
same disjoint-subset walk (`trees._disjoint_subsets`), but scores each family
inside the walk instead of materializing and sorting the stream, so its
memory is linear in the candidates; it prunes nothing.  It keeps its own
scoring route, one exact `segment_sum` per candidate, and never the engine's
chain-sum primitive `trees.scaled_prefix_sums`.  The grid scan scores its
points with it too, so nothing here uses `norms` or `dualnorm`.  Nothing in
the package imports this module outside of tests and the verification suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable

from .config import DEFAULT_CONFIG, RunConfig
from .errors import CertificationError
from .spaces import Node, SparseVector, SpaceKind, SpaceSpec
from .surds import sqrt_bounds
from .trees import (
    AdmissibleFamily,
    Segment,
    _canonical_candidate_groups,
    _disjoint_subsets,
    avoiding_branch,
    enumerate_admissible_families,
    is_prefix,
    max_index_used,
    segment_sum,
)


def _integer_scores(x: SparseVector, space: SpaceSpec) -> tuple[Callable[[Segment], int], int]:
    """Exact integer segment scores and their common denominator.

    With `scale` the lcm of the entry denominators, `score(seg)` is
    |scale * segment sum| (L1) or (scale * segment sum)^2 (JT_INF), so a
    family's norm expression is its total score over the returned denominator.
    """
    scale = lcm(*(v.denominator for _, v in x.entries))

    def score(seg: Segment) -> int:
        total = segment_sum(x, seg)
        scaled = total.numerator * (scale // total.denominator)
        return abs(scaled) if space.aggregates_l1 else scaled * scaled

    return score, scale if space.aggregates_l1 else scale * scale


def naive_norm(
    x: SparseVector, space: SpaceSpec, config: RunConfig = DEFAULT_CONFIG
) -> tuple[Fraction, AdmissibleFamily]:
    """Exhaustive max over the canonical family stream, scored inside the walk.

    Returns (value, witness) for L1 spaces and (value squared, witness) for
    JT_INF, with the witness the first attaining family in the canonical
    order of `enumerate_admissible_families`.  Every family of every
    candidate group is visited, through `trees._disjoint_subsets`, but none
    is materialized: each candidate is scored once (`_integer_scores`), a
    family's total is the integer sum of its candidates' scores, and among
    the families with the largest total the one with the least (segment
    count, node count, segment keys) is kept.  Totals and (count, nodes)
    ranks are compared first; a segment tuple is built only for a family
    that ties or beats the best.  The walk's index lists are increasing and
    the candidates sorted, so the segment keys are already in canonical
    order; memory is linear in the candidates, not in the families.
    """
    x.validate_for(space)
    score, denominator = _integer_scores(x, space)
    best = 0
    best_rank = (0, 0)  # (segment count, node count) of best_segs
    best_segs: tuple[Segment, ...] = ()
    for cands in _canonical_candidate_groups(x.support, space, config):
        scores = [score(seg) for seg in cands]
        sizes = [seg.q - seg.p + 1 for seg in cands]

        def emit(chosen: list[int]) -> None:
            nonlocal best, best_rank, best_segs
            total = 0
            for i in chosen:
                total += scores[i]
            if total < best or total == 0:
                return
            nodes = 0
            for i in chosen:
                nodes += sizes[i]
            rank = (len(chosen), nodes)
            if total == best and rank > best_rank:
                return
            segs = tuple(cands[i] for i in chosen)
            if total == best and rank == best_rank and _segment_keys(segs) > _segment_keys(best_segs):
                return
            best, best_rank, best_segs = total, rank, segs

        _disjoint_subsets(cands, config.family_cap, emit)
    return Fraction(best, denominator), AdmissibleFamily(best_segs, space)


def _segment_keys(segs: tuple[Segment, ...]) -> tuple:
    return tuple(seg.sort_key() for seg in segs)


def _dyadic_zero_extension(bottom: Node, depth: int, support_set: frozenset) -> Node | None:
    from itertools import product

    for tail in product((0, 1), repeat=depth):
        nodes = [bottom + tail[:k] for k in range(1, depth + 1)]
        if all(n not in support_set for n in nodes):
            return bottom + tail
    return None


def padded_variants(
    family: AdmissibleFamily, support: tuple[Node, ...], extra_levels: int, extra_segments: int
) -> list[AdmissibleFamily]:
    """Zero-valued paddings of a canonical family.

    Extends every bottom by up to `extra_levels` zero-valued levels and
    appends up to `extra_segments` segments disjoint from the support,
    staying admissible for the family's space.  Dyadic extensions search for
    support-free tails and a variant is skipped when none exist; infinite
    branching always has fresh room.  Used to check that padding never
    changes the optimum.
    """
    space = family.space
    support_set = frozenset(tuple(n) for n in support)
    out = []
    base_paths = list(support) + [s.bottom for s in family.segments]
    fresh = max_index_used(base_paths) + 1
    for d in range(0, extra_levels + 1):
        if d == 0:
            segs = list(family.segments)
        elif space.dyadic:
            bottoms = [_dyadic_zero_extension(seg.bottom, d, support_set) for seg in family.segments]
            if None in bottoms:
                continue
            segs = [Segment(seg.top, b) for seg, b in zip(family.segments, bottoms)]
        else:
            segs = [Segment(seg.top, seg.bottom + (fresh,) + (0,) * (d - 1)) for seg in family.segments]
        if d:
            out.append(AdmissibleFamily(tuple(segs), space))
        # fresh disjoint branches need infinite branching, and a second
        # segment through the root is never disjoint
        if space.dyadic or space.level_aligned and segs[0].p == 0:
            continue
        p, q = (segs[0].p, segs[0].q) if space.level_aligned else (1, max(d, 1))
        all_paths = base_paths + [s.bottom for s in segs]
        for _ in range(extra_segments):
            branch = avoiding_branch(all_paths, q)
            segs.append(Segment(branch[p - 1], branch[q - 1]))
            all_paths.append(branch[q - 1])
            out.append(AdmissibleFamily(tuple(segs), space))
    return out


def truncated_universe_norm(
    x: SparseVector, space: SpaceSpec, branching: int, depth: int
) -> Fraction:
    """Exhaustive norm over EVERY admissible family in a bounded explicit tree.

    Unlike the canonical enumeration this includes segments disjoint from the
    support and bottoms below the support, so it independently validates the
    canonical reduction whenever the truncated universe has fresh room (its
    branching exceeds every index the canonical extensions would use, and its
    depth reaches the deepest support level).  Every pairwise-disjoint subset
    of the explicit candidates is visited by `trees._disjoint_subsets` (so
    the default `family_cap` bounds it), with each candidate scored once.
    """
    nodes: list[Node] = [()]
    frontier: list[Node] = [()]
    for _ in range(depth):
        frontier = [n + (i,) for n in frontier for i in range(branching)]
        nodes.extend(frontier)
    segments = [Segment(t, b) for t in nodes for b in nodes if is_prefix(t, b)]
    if space.level_aligned:
        groups = [
            [s for s in segments if s.p == p and s.q == q]
            for p in range(space.min_top_level, depth + 1)
            for q in range(p, depth + 1)
        ]
    else:
        groups = [segments]
    score, denominator = _integer_scores(x, space)
    best = 0
    for cands in groups:
        scores = [score(s) for s in cands]

        def emit(chosen: list[int]) -> None:
            nonlocal best
            total = 0
            for i in chosen:
                total += scores[i]
            if total > best:
                best = total

        _disjoint_subsets(cands, DEFAULT_CONFIG.family_cap, emit)
    return Fraction(best, denominator)


def dense_dual_norm_l1(
    g_coeffs: dict[Node, Fraction],
    variables: tuple[Node, ...],
    space: SpaceSpec,
    config: RunConfig = DEFAULT_CONFIG,
) -> Fraction:
    """Exact truncated dual norm by one LP over the full constraint set.

    The truncated unit ball of an L1 space is the polytope cut out by every
    signed canonical family constraint; a single exact simplex solve over all
    of them gives the same optimum as enumerating the polytope's vertices.
    The box |x_t| <= 1 holds on that ball and the solver keeps it as variable
    bounds, so only the signed-family rows are built.  The solver is the
    engine's own `lp.simplex_max`, so its optimizer is re-checked through the
    norm oracle alone: it must lie in the unit ball and attain the value, or
    CertificationError is raised.
    """
    from .lp import simplex_max

    rows: list[tuple[list[Fraction], Fraction]] = []
    families = enumerate_admissible_families(variables, space, config)
    index = {v: i for i, v in enumerate(variables)}
    for family in families:
        seg_rows = []
        for seg in family.segments:
            row = [Fraction(0)] * len(variables)
            for node in seg.nodes():
                if node in index:
                    row[index[node]] += 1
            seg_rows.append(row)
        for mask in range(1 << len(seg_rows)):
            row = [Fraction(0)] * len(variables)
            for i, seg_row in enumerate(seg_rows):
                sign = 1 if mask >> i & 1 else -1
                for k, c in enumerate(seg_row):
                    row[k] += sign * c
            rows.append((row, Fraction(1)))
    objective = [g_coeffs.get(v, Fraction(0)) for v in variables]
    value, x = simplex_max(objective, rows)
    optimizer = SparseVector(tuple((v, xv) for v, xv in zip(variables, x) if xv))
    if naive_norm(optimizer, space, config)[0] > 1:
        raise CertificationError("dense LP optimizer lies outside the unit ball")
    if sum((g_coeffs.get(v, Fraction(0)) * xv for v, xv in optimizer.entries), Fraction(0)) != value:
        raise CertificationError("dense LP optimizer does not attain the LP value")
    return value


def grid_scan_dual_norm_jt(
    g_coeffs: dict[Node, Fraction],
    variables: tuple[Node, ...],
    steps: int,
    config: RunConfig = DEFAULT_CONFIG,
) -> tuple[Fraction, Fraction]:
    """Grid scan for the JT_INF truncated dual norm.

    Scans the cube grid with `steps` subdivisions per axis, normalizes each
    point by its exact norm, and returns (certified lower bound, certified
    upper bound).  The upper bound uses that the JT_INF norm is dominated by
    the l1 norm, so the objective is Lipschitz with constant sum(|coeffs|)
    and the grid mesh is (dim * h / 2) in l1 distance.
    """
    space = SpaceSpec(SpaceKind.JT_INF)
    dim = len(variables)
    h = Fraction(1, steps)
    best_lower = Fraction(0)
    best_point_upper = Fraction(0)
    coeffs = [g_coeffs.get(v, Fraction(0)) for v in variables]

    def scan(point: list[Fraction], i: int) -> None:
        nonlocal best_lower, best_point_upper
        if i == dim:
            vec = SparseVector(tuple((v, c) for v, c in zip(variables, point) if c != 0))
            if vec.is_zero:
                return
            norm_sq = naive_norm(vec, space, config)[0]
            g_val = sum(c * p for c, p in zip(coeffs, point))
            if g_val <= 0:
                return
            # bracket g(p)/||p|| with rational approximations of 1/sqrt
            root_lo, root_hi = sqrt_bounds(norm_sq, 10**9)
            cand = g_val * (root_lo / norm_sq)
            if cand > best_lower:
                best_lower = cand
            cand_up = g_val * (root_hi / norm_sq)
            if cand_up > best_point_upper:
                best_point_upper = cand_up
            return
        k = -steps
        while k <= steps:
            point.append(Fraction(k, steps))
            scan(point, i + 1)
            point.pop()
            k += 1

    scan([], 0)
    mesh = Fraction(dim) * h / 2  # l1 distance from any unit vector to the grid
    lip = sum(abs(c) for c in coeffs)
    upper = best_point_upper * (1 + mesh) + lip * h / 2
    return best_lower, upper

