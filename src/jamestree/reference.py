"""Reference implementations used only to cross-check the engines.

Everything here is deliberately naive: full enumeration of the canonical
family stream for norms, one exact LP over the complete constraint set (L1
spaces) or a grid scan (JT_INF) for dual norms.  Nothing in the package
imports this module outside of tests and the verification suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable

from .config import DEFAULT_CONFIG, RunConfig
from .spaces import Node, SparseVector, SpaceKind, SpaceSpec
from .surds import sqrt_bounds
from .trees import (
    AdmissibleFamily,
    Segment,
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
        scaled = (segment_sum(x, seg) * scale).numerator
        return abs(scaled) if space.aggregates_l1 else scaled * scaled

    return score, scale if space.aggregates_l1 else scale * scale


def naive_norm(
    x: SparseVector, space: SpaceSpec, config: RunConfig = DEFAULT_CONFIG
) -> tuple[Fraction, AdmissibleFamily]:
    """Exhaustive max over the canonical family stream.

    Returns (value, witness) for L1 spaces and (value squared, witness) for
    JT_INF, with the witness minimal in the canonical family order: the stream
    is sorted, so the first family with a strictly larger value is kept.
    Each distinct segment is scored once (`_integer_scores`) and families are
    compared by their integer totals.
    """
    x.validate_for(space)
    score, denominator = _integer_scores(x, space)
    scores: dict[Segment, int] = {}
    best = 0
    best_family = AdmissibleFamily((), space)
    for family in enumerate_admissible_families(x.support, space, config):
        total = 0
        for seg in family.segments:
            s = scores.get(seg)
            if s is None:
                s = scores[seg] = score(seg)
            total += s
        if total > best:
            best = total
            best_family = family
    return Fraction(best, denominator), best_family


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
        for extra in range(0, extra_segments + 1):
            if d == 0 and extra == 0:
                continue
            segs = []
            ok = True
            for seg in family.segments:
                if d == 0:
                    segs.append(seg)
                    continue
                if space.dyadic:
                    new_bottom = _dyadic_zero_extension(seg.bottom, d, support_set)
                    if new_bottom is None:
                        ok = False
                        break
                else:
                    new_bottom = seg.bottom + (fresh,) + (0,) * (d - 1)
                segs.append(Segment(seg.top, new_bottom))
            if not ok:
                continue
            if extra:
                if space.dyadic:
                    continue  # fresh disjoint branches need infinite branching
                all_paths = base_paths + [s.bottom for s in segs]
                if space.level_aligned:
                    p, q = segs[0].p, segs[0].q
                    if p == 0:
                        continue  # a second segment through the root is never disjoint
                else:
                    p, q = 1, max(d, 1)
                for _ in range(extra):
                    branch = avoiding_branch(all_paths, q)
                    segs.append(Segment(branch[p - 1], branch[q - 1]))
                    all_paths = all_paths + [segs[-1].bottom]
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
    scores = {s: score(s) for group in groups for s in group}
    best = 0

    def emit(family: tuple[Segment, ...]) -> None:
        nonlocal best
        total = sum(scores[s] for s in family)
        if total > best:
            best = total

    for cands in groups:
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
    bounds, so only the signed-family rows are built.
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
    value, _ = simplex_max(objective, rows)
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
    from .norms import norm as norm_engine

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
            res = norm_engine(vec, space, config)
            g_val = sum(c * p for c, p in zip(coeffs, point))
            if g_val <= 0:
                return
            # bracket g(p)/||p|| with rational approximations of 1/sqrt
            root_lo, root_hi = sqrt_bounds(res.value_sq, 10**9)
            cand = g_val * (root_lo / res.value_sq)
            if cand > best_lower:
                best_lower = cand
            cand_up = g_val * (root_hi / res.value_sq)
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

