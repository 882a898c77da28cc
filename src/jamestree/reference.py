"""Reference implementations used only to cross-check the engines.

Everything here is deliberately naive: full enumeration of the canonical
family stream for norms, one exact LP over the complete constraint set (L1
spaces) or a grid scan (JT_INF) for dual norms.  Nothing in the package
imports this module outside of tests and the verification suite.
"""

from __future__ import annotations

from fractions import Fraction

from .config import DEFAULT_CONFIG, RunConfig
from .norms import evaluate_family
from .spaces import Node, SparseVector, SpaceKind, SpaceSpec
from .surds import sqrt_bounds
from .trees import (
    AdmissibleFamily,
    Segment,
    avoiding_branch,
    enumerate_admissible_families,
    max_index_used,
    segments_disjoint,
)


def naive_norm(
    x: SparseVector, space: SpaceSpec, config: RunConfig = DEFAULT_CONFIG
) -> tuple[Fraction, AdmissibleFamily]:
    """Exhaustive max over the canonical family stream.

    Returns (value, witness) for L1 spaces and (value squared, witness) for
    JT_INF, with the witness minimal in the canonical family order.
    """
    x.validate_for(space)
    best = Fraction(0)
    best_family = AdmissibleFamily((), space)
    best_key = None
    for family in enumerate_admissible_families(x.support, space, config):
        val = evaluate_family(family, x)
        key = family.sort_key()
        if val > best or (val == best and best_key is not None and key < best_key):
            best = val
            best_family = family
            best_key = key
        elif val == best and best_key is None and val > 0:
            best_family = family
            best_key = key
    return best, best_family


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
    depth reaches the deepest support level).
    """
    nodes: list[Node] = [()]
    frontier: list[Node] = [()]
    for _ in range(depth):
        frontier = [n + (i,) for n in frontier for i in range(branching)]
        nodes.extend(frontier)
    by_node: dict[Node, list[Node]] = {}
    for top in nodes:
        by_node[top] = [b for b in nodes if len(b) >= len(top) and b[: len(top)] == top]

    def chain_sum(top: Node, bottom: Node) -> Fraction:
        return sum(
            (x.value_at(bottom[:k]) for k in range(len(top), len(bottom) + 1)), Fraction(0)
        )

    best = Fraction(0)
    if space.level_aligned:
        for p in range(space.min_top_level, depth + 1):
            for q in range(p, depth + 1):
                cands = [
                    Segment(t, b)
                    for t in nodes
                    if len(t) == p
                    for b in by_node[t]
                    if len(b) == q
                ]
                chosen: list[Segment] = []

                def rec(start: int, acc: Fraction) -> None:
                    nonlocal best
                    if acc > best:
                        best = acc
                    for j in range(start, len(cands)):
                        seg = cands[j]
                        if all(segments_disjoint(seg, c) for c in chosen):
                            chosen.append(seg)
                            rec(j + 1, acc + abs(chain_sum(seg.top, seg.bottom)))
                            chosen.pop()

                rec(0, Fraction(0))
    else:
        cands = [Segment(t, b) for t in nodes for b in by_node[t]]
        chosen = []

        def rec(start: int, acc: Fraction) -> None:
            nonlocal best
            if acc > best:
                best = acc
            for j in range(start, len(cands)):
                seg = cands[j]
                if all(segments_disjoint(seg, c) for c in chosen):
                    chosen.append(seg)
                    s = chain_sum(seg.top, seg.bottom)
                    rec(j + 1, acc + s * s)
                    chosen.pop()

        rec(0, Fraction(0))
    return best


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

