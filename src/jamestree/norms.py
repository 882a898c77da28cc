"""Exact norm evaluation with attaining witness families.

The optimized engine never enumerates families wholesale.  Its aligned
sweep and its JT_INF DP read chain sums one way: `trees.scaled_prefix_sums`
gives integer root-to-node sums over the lcm `scale` of the entry
denominators, and a chain's sum is the bottom's sum minus that of the top's
parent.  For the level-aligned (L1) spaces the norm is the best (p, q) level
window, and a window's optimum is the sum, over the level-p nodes, of the
largest absolute chain sum under each (chains under distinct level-p nodes
never conflict, and no two admissible segments can share a level-p node).
One children-first pass bounds each top level p by the sum, over its
tops, of the largest absolute chain sum in the top's subtree; that bound is
at least every window total at level p, and equals the q = depth total when
every node is extendable (JH_INF, M_HYP).  Levels are visited in decreasing
bound order, and a level whose bound falls strictly below the best total
found so far is skipped, so no attaining window is lost.  The subtree of each
visited top is walked once and yields its optimum for every bottom level q at
once; only the windows that attain the largest total are turned into
segments.  For JT_INF one packing DP over the support closure
gives the value.  Its key (norm² times scale², then the negated segment and
node counts) is packed into one integer whose order is the lex order.  The
witness is built greedily over the candidate chains, integer triples
`(top, bottom, scaled sum)`.  A chain is probed only when it heads an
optimal choice at its top in the current tables; each probe blocks one more
chain and recomputes only the DP entries on the root path of the chain's
bottom, since no other subtree holds a newly blocked node.  The naive
exhaustive oracle lives in `reference` and is used in tests only; both
routes must agree exactly.

Witnesses are deterministic: the attaining family that is first in the
canonical enumeration order (segment count, then node count, then lex).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .config import DEFAULT_CONFIG, RunConfig
from .errors import EnumerationCapError, JamesTreeError
from .spaces import Node, ROOT, SparseVector, SpaceKind, SpaceSpec
from .surds import float_or_none, sqrt_bounds, sqrt_sum_sign
from .trees import (
    AdmissibleFamily,
    Closure,
    Segment,
    literal_chain_subsets,
    materialize_core,
    max_index_used,
    scaled_prefix_sums,
    segment_sum,
)


@dataclass(frozen=True)
class NormResult:
    """Exact optimum of the norm expression plus an attaining family.

    JT_INF norms are stored squared (`value_sq`) to stay rational; the L1
    spaces store the norm itself (`value`).  Exactly one of the two is set.
    """

    space: SpaceSpec
    value: Fraction | None
    value_sq: Fraction | None
    witness: AdmissibleFamily

    @property
    def float_value(self) -> float | None:
        if self.value is not None:
            return float_or_none(self.value)
        return float_or_none(self.value_sq, root=True)

    @property
    def squared(self) -> Fraction:
        """The norm squared, in every space."""
        return self.value * self.value if self.value is not None else self.value_sq

    def inverse_below(self, scale: int) -> Fraction:
        """A rational rho <= 1/norm: exactly 1/value for the L1 spaces; for
        JT_INF sqrt(value_sq) bracketed at 1/(d*scale) from below, divided by
        value_sq.  The scale shapes the rescaled vectors, so callers fix it."""
        if self.value is not None:
            return 1 / self.value
        return sqrt_bounds(self.value_sq, scale)[0] / self.value_sq

    # Exact comparisons against rational bounds, on the square of the norm.
    def le(self, bound: Fraction) -> bool:
        return sqrt_sum_sign(bound, -1, self.squared) >= 0

    def eq(self, bound: Fraction) -> bool:
        return sqrt_sum_sign(bound, -1, self.squared) == 0

    def exceeds_threshold(self, evaluation: Fraction, alpha: Fraction) -> bool:
        """True iff evaluation > norm - alpha, decided exactly."""
        return sqrt_sum_sign(evaluation + alpha, -1, self.squared) > 0


def _top_optima(
    closure: Closure, sums: dict[Node, int], top: Node, space: SpaceSpec
) -> list[tuple[int, list[Node]]]:
    """Best |chain sum| of a segment topped at `top`, per bottom level q.

    Entry `q - len(top)` holds, for q up to `closure.max_level`, the largest
    absolute core sum and every core bottom attaining it (empty when that is
    0).  A core may end at level q, or above q at a node that can continue
    through zero-valued fresh nodes (`closure.extendable`).  One walk of the
    subtree records both per level; a running maximum of the second over the
    levels above q then serves every q at once.
    """
    base = sums[top[:-1]] if top else 0
    levels = closure.max_level - len(top) + 1
    # per level d below `top`: best core ending there, and best extendable one
    exact = [0] * levels
    exact_ties: list[list[Node]] = [[] for _ in range(levels)]
    ext = [0] * levels
    ext_ties: list[list[Node]] = [[] for _ in range(levels)]
    stack = [top]
    while stack:
        v = stack.pop()
        a = abs(sums[v] - base)
        d = len(v) - len(top)
        if a:
            if a > exact[d]:
                exact[d], exact_ties[d] = a, [v]
            elif a == exact[d]:
                exact_ties[d].append(v)
            if closure.extendable(v, space):
                if a > ext[d]:
                    ext[d], ext_ties[d] = a, [v]
                elif a == ext[d]:
                    ext_ties[d].append(v)
        stack.extend(closure.children[v])
    optima = []
    run, run_ties = 0, []  # best extendable core ending above the current level
    for d in range(levels):
        best, ties = exact[d], exact_ties[d]
        if run > best:
            best, ties = run, run_ties
        elif run == best and run:
            ties = ties + run_ties
        optima.append((best, ties))
        if ext[d] > run:
            run, run_ties = ext[d], ext_ties[d]
        elif ext[d] == run and run:
            run_ties = run_ties + ext_ties[d]
    return optima


def _level_bounds(closure: Closure, sums: dict[Node, int], p_min: int) -> dict[int, int]:
    """Upper bound on every window total at top level p, for each p >= `p_min`.

    One children-first pass gives each node the largest and least scaled
    prefix sum in its subtree.  With `base` the sum at a top's parent, the
    larger of `hi - base` and `base - lo` is the largest absolute chain sum
    from that top down to any subtree node, which is at least the top's
    optimum for every bottom level q (each subtree node is a core bottom at
    its own level).  The bound of p sums that over the level-p tops; it is
    the q = depth total when every node is extendable.
    """
    children = closure.children
    hi: dict[Node, int] = {}
    lo: dict[Node, int] = {}
    bounds = dict.fromkeys(range(p_min, closure.max_level + 1), 0)
    for u in reversed(closure.sorted_nodes):
        h = l = sums[u]
        for c in children[u]:
            if hi[c] > h:
                h = hi[c]
            if lo[c] < l:
                l = lo[c]
        hi[u], lo[u] = h, l
        if len(u) >= p_min:
            base = sums[u[:-1]] if u else 0
            bounds[len(u)] += max(h - base, base - l)
    return bounds


def _aligned_norm(x: SparseVector, space: SpaceSpec, config: RunConfig) -> NormResult:
    """Norm of a level-aligned space: the best (p, q) window, in integers.

    Chain sums are integers over `scale` (`scaled_prefix_sums`).  Top levels
    p >= `space.min_top_level` are visited in decreasing `_level_bounds`
    order, and each top of a visited level has its subtree walked once
    (`_top_optima`); a window's total is the sum of its tops' optima.  A
    level whose bound is strictly below the best total so far holds no
    attaining window, so it and every level after it are skipped.  Only the
    windows that attain the largest total are materialized, and of those the
    family first in canonical order is the witness.
    """
    closure = Closure(x.support)
    sums, scale = scaled_prefix_sums(x, closure)
    p_min, depth = space.min_top_level, closure.max_level
    bounds = _level_bounds(closure, sums, p_min)
    optima: dict[Node, list[tuple[int, list[Node]]]] = {}
    totals: dict[tuple[int, int], int] = {}
    best_total = 0
    for p in sorted(bounds, key=bounds.__getitem__, reverse=True):
        if bounds[p] < best_total:
            break
        row = [0] * (depth - p + 1)
        for u in closure.by_level[p]:
            optima[u] = _top_optima(closure, sums, u, space)
            for d, (best, _) in enumerate(optima[u]):
                row[d] += best
        for d, total in enumerate(row):
            totals[p, p + d] = total
        best_total = max(best_total, *row)

    if best_total == 0:
        return NormResult(space, Fraction(0), None, AdmissibleFamily((), space))
    fresh = max_index_used(x.support) + 1

    def family(p: int, q: int) -> AdmissibleFamily:
        parts = []
        for u in closure.by_level[p]:
            best, ties = optima[u][q - p]
            if best:
                parts.append(
                    min(
                        (materialize_core(closure, u, v, q, space, fresh) for v in ties),
                        key=Segment.sort_key,
                    )
                )
        return AdmissibleFamily(tuple(parts), space)

    witness = min(
        (family(p, q) for (p, q), total in totals.items() if total == best_total),
        key=AdmissibleFamily.sort_key,
    )
    return NormResult(space, Fraction(best_total, scale), None, witness)


def _jt_candidates(x: SparseVector, closure: Closure, sums, config: RunConfig):
    """Support-meeting closure chains with nonzero sum, in canonical order,
    as integer triples `(top, bottom, scaled sum)`.

    Tops in lex order, each with its bottoms in lex order, are already in
    `Segment.sort_key` order."""
    cands: list[tuple[Node, Node, int]] = []
    for top in closure.sorted_nodes:
        above = sums[top[:-1]] if top else 0
        for bottom in closure.descendants_or_self(top):
            s = sums[bottom] - above
            if s != 0:
                cands.append((top, bottom, s))
                if len(cands) > config.candidate_cap:
                    raise EnumerationCapError(f"candidate segments exceeded cap {config.candidate_cap}")
    return cands


def _jt_radix(closure: Closure) -> int:
    """Radix W of the packed DP key `a·W² − segments·W − nodes`.

    `a` is norm² times scale².  Both counts of a family of closure chains are
    at most |closure| < W/4, so integer order is the lex order of
    (a, −segments, −nodes), and sums over disjoint parts stay exact.
    """
    return 4 * (len(closure.nodes) + 1)


def _jt_fill(
    closure: Closure, sums, blocked: frozenset, order, dp: dict, below: dict
) -> tuple[dict, dict]:
    """Set the packed DP entries of the nodes of `order`, children first.

    A node heads either no chain, and its children's subtrees add up
    (`below`), or one nonzero-sum chain avoiding `blocked`, beside the
    subtrees hanging off it.  Keys add over disjoint subtrees, so the max
    composes.  Entries of nodes outside `order` are read as they stand.
    """
    radix = _jt_radix(closure)
    unit = radix * radix
    children = closure.children
    for node in order:
        rest = sum(dp[c] for c in children[node])
        below[node] = best = rest
        if node not in blocked:
            above = sums[node[:-1]] if node else 0
            base = len(node) - 1 - radix  # node..bottom has len(bottom) - len(node) + 1 nodes
            stack = [(node, rest)]  # (bottom, key hanging off node..bottom)
            while stack:
                bottom, hang = stack.pop()
                s = sums[bottom] - above
                if s:
                    key = hang + s * s * unit + base - len(bottom)
                    if key > best:
                        best = key
                for c in children[bottom]:
                    if c not in blocked:
                        stack.append((c, hang - dp[c] + below[c]))
        dp[node] = best
    return dp, below


def _jt_value_sq(closure: Closure, sums, blocked: frozenset = frozenset()) -> tuple[dict, dict]:
    """The packed DP tables `(dp, below)` of the whole closure, avoiding
    `blocked`.  `dp[ROOT]` is the largest key of a family of closure chains;
    its `a` is norm² times scale², for `sums` and `scale` from
    `scaled_prefix_sums`.  The zero vector has an empty closure and tables."""
    return _jt_fill(closure, sums, blocked, reversed(closure.sorted_nodes), {}, {})


def _jt_witness(goal: int, closure: Closure, sums, cands, tables) -> AdmissibleFamily:
    """First attaining family in canonical order (count, node count, lex).

    The families with the fewest segments, then nodes, that attain the norm
    are those with key `goal`, so the witness is their lex-least sorted tuple.
    One pass over `cands`, in `Segment.sort_key` order, keeps a chain when
    some `goal` family contains it and the kept ones; a chain rejected once
    stays infeasible as more are kept.  `tables` are the DP with the kept
    nodes blocked.

    A chain S from `top` is probed only if it heads an optimal choice at
    `top`: its head key, `below[top]` plus `below[c] − dp[c]` over its other
    nodes c plus its own key, equals `dp[top]`.  That is exact.  A `goal`
    family holding S and the kept chains, less the kept chains, has key
    `dp[ROOT]` and avoids the blocked nodes; none of its other chains enters
    `top`'s subtree, as S holds `top`.  Its part inside that subtree is at
    most the head key, and its part outside at most `dp[ROOT] − dp[top]`,
    so the head key is at least, hence equal to, `dp[top]`.

    Blocking a chain changes only the entries of its bottom and that
    bottom's ancestors, so a probe recomputes that root path alone, deepest
    first, on a copy that becomes current when the chain is kept.
    """
    radix = _jt_radix(closure)
    unit = radix * radix
    dp, below = tables
    kept: list[Segment] = []
    blocked: frozenset = frozenset()
    acc = 0
    for top, bottom, s in cands:
        if acc == goal:
            break
        nodes = [bottom[:k] for k in range(len(top), len(bottom) + 1)]
        if not blocked.isdisjoint(nodes):
            continue
        key = s * s * unit - radix - len(nodes)
        head = below[top] + key
        for c in nodes[1:]:
            head += below[c] - dp[c]
        if head != dp[top]:
            continue
        trial = blocked.union(nodes)
        path = [bottom[:k] for k in range(len(bottom), -1, -1)]
        trial_dp, trial_below = _jt_fill(closure, sums, trial, path, dict(dp), dict(below))
        if acc + key + trial_dp[ROOT] == goal:
            kept.append(Segment(top, bottom))
            blocked, acc, dp, below = trial, acc + key, trial_dp, trial_below
    if acc != goal:
        raise JamesTreeError("internal error: no family attains the computed norm")
    return AdmissibleFamily(tuple(kept), SpaceSpec(SpaceKind.JT_INF))


def norm(x: SparseVector, space: SpaceSpec, config: RunConfig = DEFAULT_CONFIG) -> NormResult:
    """Exact norm of a finitely supported vector, with attaining witness.

    For JT_INF the result carries the exact squared value.  The literal
    segment variant has its own entry point (`literal_norm_sq_jt`).
    """
    x.validate_for(space)
    if space.aggregates_l1:
        return _aligned_norm(x, space, config)

    closure = Closure(x.support)
    sums, scale = scaled_prefix_sums(x, closure)
    tables = _jt_value_sq(closure, sums)
    goal = tables[0].get(ROOT, 0)  # the zero vector has an empty closure
    cands = _jt_candidates(x, closure, sums, config)
    witness = _jt_witness(goal, closure, sums, cands, tables)
    unit = _jt_radix(closure) ** 2
    # the count part of the key lies in [0, unit/4), so rounding recovers `a`
    return NormResult(space, None, Fraction((goal + unit // 2) // unit, scale * scale), witness)


def evaluate_family(family: AdmissibleFamily, x: SparseVector) -> Fraction:
    """Norm expression of one family: sum of |segment sums| (L1) or of squares."""
    sums = [segment_sum(x, seg) for seg in family.segments]
    # one normalization on a common denominator instead of a Fraction per term
    den = lcm(*(s.denominator for s in sums))
    nums = [s.numerator * (den // s.denominator) for s in sums]
    if family.space.aggregates_l1:
        return Fraction(sum(abs(n) for n in nums), den)
    return Fraction(sum(n * n for n in nums), den * den)


def literal_norm_sq_jt(
    x: SparseVector, config: RunConfig = DEFAULT_CONFIG
) -> tuple[Fraction, tuple[tuple[Node, ...], ...]]:
    """JT_INF norm squared under the literal segment reading (gaps allowed).

    Returns the exact squared value and a minimal attaining collection of
    totally ordered node sets.  Exhaustive over support-chain subsets, so this
    is a flagged diagnostic, not an engine path.
    """
    if x.is_zero:
        return Fraction(0), ()
    chains = [c for c in literal_chain_subsets(x.support)]
    sums = [sum((x.value_at(n) for n in c), Fraction(0)) for c in chains]
    cands = [(c, s * s) for c, s in zip(chains, sums) if s != 0]
    cands.sort(key=lambda cs: (len(cs[0]), cs[0]))
    suffix = [Fraction(0)] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + cands[i][1]

    # One search for the value and the minimal attaining selection: the
    # prune is strict so that selections tying the best value survive.
    best = Fraction(0)
    best_key: tuple = (0, 0, ())  # (count, node count, chains) of the selection
    sel: list[tuple[Node, ...]] = []
    visited = 0

    def rec(start: int, acc: Fraction, used: frozenset, size: int) -> None:
        nonlocal best, best_key, visited
        if acc >= best:
            key = (len(sel), size, tuple(sel))
            if acc > best or key < best_key:
                best, best_key = acc, key
        for j in range(start, len(cands)):
            if acc + suffix[j] < best:
                return
            chain, sq = cands[j]
            nodes = frozenset(chain)
            if not (nodes & used):
                visited += 1
                if visited > config.family_cap:
                    raise EnumerationCapError("literal enumeration exceeded family cap")
                sel.append(chain)
                rec(j + 1, acc + sq, used | nodes, size + len(chain))
                sel.pop()

    rec(0, Fraction(0), frozenset(), 0)
    return best, best_key[2]
