"""Node addressing, segment (chain) geometry and canonical family enumeration.

A segment is the interval chain between a top node and one of its
descendants.  An admissible family is a set of pairwise node-disjoint
segments; the L1 spaces additionally require every segment to span the same
levels p..q (and the hyperplane canonicalizes to p >= 1).

The canonical enumeration reduces the supremum over all families in the
infinite tree to a finite one:

* segments disjoint from the support contribute nothing and are dropped;
* bottoms below the deepest support level are trimmed (distinct bottoms at a
  common level have disjoint descendant subtrees, so trimmed families stay
  admissible);
* what remains of each segment inside the ancestor closure of the support is
  a chain with both endpoints in the closure ("core"); level-aligned families
  re-extend short cores down to the common bottom level through zero-valued
  fresh children, which exist whenever some child of the core bottom lies
  outside the closure (always, for infinite branching).

Enumerated families materialize those extensions, so every emitted family is
literally admissible and evaluates to its core sums.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import EnumerationCapError, InvalidSegmentError, wire_text
from .spaces import Node, SparseVector, SpaceSpec


def is_prefix(a: Node, b: Node) -> bool:
    """True iff a is an ancestor of b or equal to it."""
    return len(a) <= len(b) and b[: len(a)] == a


@dataclass(frozen=True)
class Segment:
    """Interval chain from `top` down to `bottom` (inclusive)."""

    top: Node
    bottom: Node

    def __post_init__(self) -> None:
        if type(self.top) is not tuple:  # lists and tuple subclasses become tuples
            object.__setattr__(self, "top", tuple(self.top))
        if type(self.bottom) is not tuple:
            object.__setattr__(self, "bottom", tuple(self.bottom))
        if not is_prefix(self.top, self.bottom):
            raise InvalidSegmentError(
                f"top {wire_text(self.top)} is not an ancestor-or-equal of bottom {wire_text(self.bottom)}"
            )

    @property
    def p(self) -> int:
        return len(self.top)

    @property
    def q(self) -> int:
        return len(self.bottom)

    def nodes(self) -> tuple[Node, ...]:
        """The unique chain top..bottom, ordered by level."""
        return tuple(self.bottom[:k] for k in range(self.p, self.q + 1))

    def contains(self, node: Node) -> bool:
        return len(self.top) <= len(node) <= len(self.bottom) and self.bottom[: len(node)] == node

    def sort_key(self) -> tuple[Node, Node]:
        return (self.top, self.bottom)


def segment_sum(x: SparseVector, seg: Segment) -> Fraction:
    """Sum of the entries of x on the chain of `seg`."""
    p, q, bottom = len(seg.top), len(seg.bottom), seg.bottom
    on_chain = [v for n, v in x.entries if p <= len(n) <= q and bottom[: len(n)] == n]
    # starting from the first term saves a Fraction addition per call
    return sum(on_chain[1:], on_chain[0]) if on_chain else Fraction(0)


def segments_disjoint(s1: Segment, s2: Segment) -> bool:
    # Two chains intersect iff the deeper top lies on the other chain.
    top, other = (s1.top, s2) if len(s1.top) >= len(s2.top) else (s2.top, s1)
    depth = len(top)
    return depth > len(other.bottom) or other.bottom[:depth] != top


def family_disjoint(segments: Sequence[Segment]) -> bool:
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            if not segments_disjoint(segments[i], segments[j]):
                return False
    return True


def is_admissible(segments: Sequence[Segment], space: SpaceSpec) -> bool:
    if not family_disjoint(segments):
        return False
    if space.level_aligned and segments:
        p0, q0 = segments[0].p, segments[0].q
        if not all(s.p == p0 and s.q == q0 for s in segments):
            return False
    return all(s.p >= space.min_top_level for s in segments)


@dataclass(frozen=True)
class AdmissibleFamily:
    """A finite family of segments together with the space it is read in."""

    segments: tuple[Segment, ...]
    space: SpaceSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(sorted(self.segments, key=Segment.sort_key)))

    @property
    def node_count(self) -> int:
        return sum(s.q - s.p + 1 for s in self.segments)

    def sort_key(self):
        """Deterministic enumeration order: size, then total nodes, then lex."""
        return (len(self.segments), self.node_count, tuple(s.sort_key() for s in self.segments))


def max_index_used(paths: Iterable[Node]) -> int:
    """Largest child index appearing in the given paths; -1 if none."""
    best = -1
    for path in paths:
        for idx in path:
            if idx > best:
                best = idx
    return best


class Closure:
    """Ancestor closure of a finite support, indexed for chain traversal.

    One pass over the sorted support builds it: each support node adds its
    prefixes longer than its common prefix with the previous one, in lex
    order.  Node i of `sorted_nodes` has level `level[i]`, parent `parent[i]`
    (-1 for the root) and subtree `sorted_nodes[i:end[i]]`; the node-keyed
    `children` and `by_level`, and the flags `in_support`, are built on
    first use.
    """

    def __init__(self, support: Iterable[Node]):
        leaves = sorted(map(tuple, support))  # a repeated node adds no prefix
        self.support: frozenset[Node] = frozenset(leaves)
        nodes, level, parent, end, path, prev = [], [], [], [], [], ()  # path: indices of prev's prefixes
        for leaf in leaves:
            k = 0
            if path:
                stop = min(len(leaf), len(prev))
                while k < stop and leaf[k] == prev[k]:
                    k += 1
                k += 1  # the common prefix, root included, is already in place
                for i in path[k:]:
                    end[i] = len(nodes)
                del path[k:]
            for k in range(k, len(leaf) + 1):
                path.append(len(nodes))
                parent.append(path[-2] if k else -1)
                nodes.append(leaf[:k])
                level.append(k)
                end.append(0)
            prev = leaf
        self.sorted_nodes: tuple[Node, ...] = tuple(nodes)
        self.nodes: frozenset[Node] = frozenset(nodes)
        self.level, self.parent, self.max_level = level, parent, max(level, default=-1)
        self.end: list[int] = [e or len(nodes) for e in end]  # subtrees still open at the last leaf

    @cached_property
    def children(self) -> dict[Node, tuple[Node, ...]]:
        kids: list[list[Node]] = [[] for _ in self.sorted_nodes]
        for node, up in zip(self.sorted_nodes[1:], self.parent[1:]):
            kids[up].append(node)
        return dict(zip(self.sorted_nodes, map(tuple, kids)))

    @cached_property
    def in_support(self) -> list[bool]:
        """Whether node i of `sorted_nodes` is a support node."""
        return [node in self.support for node in self.sorted_nodes]

    @cached_property
    def by_level(self) -> dict[int, tuple[Node, ...]]:
        return {d: tuple(n for n in self.sorted_nodes if len(n) == d) for d in range(self.max_level + 1)}

    def descendants_or_self(self, node: Node) -> tuple[Node, ...]:
        """The closure nodes under closure node `node`, itself included, in lex order."""
        i = bisect_left(self.sorted_nodes, node)
        return self.sorted_nodes[i : self.end[i]]

    def extendable(self, node: Node, space: SpaceSpec) -> bool:
        """Can a chain stop here and continue through zero-valued fresh nodes?

        Dyadic trees have two children, so a fresh child exists iff fewer than
        two children are in the closure; infinite branching always has one.
        """
        if space.dyadic:
            return len(self.children[node]) < 2
        return True

    def fresh_child_step(self, node: Node, space: SpaceSpec, fresh_index: int) -> Node:
        if space.dyadic:
            for idx in (0, 1):
                if node + (idx,) not in self.nodes:
                    return node + (idx,)
            raise InvalidSegmentError(f"no fresh dyadic child under {node!r}")
        return node + (fresh_index,)


def scaled_prefix_sums(x: SparseVector, closure: Closure) -> tuple[list[int], int]:
    """Root-to-node sums of x over the closure, in integers, and their scale.

    With `scale` the lcm of the entry denominators, every sum is an integer
    multiple of 1/scale; `sums[i]` holds that multiple for node i of
    `closure.sorted_nodes`, and `sums[-1] == 0` the sum above the root.  The
    chain sum of top t down to b is `(sums[b] - sums[closure.parent[t]]) / scale`.
    """
    ratios = [(n, v.as_integer_ratio()) for n, v in x.entries]
    scale = lcm(*(den for _, (_, den) in ratios))
    scaled = {n: num * (scale // den) for n, (num, den) in ratios}
    sums = [0] * (len(closure.sorted_nodes) + 1)
    for i, (node, up) in enumerate(zip(closure.sorted_nodes, closure.parent)):
        sums[i] = sums[up] + scaled.get(node, 0)  # lex order puts every parent first
    return sums, scale


def materialize_core(
    closure: Closure, top: Node, core_bottom: Node, q: int, space: SpaceSpec, fresh_index: int
) -> Segment:
    """Turn a closure core into a p-q segment, padding with zero-valued nodes."""
    if len(core_bottom) == q:
        return Segment(top, core_bottom)
    step = closure.fresh_child_step(core_bottom, space, fresh_index)
    bottom = step + (0,) * (q - len(step))
    return Segment(top, bottom)


def _guard(count: int, cap: int, what: str) -> None:
    if count > cap:
        raise EnumerationCapError(f"{what} exceeded cap {cap}")


def _disjoint_subsets(
    candidates: Sequence[Segment],
    family_cap: int,
    emit: Callable[[list[int]], None],
) -> None:
    """Emit every nonempty pairwise-disjoint subset, in DFS order over the
    candidate list, as the increasing list of its candidate indices.

    This is the one walk over disjoint subsets: the canonical enumeration
    and the norm oracle both visit their families through it.  The list
    handed to `emit` is the walk's own and changes once `emit` returns, so a
    caller that keeps a family copies it.  Disjointness is tested once per
    candidate pair: bit k of `fits[j]` is set when candidate k > j misses
    candidate j.  The DFS carries the mask of the later candidates that miss
    every chosen one, so it steps only through those.
    """
    n = len(candidates)
    fits = [0] * n
    for j in range(n):
        for k in range(j + 1, n):
            if segments_disjoint(candidates[j], candidates[k]):
                fits[j] |= 1 << k
    count = 0
    chosen: list[int] = []

    def rec(free: int) -> None:
        nonlocal count
        while free:
            low = free & -free
            free ^= low
            j = low.bit_length() - 1
            chosen.append(j)
            count += 1
            if count > family_cap:
                raise EnumerationCapError(f"family enumeration exceeded cap {family_cap}")
            emit(chosen)
            if free & fits[j]:
                rec(free & fits[j])
            chosen.pop()

    rec((1 << n) - 1)


def _jt_core_candidates(closure: Closure, config: RunConfig) -> list[Segment]:
    """Every closure chain that meets the support.

    Each top's index range is walked once; whether the chain from the top
    meets the support passes from parent to child, lex order putting every
    parent first."""
    nodes, parent, end, in_support = closure.sorted_nodes, closure.parent, closure.end, closure.in_support
    meets = [False] * len(nodes)
    cands = []
    for t, top in enumerate(nodes):
        for i in range(t, end[t]):
            meets[i] = in_support[i] or i != t and meets[parent[i]]
            if meets[i]:
                cands.append(Segment(top, nodes[i]))
                _guard(len(cands), config.candidate_cap, "candidate segments")
    return cands  # lex tops, each with its lex bottoms: in Segment.sort_key order


def aligned_candidates(
    closure: Closure, p: int, q: int, space: SpaceSpec, fresh_index: int, config: RunConfig
) -> list[Segment]:
    """Materialized p-q candidates whose cores meet the support.

    The cores of a level-p top are the nodes of its index range up to level
    q, walked once as in `_jt_core_candidates`."""
    nodes, level, parent, end, in_support = (
        closure.sorted_nodes,
        closure.level,
        closure.parent,
        closure.end,
        closure.in_support,
    )
    n = len(nodes)
    meets = [False] * n
    cands = []
    t = 0
    while t < n:
        if level[t] != p:  # a node deeper than p lies in the range of a level-p top
            t += 1
            continue
        top = nodes[t]
        for i in range(t, end[t]):
            if level[i] > q:
                continue
            meets[i] = in_support[i] or i != t and meets[parent[i]]
            if not meets[i] or level[i] < q and not closure.extendable(nodes[i], space):
                continue
            cands.append(materialize_core(closure, top, nodes[i], q, space, fresh_index))
            _guard(len(cands), config.candidate_cap, "candidate segments")
        t = end[t]
    cands.sort(key=Segment.sort_key)
    return cands


def _canonical_candidate_groups(
    support: Iterable[Node],
    space: SpaceSpec,
    config: RunConfig = DEFAULT_CONFIG,
    q_cap: int | None = None,
) -> Iterator[list[Segment]]:
    """The candidate lists whose disjoint subsets are the canonical families.

    Level-aligned spaces yield one list per (p, q) window, JT_INF yields its
    single list of core chains; each list is in `Segment.sort_key` order and
    is built only when the previous one has been consumed.  `family_cap`
    applies to each list separately.
    """
    closure = Closure(support)
    if not closure.support:
        return
    top_level = max(len(n) for n in closure.support)
    if q_cap is not None:
        top_level = min(top_level, q_cap)
    if space.level_aligned:
        fresh = max_index_used(closure.support) + 1
        for q in range(space.min_top_level, top_level + 1):
            for p in range(space.min_top_level, q + 1):
                yield aligned_candidates(closure, p, q, space, fresh, config)
    else:
        yield _jt_core_candidates(closure, config)


def enumerate_admissible_families(
    support: Iterable[Node],
    space: SpaceSpec,
    config: RunConfig = DEFAULT_CONFIG,
    q_cap: int | None = None,
) -> list[AdmissibleFamily]:
    """Canonical finite family stream for a given support, sorted by
    (segment count, node count, lex).

    The supremum of the norm expression over this list equals the supremum
    over all admissible families in the full infinite tree; see the module
    docstring for the reduction.  Empty support yields the empty list.
    """
    out: list[AdmissibleFamily] = []
    for cands in _canonical_candidate_groups(support, space, config, q_cap):
        _disjoint_subsets(
            cands,
            config.family_cap,
            lambda chosen: out.append(AdmissibleFamily(tuple(cands[i] for i in chosen), space)),
        )
    out.sort(key=AdmissibleFamily.sort_key)
    return out


def literal_chain_subsets(support: Iterable[Node]) -> list[tuple[Node, ...]]:
    """Nonempty totally ordered subsets of the support (JT_INF literal variant).

    Gapped chains only ever gain value from support nodes, so the canonical
    universe is the support itself.
    """
    nodes = sorted(set(tuple(n) for n in support))
    out: list[tuple[Node, ...]] = []
    for deepest in nodes:
        above = [n for n in nodes if n != deepest and is_prefix(n, deepest)]
        for mask in range(1 << len(above)):
            subset = [above[i] for i in range(len(above)) if mask >> i & 1]
            subset.append(deepest)
            out.append(tuple(sorted(subset)))
    return sorted(out, key=lambda s: (len(s), s))


def avoiding_branch(paths_to_avoid: Iterable[Node], depth: int) -> tuple[Node, ...]:
    """Nodes (levels 1..depth) of a branch disjoint from every given path.

    Takes the smallest level-1 index strictly greater than any index used in
    the inputs, then descends through index 0.  Infinite branching only.
    """
    fresh = max_index_used(paths_to_avoid) + 1
    head: Node = (fresh,)
    return tuple(head + (0,) * (k - 1) for k in range(1, depth + 1))
