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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import EnumerationCapError, InvalidSegmentError, wire_text
from .spaces import Node, ROOT, SparseVector, SpaceSpec


class NodeOrder(Enum):
    EQUAL = "equal"
    A_ANCESTOR_OF_B = "a_ancestor_of_b"
    B_ANCESTOR_OF_A = "b_ancestor_of_a"
    INCOMPARABLE = "incomparable"


def is_prefix(a: Node, b: Node) -> bool:
    """True iff a is an ancestor of b or equal to it."""
    return len(a) <= len(b) and b[: len(a)] == a


def node_order(a: Node, b: Node) -> NodeOrder:
    a, b = tuple(a), tuple(b)
    if a == b:
        return NodeOrder.EQUAL
    if is_prefix(a, b):
        return NodeOrder.A_ANCESTOR_OF_B
    if is_prefix(b, a):
        return NodeOrder.B_ANCESTOR_OF_A
    return NodeOrder.INCOMPARABLE


def ancestors_or_self(node: Node) -> tuple[Node, ...]:
    return tuple(node[:k] for k in range(len(node) + 1))


@dataclass(frozen=True)
class Segment:
    """Interval chain from `top` down to `bottom` (inclusive)."""

    top: Node
    bottom: Node

    def __post_init__(self) -> None:
        object.__setattr__(self, "top", tuple(self.top))
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
        return self.p <= len(node) <= self.q and is_prefix(node, self.bottom)

    def sort_key(self) -> tuple[Node, Node]:
        return (self.top, self.bottom)


def segment_sum(x: SparseVector, seg: Segment) -> Fraction:
    """Sum of the entries of x on the chain of `seg`."""
    return sum((v for n, v in x.entries if seg.contains(n)), Fraction(0))


def segment_nodes(segment: Segment) -> tuple[Node, ...]:
    return segment.nodes()


def segments_disjoint(s1: Segment, s2: Segment) -> bool:
    # Two chains intersect iff the deeper top lies on the other chain.
    deeper, other = (s1, s2) if s1.p >= s2.p else (s2, s1)
    return not other.contains(deeper.top)


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
    """Ancestor closure of a finite support, indexed for chain traversal."""

    def __init__(self, support: Iterable[Node]):
        self.support: frozenset[Node] = frozenset(tuple(n) for n in support)
        nodes: set[Node] = set()
        for node in self.support:
            nodes.update(ancestors_or_self(node))
        self.nodes: frozenset[Node] = frozenset(nodes)
        self.sorted_nodes: tuple[Node, ...] = tuple(sorted(nodes))
        self.children: dict[Node, tuple[Node, ...]] = {n: () for n in nodes}
        for node in nodes:
            if node != ROOT:
                parent = node[:-1]
                self.children[parent] = self.children[parent] + (node,)
        for node in self.children:
            self.children[node] = tuple(sorted(self.children[node]))
        self.by_level: dict[int, tuple[Node, ...]] = {}
        for node in self.sorted_nodes:
            self.by_level.setdefault(len(node), ())
            self.by_level[len(node)] += (node,)
        self.max_level: int = max((len(n) for n in nodes), default=-1)

    def descendants_or_self(self, node: Node) -> tuple[Node, ...]:
        out = [node]
        stack = list(self.children[node])
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(self.children[cur])
        return tuple(sorted(out))

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

    def chain_meets_support(self, top: Node, bottom: Node) -> bool:
        return any(bottom[:k] in self.support for k in range(len(top), len(bottom) + 1))


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
    emit: Callable[[tuple[Segment, ...]], None],
) -> None:
    """Emit every nonempty pairwise-disjoint subset, in DFS order over the
    candidate list (`emit` receives segments in candidate order).

    Disjointness is tested once per candidate pair: bit k of `clash[j]` is set
    when candidate k > j meets candidate j.  The DFS carries the union of the
    chosen candidates' masks, so extending a subset is one bit test.
    """
    n = len(candidates)
    clash = [0] * n
    for j in range(n):
        for k in range(j + 1, n):
            if not segments_disjoint(candidates[j], candidates[k]):
                clash[j] |= 1 << k
    count = 0
    chosen: list[Segment] = []

    def rec(start: int, blocked: int) -> None:
        nonlocal count
        for j in range(start, n):
            if blocked >> j & 1:
                continue
            chosen.append(candidates[j])
            count += 1
            _guard(count, family_cap, "family enumeration")
            emit(tuple(chosen))
            rec(j + 1, blocked | clash[j])
            chosen.pop()

    rec(0, 0)


def _jt_core_candidates(closure: Closure, config: RunConfig) -> list[Segment]:
    cands = []
    for top in closure.sorted_nodes:
        for bottom in closure.descendants_or_self(top):
            if closure.chain_meets_support(top, bottom):
                cands.append(Segment(top, bottom))
                _guard(len(cands), config.candidate_cap, "candidate segments")
    cands.sort(key=Segment.sort_key)
    return cands


def aligned_candidates(
    closure: Closure, p: int, q: int, space: SpaceSpec, fresh_index: int, config: RunConfig
) -> list[Segment]:
    """Materialized p-q candidates whose cores meet the support."""
    cands = []
    for top in closure.by_level.get(p, ()):
        for core_bottom in closure.descendants_or_self(top):
            if len(core_bottom) > q:
                continue
            if len(core_bottom) < q and not closure.extendable(core_bottom, space):
                continue
            if not closure.chain_meets_support(top, core_bottom):
                continue
            cands.append(materialize_core(closure, top, core_bottom, q, space, fresh_index))
            _guard(len(cands), config.candidate_cap, "candidate segments")
    cands.sort(key=Segment.sort_key)
    return cands


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
    closure = Closure(support)
    if not closure.support:
        return []
    top_level = max(len(n) for n in closure.support)
    if q_cap is not None:
        top_level = min(top_level, q_cap)

    out: list[AdmissibleFamily] = []

    def emit(segs: tuple[Segment, ...]) -> None:
        out.append(AdmissibleFamily(segs, space))

    if space.level_aligned:
        fresh = max_index_used(closure.support) + 1
        for q in range(space.min_top_level, top_level + 1):
            for p in range(space.min_top_level, q + 1):
                cands = aligned_candidates(closure, p, q, space, fresh, config)
                _disjoint_subsets(cands, config.family_cap, emit)
    else:
        cands = _jt_core_candidates(closure, config)
        _disjoint_subsets(cands, config.family_cap, emit)

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
