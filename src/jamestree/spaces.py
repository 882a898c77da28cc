"""Space descriptors and finitely supported vectors on the node tree.

Nodes are addressed by paths: tuples of child indices, the empty tuple being
the root.  JH lives on the dyadic tree (indices 0/1, the classical node (n, i)
is the length-n binary expansion of i, most significant bit first); JT_INF,
JH_INF and the hyperplane M_HYP live on the infinitely branching tree of
natural-number paths.  M_HYP vectors carry no root entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InvalidVectorError, wire_text

Node = tuple[int, ...]

ROOT: Node = ()


class SpaceKind(Enum):
    JT_INF = "JT_INF"
    JH = "JH"
    JH_INF = "JH_INF"
    M_HYP = "M_HYP"


#: Spaces whose norm aggregates segment sums in absolute value (level-aligned
#: admissible families).  JT_INF instead takes the square root of the sum of
#: squares over merely disjoint families.
L1_KINDS = (SpaceKind.JH, SpaceKind.JH_INF, SpaceKind.M_HYP)


@dataclass(frozen=True)
class SpaceSpec:
    """Which norm is in force.

    Segments are intervals of a branch everywhere; the literal JT_INF reading
    (totally ordered finite subsets, gaps allowed) has its own entry point,
    `norms.literal_norm_sq_jt`.
    """

    kind: SpaceKind

    @property
    def aggregates_l1(self) -> bool:
        return self.kind in L1_KINDS

    @property
    def level_aligned(self) -> bool:
        return self.kind in L1_KINDS

    @property
    def dyadic(self) -> bool:
        return self.kind is SpaceKind.JH

    @property
    def min_top_level(self) -> int:
        """Canonical lower bound for segment top levels (1 for the hyperplane)."""
        return 1 if self.kind is SpaceKind.M_HYP else 0


JT_INF = SpaceSpec(SpaceKind.JT_INF)
JH = SpaceSpec(SpaceKind.JH)
JH_INF = SpaceSpec(SpaceKind.JH_INF)
M_HYP = SpaceSpec(SpaceKind.M_HYP)

ALL_SPACES = (JT_INF, JH, JH_INF, M_HYP)


def is_dyadic(node: Node) -> bool:
    return all(i in (0, 1) for i in node)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidVectorError(f"entry values must be exact rationals, got {type(value).__name__}")


@dataclass(frozen=True)
class SparseVector:
    """Finitely supported rational-valued function on the tree.

    Entries are kept sorted by node and never hold the value zero, so equality
    and hashing are structural; `support`, their nodes, is built once with
    them.
    """

    entries: tuple[tuple[Node, Fraction], ...]
    _lookup: Mapping[Node, Fraction] = field(init=False, repr=False, compare=False, hash=False)
    support: tuple[Node, ...] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        seen = {}
        for node, value in self.entries:
            if not isinstance(node, tuple) or not all(type(i) is int and i >= 0 for i in node):
                raise InvalidVectorError(f"nodes must be tuples of naturals, got {wire_text(node)}")
            if node in seen:
                raise InvalidVectorError(f"duplicate node {wire_text(node)}")
            seen[node] = _as_fraction(value)
        cleaned = tuple(sorted((n, v) for n, v in seen.items() if v != 0))
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "_lookup", dict(cleaned))
        object.__setattr__(self, "support", tuple(n for n, _ in cleaned))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Node, Fraction]]) -> "SparseVector":
        acc: dict[Node, Fraction] = {}
        for node, value in pairs:
            acc[node] = acc.get(node, Fraction(0)) + _as_fraction(value)
        return SparseVector(tuple(acc.items()))

    def value_at(self, node: Node) -> Fraction:
        return self._lookup.get(node, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.entries

    @property
    def max_level(self) -> int:
        """Deepest support level; -1 for the zero vector."""
        return max((len(n) for n in self.support), default=-1)

    def __add__(self, other: "SparseVector") -> "SparseVector":
        return SparseVector.from_pairs(self.entries + other.entries)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "SparseVector":
        c = _as_fraction(c)
        return SparseVector(tuple((n, v * c) for n, v in self.entries))

    def __rmul__(self, c) -> "SparseVector":
        return self.scale(c)

    def validate_for(self, space: SpaceSpec) -> None:
        if space.dyadic:
            for node in self.support:
                if not is_dyadic(node):
                    raise InvalidVectorError(f"node {wire_text(node)} is not a dyadic path")
        if space.kind is SpaceKind.M_HYP and self.value_at(ROOT) != 0:
            raise InvalidVectorError("hyperplane vectors carry no root entry")


def unit_vector(node: Node) -> SparseVector:
    """Canonical basis vector e_node; has norm one in every space."""
    return SparseVector(((tuple(node), Fraction(1)),))


def project_levels(x: SparseVector, max_level: int) -> SparseVector:
    """Restrict x to nodes of level <= max_level (a norm-one basis projection)."""
    return SparseVector(tuple((n, v) for n, v in x.entries if len(n) <= max_level))


def embed_dyadic(x: SparseVector) -> SparseVector:
    """Read a JH vector as a JH_INF vector.

    Dyadic paths are a subset of arbitrary paths, so the embedding is the
    identity on entries; it is isometric (checked by the test suite, not here).
    """
    x.validate_for(JH)
    return x
