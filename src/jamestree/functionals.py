"""Dual functionals built from segments: evaluation, classes, best molecules.

A term (coefficient, segment) stands for coefficient * f_S where
f_S(x) = sum of x over the segment's chain.  Three classes:

* molecule: pairwise disjoint segments, sum of squared coefficients <= 1
  (norming set for the JT_INF dual ball);
* signed_family: coefficients in {-1, +1} over an admissible family
  (norming set for the L1-space dual balls);
* general: no constraint; arises from differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidFunctionalError, wire_text
from .spaces import Node, SparseVector, SpaceSpec
from .trees import Segment, family_disjoint, is_admissible, segment_sum

MOLECULE = "molecule"
SIGNED_FAMILY = "signed_family"
GENERAL = "general"


@dataclass(frozen=True)
class DualFunctional:
    terms: tuple[tuple[Fraction, Segment], ...]
    class_tag: str = GENERAL

    def __post_init__(self) -> None:
        if self.class_tag not in (MOLECULE, SIGNED_FAMILY, GENERAL):
            raise InvalidFunctionalError(f"unknown class {wire_text(self.class_tag)}")
        object.__setattr__(
            self,
            "terms",
            tuple(sorted(((Fraction(c), s) for c, s in self.terms), key=lambda t: t[1].sort_key())),
        )

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(s for _, s in self.terms)

    def nodes(self) -> tuple[Node, ...]:
        out: set[Node] = set()
        for _, seg in self.terms:
            out.update(seg.nodes())
        return tuple(sorted(out))

    def depth(self) -> int:
        return max((s.q for _, s in self.terms), default=0)

    def coefficient_map(self) -> dict[Node, Fraction]:
        """Collapse to per-node coefficients (functionals act coordinatewise)."""
        out: dict[Node, Fraction] = {}
        for coeff, seg in self.terms:
            for node in seg.nodes():
                out[node] = out[node] + coeff if node in out else coeff
        return {n: c for n, c in out.items() if c != 0}

    def __sub__(self, other: "DualFunctional") -> "DualFunctional":
        terms = self.terms + tuple((-c, s) for c, s in other.terms)
        return DualFunctional(terms, GENERAL)

    def __add__(self, other: "DualFunctional") -> "DualFunctional":
        return DualFunctional(self.terms + other.terms, GENERAL)

    def scale(self, c: Fraction) -> "DualFunctional":
        return DualFunctional(tuple((c * coeff, s) for coeff, s in self.terms), GENERAL)


def segment_functional(top: Node, bottom: Node, coeff: Fraction = Fraction(1)) -> DualFunctional:
    return DualFunctional(((Fraction(coeff), Segment(tuple(top), tuple(bottom))),), SIGNED_FAMILY)


def evaluate(g: DualFunctional, x: SparseVector) -> Fraction:
    """g(x): the sum over nodes n of g's coefficient at n times x(n)."""
    coeffs = g.coefficient_map()
    return sum((coeffs[n] * v for n, v in x.entries if n in coeffs), Fraction(0))


def validate_functional(g: DualFunctional, space: SpaceSpec) -> None:
    """Check the declared class invariants; raises InvalidFunctionalError."""
    if g.class_tag == MOLECULE:
        if not family_disjoint(g.segments):
            raise InvalidFunctionalError("molecule segments must be pairwise disjoint")
        if sum((c * c for c, _ in g.terms), Fraction(0)) > 1:
            raise InvalidFunctionalError("molecule coefficients must satisfy sum of squares <= 1")
    elif g.class_tag == SIGNED_FAMILY:
        if any(c not in (1, -1) for c, _ in g.terms):
            raise InvalidFunctionalError("signed family coefficients must be +-1")
        if not is_admissible(g.segments, space):
            raise InvalidFunctionalError("signed family segments must form an admissible family")


@dataclass(frozen=True)
class MoleculeFit:
    """l2-optimal molecule for a fixed disjoint family at a fixed vector.

    The optimal coefficients are proportional to the segment sums; the
    attained value is sqrt(sum of squared segment sums), reported as the exact
    square.  `proportions` are the unnormalized (rational) segment sums.
    """

    segments: tuple[Segment, ...]
    proportions: tuple[Fraction, ...]
    value_sq: Fraction


def best_molecule(segments: tuple[Segment, ...], x: SparseVector) -> MoleculeFit:
    """Optimal molecule coefficients for disjoint segments at x.

    Cauchy-Schwarz: over sum of squares <= 1 the maximum of
    sum(coeff_i * s_i) is sqrt(sum s_i^2), attained at coeff ~ s.
    The all-zero family returns zero proportions and value 0.
    """
    if not family_disjoint(segments):
        raise InvalidFunctionalError("best_molecule needs pairwise disjoint segments")
    sums = [segment_sum(x, seg) for seg in segments]
    value_sq = sum((s * s for s in sums), Fraction(0))
    return MoleculeFit(tuple(segments), tuple(sums), value_sq)
