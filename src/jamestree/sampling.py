"""Seeded random instance generators for the verification suite and tests."""

from __future__ import annotations

import random
from fractions import Fraction

from .functionals import SIGNED_FAMILY, DualFunctional
from .spaces import Node, SparseVector, SpaceKind, SpaceSpec
from .trees import Segment


def nonzero_fraction(rng: random.Random) -> Fraction:
    """Nonzero numerator in [-9, 9] over a denominator in [1, 9]."""
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 9))


def random_node(rng: random.Random, space: SpaceSpec, max_level: int, branching: int) -> Node:
    level = rng.randint(space.min_top_level, max_level)
    width = 2 if space.dyadic else branching
    return tuple(rng.randrange(width) for _ in range(level))


def random_vector(
    rng: random.Random,
    space: SpaceSpec,
    max_level: int = 4,
    max_nodes: int = 6,
    branching: int = 3,
    allow_root: bool = True,
) -> SparseVector:
    count = rng.randint(1, max_nodes)
    entries: dict[Node, Fraction] = {}
    for _ in range(count):
        node = random_node(rng, space, max_level, branching)
        if node == () and (space.kind is SpaceKind.M_HYP or not allow_root):
            continue
        entries[node] = nonzero_fraction(rng)
    return SparseVector(tuple(entries.items()))


def random_weights(rng: random.Random, count: int, denominator: int = 12) -> tuple[Fraction, ...]:
    parts = [rng.randint(1, denominator) for _ in range(count)]
    total = sum(parts)
    return tuple(Fraction(p, total) for p in parts)


def random_signed_family(
    rng: random.Random, space: SpaceSpec, max_level: int, branching: int = 3
) -> DualFunctional:
    """Random admissible family with random +-1 coefficients."""
    p = rng.randint(space.min_top_level, max_level)
    q = rng.randint(p, max_level)
    width = 2 if space.dyadic else branching
    top_space = width**p
    k = rng.randint(1, min(3, top_space))
    top_ids = rng.sample(range(top_space), k)
    terms = []
    for tid in top_ids:
        top: Node = ()
        rem = tid
        for _ in range(p):
            top = top + (rem % width,)
            rem //= width
        bottom = top
        for _ in range(q - p):
            bottom = bottom + (rng.randrange(width),)
        sign = rng.choice((1, -1))
        terms.append((Fraction(sign), Segment(top, bottom)))
    return DualFunctional(tuple(terms), SIGNED_FAMILY)


def scaled_into_ball(
    rng: random.Random, space: SpaceSpec, bound: Fraction, max_level: int = 3, max_nodes: int = 4
) -> SparseVector:
    """Random vector rescaled to norm <= bound (exact for the L1 spaces, via a
    one-sided square-root approximation for JT_INF)."""
    from .norms import norm

    allow_root = space.kind is not SpaceKind.JT_INF  # JT extensions need root-free input
    x = random_vector(rng, space, max_level, max_nodes, allow_root=allow_root)
    if x.is_zero:
        return x
    return x.scale(bound * norm(x, space).inverse_below(10**6))
