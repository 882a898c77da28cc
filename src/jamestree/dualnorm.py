"""Certified dual-norm computation by cutting planes.

Maximizes g(x) over the unit ball of the truncated coordinate space
{x : supp(x) within levels <= level_cap}.  The LP relaxation starts from the
box |x_t| <= 1 (valid: every singleton is a norm-one functional), which
`lp.simplex_max` keeps as variable bounds, so the LP rows are the cuts alone;
each round the exact primal norm engine plays separation oracle: if the LP
optimizer leaves the ball, its witness family yields a norming functional
h = sum_i w_i f_{S_i} with the valid cut h(x) <= 1, and the loop repeats.
The w_i are the segment-sum signs (L1 spaces; a signed admissible family)
or a rational rounding of segment-sum / norm (JT_INF; a molecule).  Each
cut is a `DualFunctional` checked by `validate_functional` and kept in the
certificate; its LP row is its coefficient map read at the variables.  One
`lp.LPState` lives for the whole call and goes with the grown row list to
every round's `simplex_max`, so each new cut is absorbed by dual simplex
from the last optimal basis instead of a solve from scratch.  Level
truncation is exact for cap >= depth(g) because level projections have norm
one.

Variable sets are finite: all dyadic nodes up to the cap for JH; for the
infinitely branching spaces, the ancestor closure of g's segment nodes
suffices (restricting any unit vector to that closure preserves g and stays
in the ball: families evaluated on the restriction reroute their tails
through fresh children without changing sums).

For the L1 spaces the cut universe is finite and every round strictly cuts
the current LP vertex, so the loop terminates with lower == upper (exact).
For JT_INF it stops at upper - lower <= tol, and tol must be at least
10^-12 of the box bound sum |g_t|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .config import DEFAULT_CONFIG, RunConfig
from .errors import ConvergenceError, PreconditionError
from .functionals import (
    MOLECULE,
    SIGNED_FAMILY,
    DualFunctional,
    evaluate,
    validate_functional,
)
from .lp import LPState, simplex_max
from .norms import NormResult, norm
from .spaces import Node, ROOT, SparseVector, SpaceKind, SpaceSpec
from .trees import Closure, segment_sum


@dataclass(frozen=True)
class DualNormCertificate:
    """Two-sided certificate: lower from an explicit unit-ball vector, upper
    from the final LP relaxation; exact when the gap is zero."""

    lower: Fraction
    upper: Fraction
    witness_vector: SparseVector
    cuts: tuple[DualFunctional, ...]
    tol: Fraction
    iterations: int

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


def _variables(g: DualFunctional, space: SpaceSpec, cap: int) -> tuple[Node, ...]:
    if space.dyadic:
        out: list[Node] = []

        def walk(node: Node) -> None:
            out.append(node)
            if len(node) < cap:
                walk(node + (0,))
                walk(node + (1,))

        walk(ROOT)
        return tuple(sorted(out))
    closure = Closure(g.nodes())
    nodes = [n for n in closure.sorted_nodes if len(n) <= cap]
    if space.kind is SpaceKind.M_HYP:
        nodes = [n for n in nodes if n != ROOT]
    return tuple(nodes)


# Molecule cut weights are rounded from floats to at most 12 digits (see
# `_molecule_cut_weights`).  A JT_INF gap finer than 10^-12 of the box bound
# sum |g_t| is beyond them: the exact fallback cuts then compound in bit size
# round after round, and the loop runs for hours instead of hitting its cap.
_JT_RESOLUTION = Fraction(1, 10**12)


def _molecule_cut_weights(sums: list[Fraction], res: NormResult) -> list[Fraction]:
    """Valid molecule weights (sum of squares <= 1) that cut the iterate.

    Float-guided integer weights m_i / M keep LP coefficients small, so
    vertex bit-size does not compound across rounds; the cut inequality
    itself is validated exactly before use.
    """
    target = float(res.value_sq) ** 0.5
    scale = 10**6
    for _ in range(4):
        ints = [round(scale * float(sig) / target) for sig in sums]
        mass = sum(v * v for v in ints)
        if mass:
            denom = isqrt(mass)
            if denom * denom < mass:
                denom += 1
            weights = [Fraction(v, denom) for v in ints]
            if sum((w * sig for w, sig in zip(weights, sums)), Fraction(0)) > 1:
                return weights
        scale *= 100
    rho = res.inverse_below(10**12)  # exact fallback; rho * value_sq > 1 when value_sq > 1
    return [sig * rho for sig in sums]


def _cut(res: NormResult, x_hat: SparseVector, space: SpaceSpec) -> DualFunctional:
    """The norming functional of one valid unit-ball constraint violated by x_hat.

    Over the witness segments where x_hat has a nonzero sum: the signs of
    those sums (L1 spaces; a signed admissible family), or molecule weights
    (JT_INF).  `validate_functional` checks the class before the cut is used.
    """
    sums = [(segment_sum(x_hat, seg), seg) for seg in res.witness.segments]
    kept = [(s, seg) for s, seg in sums if s != 0]
    if space.aggregates_l1:
        cut = DualFunctional(tuple((1 if s > 0 else -1, seg) for s, seg in kept), SIGNED_FAMILY)
    else:
        weights = _molecule_cut_weights([s for s, _ in kept], res)
        cut = DualFunctional(tuple((w, seg) for w, (_, seg) in zip(weights, kept)), MOLECULE)
    validate_functional(cut, space)
    return cut


def dual_norm(
    g: DualFunctional,
    space: SpaceSpec,
    level_cap: int | None = None,
    tol: Fraction | None = None,
    config: RunConfig = DEFAULT_CONFIG,
) -> DualNormCertificate:
    """Certified dual norm of g over the level-truncated unit ball.

    The default cap is the deepest node of g, which already makes the
    truncated value equal the full dual norm.  Raises PreconditionError when
    g uses nodes deeper than an explicit cap or, for JT_INF, when tol is
    below 10^-12 of sum |g_t|; ConvergenceError past the iteration cap.
    """
    tol = config.tol if tol is None else tol
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    depth = g.depth()
    cap = depth if level_cap is None else level_cap
    if depth > cap:
        raise PreconditionError(f"functional uses nodes at level {depth} beyond cap {cap}")

    variables = _variables(g, space, cap)
    coeffs = g.coefficient_map()
    objective = [coeffs.get(v, Fraction(0)) for v in variables]
    box_bound = sum((abs(c) for c in objective), Fraction(0))
    if not space.aggregates_l1 and tol < box_bound * _JT_RESOLUTION:
        raise PreconditionError(
            f"tol {tol} is below 10^-12 of the box bound {box_bound}, finer than JT_INF cuts resolve"
        )

    rows: list[tuple[list[Fraction], Fraction]] = []  # cuts; the box is the LP's bounds
    lp_state = LPState()  # each round resumes from the last round's optimal basis
    row_keys: set[tuple[Fraction, ...]] = set()

    lower = Fraction(0)
    witness = SparseVector(())
    for i, v in enumerate(variables):  # seed with coordinate vectors
        c = objective[i]
        if abs(c) > lower:
            lower = abs(c)
            witness = SparseVector(((v, Fraction(1 if c > 0 else -1)),))
    seed = SparseVector(tuple((v, c) for v, c in zip(variables, objective) if c != 0))
    if not seed.is_zero:  # coefficient-proportional direction, rescaled exactly
        scaled_seed = seed.scale(norm(seed, space, config).inverse_below(10**9))
        cand = evaluate(g, scaled_seed)
        if cand > lower:
            lower = cand
            witness = scaled_seed

    cuts: list[DualFunctional] = []
    rounds = 0
    while True:
        rounds += 1
        if rounds > config.iteration_cap:
            raise ConvergenceError(f"dual_norm exceeded {config.iteration_cap} cutting rounds")
        upper, xvec = simplex_max(objective, rows, lp_state)
        if upper <= lower:
            upper = lower
            break
        x_hat = SparseVector(tuple((v, c) for v, c in zip(variables, xvec) if c != 0))
        res = norm(x_hat, space, config)
        if res.le(Fraction(1)):
            lower = upper
            witness = x_hat
            break
        rho = res.inverse_below(10**9)  # feasible rescaling of the iterate
        if upper * rho > lower:
            lower = upper * rho
            witness = x_hat.scale(rho)
        if not space.aggregates_l1 and upper - lower <= tol:
            break
        cut = _cut(res, x_hat, space)
        cut_map = cut.coefficient_map()
        row = [cut_map.get(v, Fraction(0)) for v in variables]
        key = tuple(row)
        if key in row_keys:
            raise ConvergenceError("dual_norm stalled on a repeated cut")
        row_keys.add(key)
        rows.append((row, Fraction(1)))
        cuts.append(cut)

    return DualNormCertificate(
        lower=lower,
        upper=upper,
        witness_vector=witness,
        cuts=tuple(cuts),
        tol=tol,
        iterations=rounds,
    )
