"""Slices of the norming sets, diameter reports, and scenario bounds.

A slice S(A, x, alpha) holds the members of the norming set A whose value at
x exceeds sup_A x - alpha; for these spaces the sup over A equals ||x||, so
membership is the exact test  g(x) > ||x|| - alpha.

The materialized members are representatives: every signed family over the
canonical enumeration for the L1 spaces; for JT_INF, each family's optimal
molecule, rescaled by one exact rule whenever it reaches the slice
(`_rho_for_membership`), plus a coefficient-grid sample.  Diameter reports
are one-sided the same way the claims are: certified lower bounds from
sampled pair distances, upper bounds from the scenario bound or the dual
triangle inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .config import DEFAULT_CONFIG, RunConfig
from .dualnorm import dual_norm
from .errors import CertificationError, EnumerationCapError, PreconditionError, ScenarioConstraintError
from .functionals import MOLECULE, SIGNED_FAMILY, DualFunctional, best_molecule
from .norms import NormResult, norm
from .spaces import SparseVector, SpaceKind, SpaceSpec
from .surds import Surd, sqrt_bounds, sqrt_sum_sign
from .trees import enumerate_admissible_families, segment_sum

MAX_PAIRS = 20_000  # member pairs slice_diameter evaluates before it refuses


@dataclass(frozen=True)
class SliceSpec:
    """Norming-set slice data: slicing vector, width, space, and the
    enumeration level cap.  The JT_INF molecule grid resolution is the run
    config's `grid_resolution`."""

    x: SparseVector
    alpha: Fraction
    space: SpaceSpec
    level_cap: int | None = None

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise PreconditionError("slice width alpha must be positive")


@dataclass(frozen=True)
class DiameterReport:
    lower: Fraction
    lower_witness_pair: tuple[DualFunctional, DualFunctional] | None
    upper: Fraction | Surd
    upper_provenance: str  # "scenario_bound" | "dual_triangle"
    member_count: int
    alpha: Fraction
    space: SpaceKind
    scenario: str | None = None


def _rho_for_membership(
    value_sq: Fraction, norm_res: NormResult, alpha: Fraction
) -> Fraction | None:
    """Rational rho with rho^2 * value_sq <= 1 and rho * value_sq > ||x|| - alpha,
    or None when the best molecule misses the slice: sqrt(value_sq) <= ||x|| - alpha.

    Otherwise the inequality is strict, so refining a one-sided sqrt bracket
    (error 1/(d*scale), 1000-fold finer each round) ends when the exact
    membership test passes.  On a perfect square the bracket is exact and
    the first round returns rho = 1/sqrt(value_sq).
    """
    if sqrt_sum_sign(alpha, 1, value_sq, -1, norm_res.squared) <= 0:
        return None
    scale = 10**6
    while True:
        rho = sqrt_bounds(value_sq, scale)[0] / value_sq
        if norm_res.exceeds_threshold(rho * value_sq, alpha):
            return rho
        scale *= 10**3


def _molecule_members(
    spec: SliceSpec, norm_res: NormResult, config: RunConfig
) -> list[DualFunctional]:
    members: list[DualFunctional] = []
    seen = set()
    grid_den = config.grid_resolution.denominator
    if config.grid_resolution.numerator != 1:
        raise PreconditionError("grid resolution must be 1/k")
    families = enumerate_admissible_families(spec.x.support, spec.space, config, q_cap=spec.level_cap)

    def add(terms) -> None:
        g = DualFunctional(tuple(terms), MOLECULE)
        if g.terms not in seen:
            seen.add(g.terms)
            members.append(g)

    for family in families:
        fit = best_molecule(family.segments, spec.x)
        if fit.value_sq == 0:
            continue
        rho = _rho_for_membership(fit.value_sq, norm_res, spec.alpha)
        if rho is not None:  # the best molecule, rescaled into the slice
            add((s * rho, seg) for s, seg in zip(fit.proportions, fit.segments) if s != 0)
        # coefficient-grid sample on the unit ball
        k = len(family.segments)
        if (2 * grid_den + 1) ** k > config.family_cap:
            raise EnumerationCapError("molecule grid too large for the configured cap")
        # in integers: coefficient c / grid_den, proportion a / scale
        ratios = [s.as_integer_ratio() for s in fit.proportions]
        scale = lcm(*(den for _, den in ratios))
        scaled = [num * (scale // den) for num, den in ratios]
        unit = grid_den * grid_den
        for combo in product(range(-grid_den, grid_den + 1), repeat=k):
            if sum(c * c for c in combo) > unit:
                continue
            val = Fraction(sum(c * a for c, a in zip(combo, scaled)), grid_den * scale)
            if norm_res.exceeds_threshold(val, spec.alpha):
                add((Fraction(c, grid_den), seg) for c, seg in zip(combo, family.segments) if c)
    return members


def slice_members(spec: SliceSpec, config: RunConfig = DEFAULT_CONFIG) -> list[DualFunctional]:
    """Representatives of the norming set lying in the slice, in deterministic
    enumeration order."""
    spec.x.validate_for(spec.space)
    norm_res = norm(spec.x, spec.space, config)
    if spec.x.is_zero:
        return []
    if not spec.space.aggregates_l1:
        return _molecule_members(spec, norm_res, config)

    members: list[DualFunctional] = []
    families = enumerate_admissible_families(spec.x.support, spec.space, config, q_cap=spec.level_cap)
    for family in families:
        sums = [segment_sum(spec.x, seg) for seg in family.segments]
        peak = sum(abs(s) for s in sums)
        if not norm_res.exceeds_threshold(peak, spec.alpha):
            continue  # no sign pattern of this family can reach the slice
        k = len(family.segments)
        for mask in range(1 << k):
            signs = [1 if mask >> i & 1 == 0 else -1 for i in range(k)]
            val = sum((sg * s for sg, s in zip(signs, sums)), Fraction(0))
            if norm_res.exceeds_threshold(val, spec.alpha):
                members.append(
                    DualFunctional(
                        tuple((Fraction(sg), seg) for sg, seg in zip(signs, family.segments)),
                        SIGNED_FAMILY,
                    )
                )
    return members


def scenario_upper_bound(
    scenario: str,
    alpha: Fraction | None = None,
    delta: Fraction | None = None,
    epsilon: Fraction | None = None,
) -> Fraction | Surd:
    """Closed-form diameter bounds for the three named scenarios.

    JT_SQRT2(alpha, delta[, epsilon]) -> sqrt(2) + alpha + 2 sqrt(delta);
    JHINF_53 -> 5/3;  JH_ZERO(epsilon, alpha) -> 0.
    Raises ScenarioConstraintError naming the violated inequality.
    """
    if scenario == "JHINF_53":
        return Fraction(5, 3)
    if scenario == "JT_SQRT2":
        if alpha is None or delta is None:
            raise ScenarioConstraintError("JT_SQRT2 requires alpha and delta")
        if not 0 < alpha < Fraction(1, 2):
            raise ScenarioConstraintError("0 < alpha < 1/2 violated")
        if delta <= 0:
            raise ScenarioConstraintError("0 < delta violated")
        if not (1 - alpha) ** 2 > 1 - delta:
            raise ScenarioConstraintError("(1 - alpha)^2 > 1 - delta violated")
        if epsilon is not None:
            if not 0 < epsilon < Fraction(1, 2):
                raise ScenarioConstraintError("0 < epsilon < 1/2 violated")
            if not delta < min(epsilon, 2 * epsilon * (1 - epsilon)):
                raise ScenarioConstraintError(
                    "delta < min{epsilon, 2*epsilon*(1 - epsilon)} violated"
                )
        return Surd(a=alpha, b=Fraction(1), c=Fraction(2), delta=delta)
    if scenario == "JH_ZERO":
        if alpha is None or epsilon is None:
            raise ScenarioConstraintError("JH_ZERO requires epsilon and alpha")
        if not 0 < epsilon < Fraction(1, 4):
            raise ScenarioConstraintError("0 < epsilon < 1/4 violated")
        if not 0 < alpha < min(1 - 4 * epsilon, epsilon):
            raise ScenarioConstraintError("alpha < min{1 - 4*epsilon, epsilon} violated")
        return Fraction(0)
    raise ScenarioConstraintError(f"unknown scenario {scenario!r}")


def slice_diameter(
    spec: SliceSpec,
    scenario: str | None = None,
    scenario_params: dict | None = None,
    config: RunConfig = DEFAULT_CONFIG,
) -> DiameterReport:
    """Diameter report over the sampled slice representatives.

    lower: best certified pair distance (dual_norm lower bounds are attained
    by explicit unit vectors, so this genuinely bounds the slice diameter
    from below).  upper: scenario bound when given, else the dual triangle
    bound 2 (members are certified inside the dual unit ball).  Raises
    CertificationError when the certified lower exceeds the upper: the bound
    does not hold for this slice.
    """
    members = slice_members(spec, config)
    lower = Fraction(0)
    pair = None
    n = len(members)
    if n * (n - 1) // 2 > MAX_PAIRS:
        raise EnumerationCapError(f"too many member pairs ({n} members)")
    for i in range(n):
        for j in range(i + 1, n):
            cert = dual_norm(members[i] - members[j], spec.space, config=config)
            if cert.lower > lower:
                lower = cert.lower
                pair = (members[i], members[j])
    if scenario is not None:
        upper = scenario_upper_bound(scenario, **(scenario_params or {}))
        provenance = "scenario_bound"
    else:
        upper = Fraction(2) if members else Fraction(0)
        provenance = "dual_triangle"
    if upper.compare(lower) < 0 if isinstance(upper, Surd) else upper < lower:
        raise CertificationError(f"certified lower bound {lower} exceeds the {scenario or provenance} bound")
    return DiameterReport(
        lower=lower,
        lower_witness_pair=pair,
        upper=upper,
        upper_provenance=provenance,
        member_count=len(members),
        alpha=spec.alpha,
        space=spec.space.kind,
        scenario=scenario,
    )
