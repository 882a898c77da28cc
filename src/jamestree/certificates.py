"""Constructive witnesses: ball-preserving extensions, diameter-two
certificates for convex combinations of slices, octahedrality deficits, and
the level-1 l1-row check.

Every certificate is verified exactly by the norm engine before it is
returned; a construction that fails its own recheck raises instead of
returning a bad certificate.  The fresh nodes of an extension and of the
SD2P y/z blocks all come from one fan (`_fan`): pairwise incomparable
nodes at one level below every node already in use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .config import DEFAULT_CONFIG, RunConfig
from .dualnorm import dual_norm
from .errors import (
    CertificationError,
    EnumerationCapError,
    PreconditionError,
    SpaceMismatchError,
)
from .functionals import GENERAL, SIGNED_FAMILY, DualFunctional, evaluate, validate_functional
from .norms import norm
from .slices import SliceSpec, slice_members
from .spaces import ROOT, M_HYP, Node, SparseVector, SpaceKind, SpaceSpec, unit_vector
from .surds import exact_sqrt, sqrt_sum_sign
from .trees import Segment, avoiding_branch, max_index_used


def _fan(space: SpaceSpec, paths, count: int) -> tuple[tuple[Node, ...], int]:
    """`count` pairwise-incomparable nodes at one common level below every
    given path, and that level.

    In a dyadic tree they count in binary below (0,)*depth, on the fewest
    digits (at least one) that reach `count`; elsewhere they are the first
    children of the depth-level node of a branch avoiding the paths.
    """
    depth = 1 + max((len(p) for p in paths), default=-1)
    if space.dyadic:
        width = max(1, (count - 1).bit_length())
        anchor = (0,) * depth
        nodes = tuple(anchor + tuple(map(int, format(i, f"0{width}b"))) for i in range(count))
        return nodes, depth + width
    anchor = avoiding_branch(paths, depth)[-1] if depth else ROOT
    return tuple(anchor + (i,) for i in range(count)), depth + 1


def extend_within_ball(
    x: SparseVector,
    n: int,
    signs: tuple[int, ...],
    space: SpaceSpec,
    config: RunConfig = DEFAULT_CONFIG,
) -> SparseVector:
    """Append n fresh +-1/n entries at a common deep level, staying in the ball.

    Requires ||x|| <= 1 - 1/n (checked exactly).  The new nodes sit under an
    anchor strictly below the support, pairwise incomparable at one level.
    The result is rechecked by the norm engine before returning.  For JT_INF
    the guarantee only holds for root-free vectors (the increments ride any
    root chain into the fresh branch), so root mass is rejected there.
    """
    if n < 2:
        raise PreconditionError("n must be at least 2")
    if len(signs) != n or any(s not in (1, -1) for s in signs):
        raise PreconditionError("signs must be n values in {-1, +1}")
    x.validate_for(space)
    res = norm(x, space, config)
    bound = 1 - Fraction(1, n)
    if not res.le(bound):
        raise PreconditionError(f"norm must be <= 1 - 1/n = {bound}")
    if space.kind is SpaceKind.JT_INF and x.value_at(ROOT) != 0:
        raise PreconditionError(
            "JT_INF extension requires a root-free vector: a root chain into the "
            "fresh branch can push the square sum past one"
        )
    nodes, _ = _fan(space, x.support, n)
    y = x + SparseVector(tuple((t, Fraction(s, n)) for t, s in zip(nodes, signs)))
    if not norm(y, space, config).le(Fraction(1)):
        raise CertificationError("extension left the unit ball; construction invalid")
    return y


def _check_combination(slices: tuple, weights: tuple[Fraction, ...]) -> None:
    """At least one slice, one weight per slice, weights positive summing to 1."""
    if not slices:
        raise PreconditionError("at least one slice required")
    if len(weights) != len(slices):
        raise PreconditionError("one weight per slice required")
    if any(w <= 0 for w in weights) or sum(weights) != 1:
        raise PreconditionError("weights must be positive and sum to 1")


@dataclass(frozen=True)
class Sd2pCertificate:
    """Distance-2 witness for a convex combination of slices.

    y_i, z_i lie in the i-th slice with norm <= 1; the separating functional
    is a signed family of fresh singletons, so its dual norm is at most one,
    and it maps the difference of the convex combinations to exactly 2.
    """

    functionals: tuple[DualFunctional, ...]
    alphas: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]
    interior_points: tuple[SparseVector, ...]
    y_vectors: tuple[SparseVector, ...]
    z_vectors: tuple[SparseVector, ...]
    separating: DualFunctional
    fresh_level: int
    m: int
    distance: Fraction


def sd2p_witnesses(
    slices: tuple[tuple[DualFunctional, Fraction], ...],
    weights: tuple[Fraction, ...],
    space: SpaceSpec,
    config: RunConfig = DEFAULT_CONFIG,
) -> Sd2pCertificate:
    """Diameter-2 certificate for sum_i weight_i * S(B, x*_i, alpha_i)."""
    if space.kind not in (SpaceKind.JH, SpaceKind.JH_INF):
        raise SpaceMismatchError("sd2p witnesses are built for JH and JH_INF")
    _check_combination(slices, weights)
    if any(alpha <= 0 for _, alpha in slices):
        raise PreconditionError("slices require alpha > 0")
    # the dual norm is exact in JH and JH_INF: upper <= 1 puts g in the dual ball
    certs = []
    for g, _ in slices:
        cert = dual_norm(g, space, config=config)
        if cert.upper > 1:
            raise CertificationError("slice functional not certified inside the dual ball")
        certs.append(cert)
    for (_, alpha), cert in zip(slices, certs):  # no point of the ball is in an empty slice
        if cert.upper <= 1 - alpha:
            raise PreconditionError(f"the slice is empty: dual norm {cert.upper} <= 1 - alpha")

    interior: list[SparseVector] = []
    etas: list[Fraction] = []
    for (g, alpha), cert in zip(slices, certs):
        w = cert.witness_vector
        w_norm = norm(w, space, config).value
        if w_norm == 0:
            raise CertificationError("dual-norm witness vector is zero")
        eta = 1 - alpha / 4 if alpha < 2 else Fraction(1, 2)
        x_i = w.scale(eta / w_norm)
        if not evaluate(g, x_i) > 1 - alpha:
            raise CertificationError("interior point misses the slice")
        interior.append(x_i)
        etas.append(eta)

    # the norm is homogeneous, so ||x_i|| = eta_i < 1 (alpha > 0): m is the
    # smallest with every ||x_i|| <= 1 - 1/m
    m = max(2, ceil(1 / (1 - max(etas))))
    if 2 * m * len(slices) > config.candidate_cap:
        raise EnumerationCapError(
            f"sd2p fan of {2 * m * len(slices)} fresh nodes exceeded cap {config.candidate_cap}"
        )

    all_paths = [node for x_i in interior for node in x_i.support]
    for g, _ in slices:
        all_paths.extend(n for n in g.nodes())
    fan, level = _fan(space, all_paths, 2 * m * len(slices))

    y_vecs: list[SparseVector] = []
    z_vecs: list[SparseVector] = []
    separating_terms: list[tuple[Fraction, Segment]] = []
    for i, ((g, alpha), x_i) in enumerate(zip(slices, interior)):
        block = fan[i * 2 * m : (i + 1) * 2 * m]
        # the fan lies strictly below every node of every slice functional,
        # so g reads 0 on it: y and z gain +1/m on their halves of the block
        y = x_i + SparseVector(tuple((t, Fraction(1, m)) for t in block[:m]))
        z = x_i + SparseVector(tuple((t, Fraction(1, m)) for t in block[m:]))
        if not norm(y, space, config).le(Fraction(1)):
            raise CertificationError("y vector left the unit ball")
        if not norm(z, space, config).le(Fraction(1)):
            raise CertificationError("z vector left the unit ball")
        if not evaluate(g, y) > 1 - alpha or not evaluate(g, z) > 1 - alpha:
            raise CertificationError("extended vectors fell out of the slice")
        y_vecs.append(y)
        z_vecs.append(z)
        separating_terms.extend((Fraction(1), Segment(t, t)) for t in block[:m])
        separating_terms.extend((Fraction(-1), Segment(t, t)) for t in block[m:])

    separating = DualFunctional(tuple(separating_terms), SIGNED_FAMILY)
    validate_functional(separating, space)  # fresh same-level singletons: admissible

    weighted = [(w, y) for w, y in zip(weights, y_vecs)] + [(-w, z) for w, z in zip(weights, z_vecs)]
    combo = SparseVector.from_pairs((n, c * val) for c, vec in weighted for n, val in vec.entries)
    distance = evaluate(separating, combo)
    if distance != 2:
        raise CertificationError(f"separating functional gives {distance}, expected 2")

    return Sd2pCertificate(
        functionals=tuple(g for g, _ in slices),
        alphas=tuple(alpha for _, alpha in slices),
        weights=tuple(weights),
        interior_points=tuple(interior),
        y_vectors=tuple(y_vecs),
        z_vectors=tuple(z_vecs),
        separating=separating,
        fresh_level=level,
        m=m,
        distance=Fraction(2),
    )


@dataclass(frozen=True)
class CcwCertificate:
    """Pair of convex combinations of w*-slice members at dual distance 2.

    plus/minus differ by 2 * sum_i weight_i f_{S_i} with the S_i nested on a
    support-avoiding branch; evaluating at the basis vector of `witness_node`
    gives the lower bound 2, the triangle inequality the matching upper bound.
    """

    slice_vectors: tuple[SparseVector, ...]
    epsilons: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]
    members_plus: tuple[DualFunctional, ...]
    members_minus: tuple[DualFunctional, ...]
    plus: DualFunctional
    minus: DualFunctional
    witness_node: Node
    distance: Fraction


def m_ccw_witness(
    slices: tuple[tuple[SparseVector, Fraction], ...],
    weights: tuple[Fraction, ...],
    config: RunConfig = DEFAULT_CONFIG,
) -> CcwCertificate:
    """Distance-2 witness pair for a convex combination of w*-slices of the
    hyperplane's norming set."""
    _check_combination(slices, weights)
    for x_i, eps in slices:
        x_i.validate_for(M_HYP)
        if x_i.is_zero:
            raise PreconditionError("slice vectors must be nonzero")
        if eps <= 0:
            raise PreconditionError("slice width epsilon must be positive")

    chosen: list[DualFunctional] = []
    for x_i, eps in slices:
        members = slice_members(SliceSpec(x_i, eps, M_HYP), config)
        if not members:
            raise CertificationError("slice is empty at the requested epsilon")
        chosen.append(members[0])

    supports = [n for x_i, _ in slices for n in x_i.support]
    used_paths = supports + [n for g in chosen for n in g.nodes()]
    r = 1 + max(
        max(s.q for g in chosen for s in g.segments),
        max((len(n) for n in supports), default=0),
    )
    fresh_ext = max_index_used(used_paths) + 1

    extended: list[DualFunctional] = []
    for (x_i, eps), g in zip(slices, chosen):
        terms = []
        for coeff, seg in g.terms:
            if seg.q < r:
                bottom = seg.bottom + (fresh_ext,) + (0,) * (r - seg.q - 1)
                seg = Segment(seg.top, bottom)
            terms.append((coeff, seg))
        g_ext = DualFunctional(tuple(terms), SIGNED_FAMILY)
        validate_functional(g_ext, M_HYP)
        if evaluate(g_ext, x_i) != evaluate(g, x_i):
            raise CertificationError("zero-padding changed a slice member's value")
        extended.append(g_ext)

    branch = avoiding_branch(used_paths + [(fresh_ext,)], r)
    witness_node = branch[r - 1]

    members_plus: list[DualFunctional] = []
    members_minus: list[DualFunctional] = []
    for (x_i, eps), g_ext in zip(slices, extended):
        p_i = g_ext.segments[0].p
        s_i = Segment(branch[p_i - 1], witness_node)
        plus_i = DualFunctional(g_ext.terms + ((Fraction(1), s_i),), SIGNED_FAMILY)
        minus_i = DualFunctional(g_ext.terms + ((Fraction(-1), s_i),), SIGNED_FAMILY)
        validate_functional(plus_i, M_HYP)
        validate_functional(minus_i, M_HYP)
        threshold_res = norm(x_i, M_HYP, config)
        for member in (plus_i, minus_i):
            if not threshold_res.exceeds_threshold(evaluate(member, x_i), eps):
                raise CertificationError("padded member fell out of its slice")
        members_plus.append(plus_i)
        members_minus.append(minus_i)

    plus = DualFunctional(
        tuple((w * c, s) for w, g in zip(weights, members_plus) for c, s in g.terms), GENERAL
    )
    minus = DualFunctional(
        tuple((w * c, s) for w, g in zip(weights, members_minus) for c, s in g.terms), GENERAL
    )
    unit_eval = evaluate(plus - minus, unit_vector(witness_node))
    if unit_eval != 2:
        raise CertificationError(f"witness node evaluation gives {unit_eval}, expected 2")
    # upper bound: ||plus - minus|| = 2||sum_i w_i f_{S_i}|| <= 2 by the triangle
    # inequality, each f_S being a norm-one functional; with the unit witness
    # vector the distance is exactly 2.
    return CcwCertificate(
        slice_vectors=tuple(x for x, _ in slices),
        epsilons=tuple(e for _, e in slices),
        weights=tuple(weights),
        members_plus=tuple(members_plus),
        members_minus=tuple(members_minus),
        plus=plus,
        minus=minus,
        witness_node=witness_node,
        distance=Fraction(2),
    )


@dataclass(frozen=True)
class OctahedralityReport:
    """Minimum of ||l*x + y|| / (|l| + ||y||) over a finite mesh.

    A deficit of 1 means the candidate direction x is exactly octahedral for
    the sampled subspace; values below 1 witness non-octahedral directions.
    For JT_INF the exact minimum is carried as components (num_sq, |l|,
    den_sq) because the ratio itself is irrational in general.
    """

    space: SpaceKind
    basis: tuple[SparseVector, ...]
    candidate: SparseVector
    mesh: tuple[tuple[Fraction, tuple[Fraction, ...]], ...]
    deficit: Fraction | None
    deficit_parts: tuple[Fraction, Fraction, Fraction] | None
    argmin: tuple[Fraction, tuple[Fraction, ...]]

    @property
    def float_value(self) -> float:
        if self.deficit is not None:
            return float(self.deficit)
        num_sq, lam, den_sq = self.deficit_parts
        # The ratio is at most 1 and does not change when sqrt(num_sq), lam
        # and sqrt(den_sq) are divided by one power of two: pick it so the
        # largest part is near 1 when a part would leave the float range.
        top = max(num_sq, lam * lam, den_sq)
        k = (top.numerator.bit_length() - top.denominator.bit_length()) // 2
        if abs(k) > 400:
            num_sq, lam, den_sq = num_sq / Fraction(4) ** k, lam / Fraction(2) ** k, den_sq / Fraction(4) ** k
        return float(num_sq) ** 0.5 / (float(lam) + float(den_sq) ** 0.5)


def _ratio_lt(a: tuple, b: tuple) -> bool:
    """Exact a < b for ratios sqrt(A)/(u + sqrt(B)) given as (A, u, B)."""
    a_num, a_u, a_b = a
    b_num, b_u, b_b = b
    # a < b  <=>  A_a (u_b + sqrt(B_b))^2 < A_b (u_a + sqrt(B_a))^2
    p = a_num * (b_u * b_u + b_b)
    s = 2 * a_num * b_u  # coefficient of sqrt(B_b)
    q = b_num * (a_u * a_u + a_b)
    t = 2 * b_num * a_u  # coefficient of sqrt(B_a)
    return sqrt_sum_sign(q - p, t, a_b, -s, b_b) > 0


def octahedrality_deficit(
    space: SpaceSpec,
    basis: tuple[SparseVector, ...],
    candidate: SparseVector,
    mesh: tuple[tuple[Fraction, tuple[Fraction, ...]], ...],
    config: RunConfig = DEFAULT_CONFIG,
) -> OctahedralityReport:
    """Exact mesh minimum of the octahedrality ratio for candidate x.

    Mesh points are (scalar, coefficients for the basis); the all-zero point
    is rejected.  Degenerate points where both the scalar and the combination
    vanish (dependent basis) are skipped.
    """
    if not mesh:
        raise PreconditionError("mesh must be nonempty")
    candidate.validate_for(space)
    if not norm(candidate, space, config).eq(Fraction(1)):
        raise PreconditionError("candidate must have norm exactly 1")
    for lam, coeffs in mesh:
        if len(coeffs) != len(basis):
            raise PreconditionError("each mesh point needs one coefficient per basis vector")
        if lam == 0 and all(c == 0 for c in coeffs):
            raise PreconditionError("mesh must not contain the all-zero point")

    best_parts: tuple | None = None
    argmin = mesh[0]
    for lam, coeffs in mesh:
        terms = [(c, vec) for c, vec in zip(coeffs, basis) if c != 0]
        y = SparseVector.from_pairs((n, c * val) for c, vec in terms for n, val in vec.entries)
        v = candidate.scale(lam) + y
        den_sq = norm(y, space, config).squared
        if lam == 0 and den_sq == 0:
            continue
        parts = (norm(v, space, config).squared, abs(lam), den_sq)
        if best_parts is None or _ratio_lt(parts, best_parts):
            best_parts = parts
            argmin = (lam, tuple(coeffs))
    if best_parts is None:
        raise PreconditionError("every mesh point was degenerate")
    deficit = None
    if space.aggregates_l1:  # the L1 ratio is rational: report it, not its parts
        num_sq, lam, den_sq = best_parts
        deficit = exact_sqrt(num_sq) / (lam + exact_sqrt(den_sq))
        best_parts = None
    return OctahedralityReport(
        space=space.kind,
        basis=tuple(basis),
        candidate=candidate,
        mesh=tuple((l, tuple(c)) for l, c in mesh),
        deficit=deficit,
        deficit_parts=best_parts,
        argmin=argmin,
    )


def fresh_direction(basis: tuple[SparseVector, ...]) -> SparseVector:
    """Unit vector on a branch avoiding every basis support, one level deeper
    than all of them (infinite-branching spaces)."""
    paths = [n for vec in basis for n in vec.support]
    depth = max((len(n) for n in paths), default=0) + 1
    branch = avoiding_branch(paths, depth)
    return unit_vector(branch[-1])


def l1_basis_check(
    space: SpaceSpec, coefficients: tuple[Fraction, ...], config: RunConfig = DEFAULT_CONFIG
) -> tuple[Fraction, bool]:
    """Norm of sum a_i e_(i) over level-1 siblings, and whether it equals
    sum |a_i| exactly (the isometric l1 rows of the infinitely branching
    spaces)."""
    if space.kind not in (SpaceKind.JH_INF, SpaceKind.M_HYP):
        raise SpaceMismatchError("l1 rows live in JH_INF and M_HYP")
    if len(coefficients) < 1:
        raise PreconditionError("need at least one coefficient")
    x = SparseVector(tuple(((i + 1,), Fraction(c)) for i, c in enumerate(coefficients) if c != 0))
    value = norm(x, space, config).value
    expected = sum((abs(Fraction(c)) for c in coefficients), Fraction(0))
    return value, value == expected
