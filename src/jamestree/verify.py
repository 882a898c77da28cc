"""The acceptance suite: every criterion as a runnable, exact check.

Each check returns a CheckResult with a pass flag and a short detail string;
the CLI `verify` subcommand runs a suite and exits 0 iff everything passed.
Wall-clock limits are enforced inside the checks that carry one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .certificates import (
    extend_within_ball,
    fresh_direction,
    l1_basis_check,
    m_ccw_witness,
    octahedrality_deficit,
    sd2p_witnesses,
)
from .config import DEFAULT_CONFIG, RunConfig
from .dualnorm import dual_norm
from .functionals import evaluate, segment_functional
from .norms import evaluate_family, norm
from .parallel import parallel_map
from .reference import naive_norm
from .sampling import (
    nonzero_fraction,
    random_signed_family,
    random_vector,
    random_weights,
    scaled_into_ball,
)
from .slices import SliceSpec, scenario_upper_bound, slice_diameter, slice_members
from .spaces import (
    ALL_SPACES,
    JH,
    JH_INF,
    JT_INF,
    M_HYP,
    SparseVector,
    SpaceKind,
    SpaceSpec,
    embed_dyadic,
    project_levels,
    unit_vector,
)
from .surds import sqrt_sum_sign
from .trees import Segment, enumerate_admissible_families, segments_disjoint


@dataclass(frozen=True)
class CheckResult:
    ident: str
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(ident, name, problems, detail, started) -> CheckResult:
    """Passed iff there are no problems; a failure shows the first four."""
    shown = "; ".join(problems[:4]) if problems else detail
    return CheckResult(ident, name, not problems, shown, time.monotonic() - started)


# --- criterion 1: optimized engine == naive oracle -------------------------

def _check1_batch(args: tuple[str, int, int]) -> tuple[int, int]:
    kind_value, seed, count = args
    space = SpaceSpec(SpaceKind(kind_value))
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(count):
        x = random_vector(rng, space, max_level=4, max_nodes=6, branching=3)
        res = norm(x, space)
        oracle_value, oracle_witness = naive_norm(x, space)
        engine_value = res.value if res.value is not None else res.value_sq
        if engine_value != oracle_value:
            mismatches += 1
            continue
        if not x.is_zero:
            if evaluate_family(res.witness, x) != oracle_value:
                mismatches += 1
            if evaluate_family(oracle_witness, x) != oracle_value:
                mismatches += 1
    return mismatches, count


def check_norm_oracle(config: RunConfig = DEFAULT_CONFIG) -> CheckResult:
    started = time.monotonic()
    per_space = 200
    chunk = 25
    tasks = []
    for si, space in enumerate(ALL_SPACES):
        for ci in range(per_space // chunk):
            tasks.append((space.kind.value, config.seed * 10_000 + si * 100 + ci, chunk))
    results = parallel_map(_check1_batch, tasks, config.workers)
    mismatches = sum(m for m, _ in results)
    total = sum(c for _, c in results)
    elapsed = time.monotonic() - started
    within = "within" if elapsed < 60 else "OVER"
    detail = f"{total} vectors ({per_space} per space), {mismatches} mismatches, {within} the 60s limit"
    problems = [] if mismatches == 0 and elapsed < 60 else [detail]
    return _result("1", "norm oracle equivalence", problems, detail, started)


# --- criterion 2: singleton slice and zero diameter -------------------------

def _singleton_slice_vector(eps: Fraction) -> SparseVector:
    return SparseVector(
        (
            ((), 1 - eps),
            ((0,), eps),
            ((1,), -eps),
            ((0, 0), -eps),
            ((0, 1), -eps),
            ((1, 0), -eps),
            ((1, 1), eps),
        )
    )


def check_singleton_slice(config: RunConfig = DEFAULT_CONFIG) -> CheckResult:
    started = time.monotonic()
    problems = []
    optimal = Segment((), (0,))
    for eps in (Fraction(1, 8), Fraction(1, 5)):
        alpha = min(1 - 4 * eps, eps) / 2
        x = _singleton_slice_vector(eps)
        res = norm(x, JH, config)
        if not res.eq(Fraction(1)):
            problems.append(f"eps={eps}: norm {res.value} != 1")
            continue
        # verify the stated bound on every non-optimal family, not assume it
        bound = max(1 - eps, 4 * eps)
        for family in enumerate_admissible_families(x.support, JH, config):
            val = evaluate_family(family, x)
            if family.segments == (optimal,):
                continue
            if val > bound:
                problems.append(f"eps={eps}: family {family} exceeds max(1-eps,4eps)")
        members = slice_members(SliceSpec(x, alpha, JH), config)
        if len(members) != 1 or members[0].terms != ((Fraction(1), optimal),):
            problems.append(f"eps={eps}: slice is not the expected singleton ({len(members)} members)")
            continue
        report = slice_diameter(
            SliceSpec(x, alpha, JH),
            scenario="JH_ZERO",
            scenario_params={"epsilon": eps, "alpha": alpha},
            config=config,
        )
        if report.lower != 0 or report.upper != 0:
            problems.append(f"eps={eps}: diameter not exactly 0")
    detail = "singleton slice and diameter 0 for eps in {1/8, 1/5}"
    return _result("2", "singleton norming-set slice, diameter 0", problems, detail, started)


# --- criterion 3: two-point slicing vector, sqrt(2) bound -------------------

def _alpha_grid(delta: Fraction) -> list[Fraction]:
    """Largest k/2048 with (1 - alpha)^2 > 1 - delta, then a 5-point even grid below it."""
    k = 0
    while (1 - Fraction(k + 1, 2048)) ** 2 > 1 - delta:
        k += 1
    top = Fraction(k, 2048)
    return [top * j / 5 for j in range(1, 6)]


def check_sqrt2_bound(config: RunConfig = DEFAULT_CONFIG) -> CheckResult:
    started = time.monotonic()
    eps = Fraction(1, 5)
    x = SparseVector((((), 1 - eps), ((1,), eps)))
    problems = []
    pair_count = 0
    for delta in (Fraction(1, 100), Fraction(1, 25)):
        if not delta < min(eps, 2 * eps * (1 - eps)):
            problems.append(f"delta={delta} violates its own constraint")
            continue
        for alpha in _alpha_grid(delta):
            if not (1 - alpha) ** 2 > 1 - delta or not 0 < alpha:
                problems.append(f"alpha={alpha} off the admissible grid")
                continue
            bound = scenario_upper_bound("JT_SQRT2", alpha=alpha, delta=delta, epsilon=eps)
            spec = SliceSpec(x, alpha, JT_INF, level_cap=3)
            members = slice_members(spec, config)
            if not members:
                problems.append(f"delta={delta}, alpha={alpha}: empty slice")
                continue
            for g in members:
                leading = [
                    (c, s) for c, s in g.terms if s.contains(()) and s.contains((1,))
                ]
                if len(leading) != 1:
                    problems.append(f"member without a leading segment through root and (1)")
                    continue
                lam1 = leading[0][0]
                rest_sq = sum((c * c for c, s in g.terms if (c, s) != leading[0]), Fraction(0))
                if not lam1 > 1 - alpha:
                    problems.append(f"lambda_1 = {lam1} <= 1 - alpha = {1 - alpha}")
                if not lam1 * lam1 > 1 - delta:
                    problems.append(f"lambda_1^2 = {lam1 * lam1} <= 1 - delta")
                if not rest_sq < delta:
                    problems.append(f"residual mass {rest_sq} >= delta={delta}")
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    cert = dual_norm(members[i] - members[j], JT_INF, config=config)
                    pair_count += 1
                    if bound.compare(cert.upper) < 0:
                        problems.append(
                            f"pair distance {cert.upper} exceeds sqrt(2)+alpha+2sqrt(delta)"
                        )
    detail = f"2 deltas x 5 alphas, structural facts for every member, {pair_count} pair distances under the surd bound"
    return _result("3", "sqrt(2) + alpha + 2 sqrt(delta) slice bound", problems, detail, started)


# --- criterion 4: exhaustive disjoint pair sweep, 5/3 ------------------------

def _canonical_pair_key(r_seg: Segment, s_seg: Segment):
    """The pair relabeled so that, walking r's bottom and then s's bottom,
    each new child of a node takes that node's next free index.

    r's bottom becomes all zeros.  s's bottom follows it to their first
    difference, which becomes a second child (1), and goes on through fresh
    first children (0); with no difference it is all zeros.  A top is a
    prefix of its bottom, so it relabels to a prefix of it."""
    r_bottom, s_bottom = r_seg.bottom, s_seg.bottom
    d = next((i for i, (u, v) in enumerate(zip(r_bottom, s_bottom)) if u != v), None)
    r_key = (0,) * len(r_bottom)
    s_key = (0,) * len(s_bottom) if d is None else (0,) * d + (1,) + (0,) * (len(s_bottom) - d - 1)
    return (r_key[: len(r_seg.top)], r_key, s_key[: len(s_seg.top)], s_key)


def check_53_bound(config: RunConfig = DEFAULT_CONFIG) -> CheckResult:
    started = time.monotonic()
    tol = Fraction(1, 10**9)
    limit = Fraction(5, 3) + tol
    memo: dict = {}
    problems = []
    pairs = 0
    nonaligned_values: set[Fraction] = set()
    for p in range(1, 5):
        tops = list(product(range(3), repeat=p))
        # per bottom level, each top's segments, in extension order
        segs = {
            q: {top: [Segment(top, top + e) for e in product(range(3), repeat=q - p)] for top in tops}
            for q in range(p, 5)
        }
        for q in range(p, 5):
            for r in range(q, 5):
                for top_r in tops:
                    for top_s in tops:
                        if top_r == top_s:
                            continue
                        if q == r and top_r > top_s:
                            continue
                        for seg_r in segs[q][top_r]:
                            for seg_s in segs[r][top_s]:
                                if not segments_disjoint(seg_r, seg_s):
                                    problems.append("generated pair not disjoint")
                                    continue
                                pairs += 1
                                key = _canonical_pair_key(seg_r, seg_s)
                                if key not in memo:  # the class is judged once
                                    g = segment_functional(*seg_r.sort_key()) - segment_functional(
                                        *seg_s.sort_key()
                                    )
                                    cert = dual_norm(g, JH_INF, tol=tol, config=config)
                                    lower, upper = cert.lower, cert.upper
                                    memo[key] = (upper, upper > limit, q == r and not (lower == upper == 1))
                                    if q < r:
                                        nonaligned_values.add(upper)
                                upper, over, not_one = memo[key]
                                if over:
                                    problems.append(f"pair ({seg_r}, {seg_s}) upper {upper} > 5/3 + 1e-9")
                                if not_one:
                                    problems.append(f"aligned pair ({seg_r}, {seg_s}) != 1 exactly")
    elapsed = time.monotonic() - started
    if elapsed >= 300:
        problems.append("runtime over the 5-minute limit")
    values = ", ".join(str(v) for v in sorted(nonaligned_values))
    detail = (
        f"{pairs} pairs, {len(memo)} relabeling classes; aligned all exactly 1; "
        f"non-aligned truncated exact values (new data, not ground truth): {{{values}}}; "
        "within the 5-minute limit"
    )
    return _result("4", "disjoint pair dual norms <= 5/3, aligned = 1", problems, detail, started)


# --- criterion 5: strong-diameter-2 certificates ----------------------------

def check_sd2p(config: RunConfig = DEFAULT_CONFIG) -> CheckResult:
    started = time.monotonic()
    problems = []
    alpha = Fraction(1, 4)
    for space in (JH, JH_INF):
        rng = random.Random(config.seed * 100 + (1 if space.dyadic else 2))
        for trial in range(5):
            k = rng.randint(1, 3)
            slices = tuple((random_signed_family(rng, space, 2), alpha) for _ in range(k))
            weights = random_weights(rng, k)
            try:
                cert = sd2p_witnesses(slices, weights, space, config)
            except Exception as exc:
                problems.append(f"{space.kind.value} trial {trial}: {exc}")
                continue
            if cert.distance != 2:
                problems.append(f"{space.kind.value} trial {trial}: distance {cert.distance}")
            for (g, a), y, z in zip(slices, cert.y_vectors, cert.z_vectors):
                if not norm(y, space, config).le(Fraction(1)) or not norm(z, space, config).le(
                    Fraction(1)
                ):
                    problems.append(f"{space.kind.value} trial {trial}: witness norm > 1")
                if not evaluate(g, y) > 1 - a or not evaluate(g, z) > 1 - a:
                    problems.append(f"{space.kind.value} trial {trial}: membership failed")
    detail = "5 seeded combinations per space, distance exactly 2, norms and memberships verified"
    return _result("5", "SD2P certificates (JH, JH_INF)", problems, detail, started)


# --- criterion 6: hyperplane w*-slice combinations ---------------------------

def check_ccw(config: RunConfig = DEFAULT_CONFIG) -> CheckResult:
    started = time.monotonic()
    problems = []
    rng = random.Random(config.seed * 100 + 6)
    for trial in range(5):
        k = rng.randint(1, 3)
        vectors = []
        while len(vectors) < k:
            x = random_vector(rng, M_HYP, max_level=3, max_nodes=4)
            if not x.is_zero:
                vectors.append(x)
        slices = tuple((x, Fraction(1, 2)) for x in vectors)
        weights = random_weights(rng, k)
        try:
            cert = m_ccw_witness(slices, weights, config)
        except Exception as exc:
            problems.append(f"trial {trial}: {exc}")
            continue
        if cert.distance != 2:
            problems.append(f"trial {trial}: distance {cert.distance}")
        gap = evaluate(cert.plus - cert.minus, unit_vector(cert.witness_node))
        if gap != 2:
            problems.append(f"trial {trial}: witness-node evaluation {gap} != 2")
    detail = "5 seeded combinations, pair distance exactly 2 via the witness node"
    return _result("6", "hyperplane w*-slice combination distance 2", problems, detail, started)


# --- criterion 7: l1 rows -----------------------------------------------------

def check_l1_rows(config: RunConfig = DEFAULT_CONFIG) -> CheckResult:
    started = time.monotonic()
    rng = random.Random(config.seed * 100 + 7)
    problems = []
    for trial in range(20):
        n = rng.randint(1, 5)
        coeffs = tuple(rng.choice([Fraction(0), nonzero_fraction(rng)]) for _ in range(n))
        for space in (JH_INF, M_HYP):
            value, equal = l1_basis_check(space, coeffs, config)
            if not equal or value != sum(abs(c) for c in coeffs):
                problems.append(f"trial {trial} {space.kind.value}: {coeffs} -> {value}")
    detail = "20 random tuples, N <= 5, exact equality in JH_INF and M_HYP"
    return _result("7", "isometric l1 rows", problems, detail, started)


# --- criterion 8: ball-preserving extensions ---------------------------------

def check_extensions(config: RunConfig = DEFAULT_CONFIG) -> CheckResult:
    started = time.monotonic()
    problems = []
    sizes = (2, 3, 5)
    for si, space in enumerate(ALL_SPACES):
        rng = random.Random(config.seed * 100 + 80 + si)
        for trial in range(100):
            n = sizes[trial % 3]
            x = scaled_into_ball(rng, space, 1 - Fraction(1, n))
            signs = tuple(rng.choice((1, -1)) for _ in range(n))
            try:
                y = extend_within_ball(x, n, signs, space, config)
            except Exception as exc:
                problems.append(f"{space.kind.value} trial {trial}: {exc}")
                continue
            if not norm(y, space, config).le(Fraction(1)):
                problems.append(f"{space.kind.value} trial {trial}: extension norm > 1")
    detail = "100 randomized extensions per space, n in {2,3,5}, all norms <= 1 exactly"
    return _result("8", "ball-preserving extensions", problems, detail, started)


# --- criterion 9: octahedrality deficits --------------------------------------

def _nine_point_mesh(rng: random.Random, dim: int):
    mesh = []
    choices = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(2)]
    while len(mesh) < 9:
        lam = rng.choice(choices + [Fraction(0)])
        coeffs = tuple(rng.choice(choices + [Fraction(0)]) for _ in range(dim))
        if lam == 0 and all(c == 0 for c in coeffs):
            continue
        mesh.append((lam, coeffs))
    return tuple(mesh)


def check_octahedrality(config: RunConfig = DEFAULT_CONFIG) -> CheckResult:
    started = time.monotonic()
    problems = []
    rng = random.Random(config.seed * 100 + 9)
    for trial in range(10):
        dim = rng.randint(1, 2)
        basis = []
        while len(basis) < dim:
            v = random_vector(rng, M_HYP, max_level=2, max_nodes=3)
            if not v.is_zero:
                basis.append(v)
        candidate = fresh_direction(tuple(basis))
        mesh = _nine_point_mesh(rng, dim)
        report = octahedrality_deficit(M_HYP, tuple(basis), candidate, mesh, config)
        if report.deficit != 1:
            problems.append(f"trial {trial}: fresh-node deficit {report.deficit} != 1")
    mesh16 = tuple(
        (l, (c,))
        for l in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))
        for c in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))
    )
    counter = octahedrality_deficit(JH, (unit_vector(()),), unit_vector((0,)), mesh16, config)
    if counter.deficit != Fraction(1, 2):
        problems.append(f"level-1 counterexample deficit {counter.deficit} != 1/2")
    detail = "10 fresh-node candidates at deficit exactly 1; counterexample detected at 1/2"
    return _result("9", "octahedrality deficits", problems, detail, started)


# --- criterion 10: structural invariants ---------------------------------------

def _triangle_ok(rx, ry, rxy) -> bool:
    # ||x + y|| <= ||x|| + ||y||  <=>  X + Y - Z + 2 sqrt(XY) >= 0 on squares
    x2, y2 = rx.squared, ry.squared
    return sqrt_sum_sign(x2 + y2 - rxy.squared, 2, x2 * y2) >= 0


def check_structural(config: RunConfig = DEFAULT_CONFIG) -> CheckResult:
    started = time.monotonic()
    problems = []
    rng = random.Random(config.seed * 100 + 10)

    # norm axioms
    for trial in range(200):
        space = ALL_SPACES[trial % 4]
        x = random_vector(rng, space, max_level=3, max_nodes=4)
        y = random_vector(rng, space, max_level=3, max_nodes=4)
        scalar = rng.choice([Fraction(0), nonzero_fraction(rng)])
        rx, ry = norm(x, space, config), norm(y, space, config)
        rxy = norm(x + y, space, config)
        rqx = norm(x.scale(scalar), space, config)
        if rqx.squared != scalar * scalar * rx.squared:
            problems.append(f"homogeneity failed ({space.kind.value})")
        if not _triangle_ok(rx, ry, rxy):
            problems.append(f"triangle inequality failed ({space.kind.value})")
        if (rx.squared == 0) != x.is_zero:
            problems.append(f"norm-zero iff zero failed ({space.kind.value})")

    # monotone level projections
    for trial in range(200):
        space = ALL_SPACES[trial % 4]
        x = random_vector(rng, space, max_level=4, max_nodes=5)
        full = norm(x, space, config)
        for lev in range(0, max(x.max_level, 0) + 1):
            part = norm(project_levels(x, lev), space, config)
            if part.squared > full.squared:
                problems.append(f"projection grew the norm ({space.kind.value})")

    # hyperplane restriction equivalence: root-free vectors
    for trial in range(200):
        x = random_vector(rng, M_HYP, max_level=3, max_nodes=5)
        if norm(x, JH_INF, config).value != norm(x, M_HYP, config).value:
            problems.append("p >= 1 restriction changed a root-free norm")

    # isometric dyadic embedding
    for trial in range(200):
        x = random_vector(rng, JH, max_level=3, max_nodes=5)
        if norm(x, JH, config).value != norm(embed_dyadic(x), JH_INF, config).value:
            problems.append("dyadic embedding is not isometric")

    detail = "axioms, monotone projections, hyperplane restriction, dyadic embedding: 200 instances each, exact"
    return _result("10", "structural invariants", problems, detail, started)


CHECKS = {
    "1": check_norm_oracle,
    "2": check_singleton_slice,
    "3": check_sqrt2_bound,
    "4": check_53_bound,
    "5": check_sd2p,
    "6": check_ccw,
    "7": check_l1_rows,
    "8": check_extensions,
    "9": check_octahedrality,
    "10": check_structural,
}

SUITES = {
    "all": list(CHECKS),
    "norms": ["1", "10"],
    "duals": ["4"],
    "slices": ["2", "3"],
    "certs": ["5", "6", "7", "8", "9"],
}


def run_suite(suite: str, config: RunConfig = DEFAULT_CONFIG) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return [CHECKS[ident](config) for ident in SUITES[suite]]
