import hashlib
import json
import random
from fractions import Fraction

import pytest

from jamestree.dualnorm import dual_norm
from jamestree.errors import CertificationError, PreconditionError
from jamestree.functionals import (
    MOLECULE,
    SIGNED_FAMILY,
    DualFunctional,
    evaluate,
    segment_functional,
    validate_functional,
)
from jamestree.lp import LPState
from jamestree.norms import norm
from jamestree.reference import dense_dual_norm_l1, grid_scan_dual_norm_jt
from jamestree.sampling import random_signed_family, random_vector
from jamestree.schemas import dual_cert_to_json
from jamestree.spaces import ALL_SPACES, JH, JH_INF, JT_INF, M_HYP
from jamestree.trees import Closure, Segment, is_admissible
from test_lp import _time_limit


def test_single_segment_functional_is_unit():
    g = segment_functional((1,), (1, 0, 1))
    for space in (JH_INF, M_HYP, JT_INF):
        cert = dual_norm(g, space)
        assert cert.lower == cert.upper == 1


def test_aligned_disjoint_pair_exactly_one():
    g = segment_functional((1,), (1, 0)) - segment_functional((2,), (2, 1))
    cert = dual_norm(g, JH_INF)
    assert cert.lower == cert.upper == 1


def test_offset_pair_from_derived_example():
    g = segment_functional((1,), (1,)) - segment_functional((2,), (2, 1))
    cert = dual_norm(g, JH_INF)
    assert cert.lower == cert.upper == 1


def test_unaligned_pairs_under_53():
    bound = Fraction(5, 3) + Fraction(1, 10**9)
    rng = random.Random(13)
    for _ in range(10):
        p = rng.randint(1, 2)
        q = rng.randint(p, 3)
        r = rng.randint(q, 4)
        top_r = tuple(rng.randrange(2) for _ in range(p))
        top_s = top_r
        while top_s == top_r:
            top_s = tuple(rng.randrange(2) for _ in range(p))
        seg_r = Segment(top_r, top_r + tuple(rng.randrange(2) for _ in range(q - p)))
        seg_s = Segment(top_s, top_s + tuple(rng.randrange(2) for _ in range(r - p)))
        cert = dual_norm(segment_functional(*seg_r.sort_key()) - segment_functional(*seg_s.sort_key()), JH_INF)
        assert cert.upper <= bound


def test_norming_classes_stay_in_dual_ball():
    rng = random.Random(17)
    for _ in range(15):
        g = random_signed_family(rng, JH_INF, 3)
        cert = dual_norm(g, JH_INF)
        assert cert.upper <= 1
    for _ in range(15):
        segs = (Segment((1,), (1, rng.randrange(3))), Segment((2,), (2, rng.randrange(3))))
        mol = DualFunctional(
            ((Fraction(3, 5), segs[0]), (Fraction(4, 5), segs[1])), MOLECULE
        )
        cert = dual_norm(mol, JT_INF, tol=Fraction(1, 10**6))
        assert cert.upper <= 1 + Fraction(1, 10**6)


def test_lower_bound_dominates_rayleigh_quotients():
    rng = random.Random(19)
    for space in (JH_INF, JT_INF):
        for _ in range(10):
            g = random_signed_family(rng, JH_INF, 2)
            g = DualFunctional(g.terms, "general")
            cert = dual_norm(g, space, tol=Fraction(1, 10**6))
            for _ in range(5):
                x = random_vector(rng, space, max_level=2, max_nodes=3)
                if x.is_zero:
                    continue
                res = norm(x, space)
                val = abs(evaluate(g, x))
                if res.value is not None:
                    assert cert.upper * res.value >= val
                else:
                    # upper >= |g(x)|/sqrt(value_sq): compare squares
                    assert cert.upper * cert.upper * res.value_sq >= val * val


def test_dual_triangle_and_homogeneity():
    rng = random.Random(23)
    for _ in range(6):
        g = random_signed_family(rng, JH_INF, 2)
        h = random_signed_family(rng, JH_INF, 2)
        cg = dual_norm(g, JH_INF)
        ch = dual_norm(h, JH_INF)
        csum = dual_norm(g + h, JH_INF)
        assert csum.lower <= cg.upper + ch.upper
        scaled = dual_norm(g.scale(Fraction(-3, 2)), JH_INF)
        assert scaled.lower == Fraction(3, 2) * cg.lower
        assert scaled.upper == Fraction(3, 2) * cg.upper


def test_certificate_invariants_and_cut_soundness():
    g = segment_functional((1,), (1,)) - segment_functional((2,), (2, 1))
    cert = dual_norm(g, JH_INF)
    assert cert.lower <= cert.upper
    res = norm(cert.witness_vector, JH_INF)
    assert res.le(Fraction(1))
    assert evaluate(g, cert.witness_vector) == cert.lower
    for family in cert.cuts:
        assert is_admissible(family.segments, JH_INF)


def test_cuts_are_norming_functionals_in_every_space():
    # each cut is a validated member of the space's norming set, so it is at
    # most 1 on the witness vector, which lies in the unit ball
    rng = random.Random(31)
    cases = [
        (
            JT_INF,
            DualFunctional(
                ((Fraction(3, 5), Segment((1,), (1, 0))), (Fraction(4, 5), Segment((2,), (2, 1)))),
                MOLECULE,
            ),
        )
    ]
    for space in (JH, JH_INF, M_HYP, JT_INF):
        for _ in range(4):
            g = random_signed_family(rng, space, 2) - random_signed_family(rng, space, 2)
            if g.nodes():
                cases.append((space, g))
    cut_count = 0
    for space, g in cases:
        cert = dual_norm(g, space, tol=Fraction(1, 10**6))
        for cut in cert.cuts:
            assert cut.class_tag == (SIGNED_FAMILY if space.aggregates_l1 else MOLECULE)
            validate_functional(cut, space)
            assert evaluate(cut, cert.witness_vector) <= 1
        cut_count += len(cert.cuts)
    assert cut_count > len(cases)


def test_level_cap_precondition():
    g = segment_functional((1,), (1, 0, 1))
    with pytest.raises(PreconditionError):
        dual_norm(g, JH_INF, level_cap=2)


def test_jt_tol_finer_than_cut_resolution_rejected():
    # the box bound of g is 2, so JT_INF accepts tol >= 2/10^12 and stops
    # there; a 10^400 coefficient asks for a 10^-409 relative gap, which the
    # cut loop used to chase for hours
    g = segment_functional((1,), (1, 0))
    assert dual_norm(g, JT_INF, tol=Fraction(2, 10**12)).upper == 1
    with pytest.raises(PreconditionError):
        dual_norm(g, JT_INF, tol=Fraction(1, 10**12))
    with pytest.raises(PreconditionError):
        dual_norm(g.scale(Fraction(10**400)), JT_INF)
    assert dual_norm(g, JH_INF, tol=Fraction(1, 10**30)).exact  # L1 spaces are exact; tol is unused


def test_jt_tol_at_the_guard_converges():
    # the finest tol the guard admits, on a functional whose coefficients
    # span six orders of magnitude: 151 cut rounds
    g = DualFunctional(
        (
            (Fraction(1, 10**6), Segment((), (0,))),
            (Fraction(1), Segment((1,), (1, 2))),
            (Fraction(-2, 3), Segment((2,), (2,))),
        ),
        "general",
    )
    tol = sum(abs(c) for c in g.coefficient_map().values()) / 10**12
    with _time_limit(30):
        cert = dual_norm(g, JT_INF, tol=tol)
    assert cert.lower <= cert.upper <= cert.lower + tol


def test_oracle_equivalence_dense_lp():
    # small functionals against the full-constraint-set LP, all three L1 spaces
    from jamestree.dualnorm import _variables

    rng = random.Random(29)
    for space in (JH_INF, M_HYP, JH):
        for _ in range(5):
            g = random_signed_family(rng, space, 2)
            h = random_signed_family(rng, space, 2)
            diff = g - h
            if not diff.nodes():
                continue
            cert = dual_norm(diff, space)
            variables = _variables(diff, space, diff.depth())
            coeffs = diff.coefficient_map()
            if space is M_HYP:
                coeffs.pop((), None)
            dense = dense_dual_norm_l1(coeffs, variables, space)
            assert cert.lower == dense == cert.upper, (space.kind, diff.terms)


def test_dense_lp_route_rechecks_its_optimizer(monkeypatch):
    # the oracle's LP is the engine's solver; a wrong optimizer from it must
    # not pass silently
    from jamestree import lp
    from jamestree.dualnorm import _variables

    g = segment_functional((), (1,)) - segment_functional((0,), (0,))
    variables = _variables(g, JH_INF, g.depth())
    coeffs = g.coefficient_map()
    assert dense_dual_norm_l1(coeffs, variables, JH_INF) == 2
    solve = lp.simplex_max
    for corrupt in (
        lambda value, x: (value, [2 * v for v in x]),  # leaves the unit ball
        lambda value, x: (value + 1, x),  # does not attain the value
    ):
        monkeypatch.setattr(lp, "simplex_max", lambda c, rows, state=None: corrupt(*solve(c, rows, state)))
        with pytest.raises(CertificationError):
            dense_dual_norm_l1(coeffs, variables, JH_INF)


def test_oracle_equivalence_grid_scan_jt():
    g = DualFunctional(
        ((Fraction(1), Segment((), ())), (Fraction(-1), Segment((1,), (1,)))), "general"
    )
    cert = dual_norm(g, JT_INF, tol=Fraction(1, 10**6))
    variables = tuple(Closure(g.nodes()).sorted_nodes)
    scan_lower, scan_upper = grid_scan_dual_norm_jt(g.coefficient_map(), variables, steps=6)
    # both intervals contain the true value, so they must intersect
    assert cert.lower <= scan_upper and scan_lower <= cert.upper


def test_zero_functional():
    g = DualFunctional((), "general")
    cert = dual_norm(g, JH_INF)
    assert cert.lower == cert.upper == 0


def _pinned_certificate_inputs():
    """(functional, space, tol) for seeded signed families and their
    differences in all four spaces."""
    rng = random.Random(2022)
    for space in ALL_SPACES:
        jt = space is JT_INF
        for _ in range(12):
            f = random_signed_family(rng, space, 2 if jt else 3)
            g = random_signed_family(rng, space, 2 if jt else 3)
            for h in (f, f - g):
                if h.coefficient_map():
                    yield h, space, Fraction(1, 10**6) if jt else None


def test_dual_norm_certificates_are_pinned():
    # bounds, witness, cuts and rounds of the pinned inputs, hashed as JSON
    # records; the cut rows and the iterates come from the LP, so this pins
    # its optimizers too.  The hash was taken from the solver that kept
    # Fraction variable values
    digest = hashlib.sha256()
    for h, space, tol in _pinned_certificate_inputs():
        cert = dual_norm(h, space, tol=tol)
        digest.update(json.dumps(dual_cert_to_json(cert), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == "e942a1bb4b798e02ec75b4c9b6c67e6f60f7b8ebd5348d938374102a20923470"


def test_pivot_count_is_pinned(monkeypatch):
    # an exact work counter: simplex pivots over the pinned inputs, the
    # count of the full-tableau solver; bound flips are not pivots
    pivots = 0
    real = LPState._pivot

    def counted(self, *args):
        nonlocal pivots
        pivots += 1
        return real(self, *args)

    monkeypatch.setattr(LPState, "_pivot", counted)
    calls = 0
    for h, space, tol in _pinned_certificate_inputs():
        dual_norm(h, space, tol=tol)
        calls += 1
    assert calls == 95
    assert pivots == 1670
