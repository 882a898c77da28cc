import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from jamestree.certificates import (
    extend_within_ball,
    fresh_direction,
    l1_basis_check,
    m_ccw_witness,
    octahedrality_deficit,
    sd2p_witnesses,
)
from jamestree import certificates, dualnorm
from jamestree.errors import CertificationError, JamesTreeError, PreconditionError, SpaceMismatchError
from jamestree.dualnorm import dual_norm
from jamestree.functionals import evaluate, segment_functional
from jamestree.norms import norm
from jamestree.sampling import random_signed_family, random_vector, random_weights, scaled_into_ball
from jamestree.schemas import ccw_cert_to_json, sd2p_cert_to_json
from jamestree.spaces import (
    ALL_SPACES,
    JH,
    JH_INF,
    JT_INF,
    M_HYP,
    SparseVector,
    unit_vector,
)


def test_extend_example_half_root():
    x = SparseVector((((), Fraction(1, 2)),))
    y = extend_within_ball(x, 2, (1, 1), JH)
    assert y.entries == (
        ((), Fraction(1, 2)),
        ((0, 0), Fraction(1, 2)),
        ((0, 1), Fraction(1, 2)),
    )
    assert norm(y, JH).value == 1


def test_extend_zero_vector_hits_sphere():
    y = extend_within_ball(SparseVector(()), 2, (1, -1), JH)
    assert norm(y, JH).value == 1


def test_extend_precondition():
    with pytest.raises(PreconditionError):
        extend_within_ball(unit_vector((0,)), 2, (1, 1), JH)
    with pytest.raises(PreconditionError):
        extend_within_ball(SparseVector(()), 1, (1,), JH)
    with pytest.raises(PreconditionError):
        # JT_INF with root mass: the guarantee genuinely fails there
        extend_within_ball(SparseVector((((), Fraction(1, 2)),)), 2, (1, 1), JT_INF)


def test_extend_all_sign_patterns_small_n():
    rng = random.Random(47)
    for space in ALL_SPACES:
        for n in (2, 3):
            for signs in product((1, -1), repeat=n):
                x = scaled_into_ball(rng, space, 1 - Fraction(1, n))
                y = extend_within_ball(x, n, signs, space)
                assert norm(y, space).le(Fraction(1))


def test_sd2p_single_slice_properties():
    g = segment_functional((), ())
    alpha = Fraction(3, 10)
    cert = sd2p_witnesses(((g, alpha),), (Fraction(1),), JH)
    assert cert.distance == 2
    assert cert.m == 14
    assert cert.interior_points[0].entries == (((), Fraction(37, 40)),)
    for y, z in zip(cert.y_vectors, cert.z_vectors):
        assert norm(y, JH).le(Fraction(1)) and norm(z, JH).le(Fraction(1))
        assert evaluate(g, y) > 1 - alpha and evaluate(g, z) > 1 - alpha
    # the separating functional is singletons at a fresh common level
    assert all(s.p == s.q == cert.fresh_level for _, s in cert.separating.terms)


def test_sd2p_two_slices():
    slices = (
        (segment_functional((), ()), Fraction(1, 4)),
        (segment_functional((), (1,)), Fraction(1, 4)),
    )
    cert = sd2p_witnesses(slices, (Fraction(1, 2), Fraction(1, 2)), JH)
    assert cert.distance == 2


def test_sd2p_alpha_zero_rejected():
    with pytest.raises(PreconditionError):
        sd2p_witnesses(((segment_functional((), ()), Fraction(0)),), (Fraction(1),), JH)
    with pytest.raises(SpaceMismatchError):
        sd2p_witnesses(((segment_functional((), ()), Fraction(1, 4)),), (Fraction(1),), JT_INF)



def test_sd2p_runs_one_dual_norm_per_slice_functional(monkeypatch):
    # the dual norm that builds each interior point also certifies that its
    # functional lies in the dual ball; the spy sits on both bindings, so a
    # second route through `dualnorm` would be counted too
    seen = []

    def spy(g, *args, **kwargs):
        seen.append(g)
        return dual_norm(g, *args, **kwargs)

    monkeypatch.setattr(certificates, "dual_norm", spy)
    monkeypatch.setattr(dualnorm, "dual_norm", spy)
    rng = random.Random(29)
    f, g = random_signed_family(rng, JH_INF, 2), random_signed_family(rng, JH_INF, 2)
    general = f.scale(Fraction(1, 2)) - g.scale(Fraction(1, 3))
    slices = ((f, Fraction(1, 4)), (general, Fraction(1, 2)))
    cert = sd2p_witnesses(slices, (Fraction(1, 3), Fraction(2, 3)), JH_INF)
    assert cert.distance == 2
    assert seen == [f, general]


def test_sd2p_rejects_a_functional_outside_the_dual_ball():
    g = segment_functional((), (0,)).scale(Fraction(2))
    with pytest.raises(CertificationError, match="^slice functional not certified inside the dual ball$"):
        sd2p_witnesses(((g, Fraction(1, 4)),), (Fraction(1),), JH)


@pytest.mark.parametrize(
    "count, weights, message",
    [
        (0, (), "at least one slice required"),
        (2, (Fraction(1),), "one weight per slice required"),
        (2, (Fraction(1, 2), Fraction(1, 3)), "weights must be positive and sum to 1"),
        (2, (Fraction(3, 2), Fraction(-1, 2)), "weights must be positive and sum to 1"),
    ],
    ids=["empty", "count", "sum", "sign"],
)
def test_combination_certificates_share_their_weight_checks(count, weights, message):
    sd2p = ((segment_functional((), ()), Fraction(1, 4)),) * count
    ccw = ((unit_vector((1,)), Fraction(1, 2)),) * count
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        sd2p_witnesses(sd2p, weights, JH)
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        m_ccw_witness(ccw, weights)

def test_ccw_single_slice():
    cert = m_ccw_witness(((unit_vector((1,)), Fraction(1, 2)),), (Fraction(1),))
    assert cert.distance == 2
    gap = evaluate(cert.plus - cert.minus, unit_vector(cert.witness_node))
    assert gap == 2


def test_ccw_two_slices_and_vacuous_epsilon():
    x2 = SparseVector((((2,), Fraction(1)), ((2, 1), Fraction(1))))
    cert = m_ccw_witness(
        ((unit_vector((1,)), Fraction(1, 2)), (x2, Fraction(1, 2))),
        (Fraction(1, 2), Fraction(1, 2)),
    )
    assert cert.distance == 2
    vacuous = m_ccw_witness(((unit_vector((1,)), Fraction(3)),), (Fraction(1),))
    assert vacuous.distance == 2


def test_sd2p_and_ccw_certificates_are_pinned():
    # sd2p certificates for 80 seeded combinations in JH and JH_INF, a third
    # of them over general functionals such as 1/2*g - 1/3*h, and ccw
    # certificates for 20 in M_HYP, hashed as JSON records; a call that
    # raises is hashed as the repr of its exception
    rng = random.Random(2024)
    digest = hashlib.sha256()

    def record(build):
        try:
            doc = build()
        except JamesTreeError as exc:
            doc = repr(exc)
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")

    coefficients = (Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(3, 2))
    for space in (JH, JH_INF):
        for trial in range(40):
            k = rng.randint(1, 3)
            slices = []
            for _ in range(k):
                g = random_signed_family(rng, space, 2)
                if trial % 3 == 0:
                    h = random_signed_family(rng, space, 2)
                    g = g.scale(rng.choice(coefficients)) - h.scale(rng.choice(coefficients))
                slices.append((g, rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(3)))))
            weights = random_weights(rng, k)
            record(lambda: sd2p_cert_to_json(sd2p_witnesses(tuple(slices), weights, space)))
    for _ in range(20):
        k = rng.randint(1, 3)
        vectors = []
        while len(vectors) < k:
            x = random_vector(rng, M_HYP, max_level=3, max_nodes=4)
            if not x.is_zero:
                vectors.append(x)
        slices = tuple((x, rng.choice((Fraction(1, 8), Fraction(1, 2), Fraction(3)))) for x in vectors)
        weights = random_weights(rng, k)
        record(lambda: ccw_cert_to_json(m_ccw_witness(slices, weights)))
    assert digest.hexdigest() == "54605f7c8259d60bdccc1d04bf7cffafb0bd74d9201b5c6495642818e343fbbe"


def test_octahedrality_examples():
    mesh = tuple(
        (l, (c,))
        for l in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))
        for c in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))
    )
    level_aligned = octahedrality_deficit(M_HYP, (unit_vector((1,)),), unit_vector((2,)), mesh)
    assert level_aligned.deficit == 1
    counterexample = octahedrality_deficit(JH, (unit_vector(()),), unit_vector((0,)), mesh)
    assert counterexample.deficit == Fraction(1, 2)
    assert counterexample.argmin == (Fraction(1), (Fraction(-1),))
    no_basis = octahedrality_deficit(M_HYP, (), unit_vector((1,)), ((Fraction(1), ()), (Fraction(-2), ())))
    assert no_basis.deficit == 1


def test_octahedrality_mesh_refinement_never_increases():
    basis = (unit_vector(()),)
    candidate = unit_vector((0,))
    coarse = tuple((l, (c,)) for l in (Fraction(1), Fraction(-1)) for c in (Fraction(1), Fraction(-1)))
    fine = coarse + tuple(
        (l, (c,)) for l in (Fraction(1, 2), Fraction(-1, 2)) for c in (Fraction(1), Fraction(-1))
    )
    a = octahedrality_deficit(JH, basis, candidate, coarse)
    b = octahedrality_deficit(JH, basis, candidate, fine)
    assert b.deficit <= a.deficit


def test_octahedrality_jt_exact_parts():
    mesh = ((Fraction(1), (Fraction(1),)), (Fraction(1), (Fraction(-1),)))
    report = octahedrality_deficit(JT_INF, (unit_vector((1,)),), unit_vector((2,)), mesh)
    assert report.deficit is None
    num_sq, lam, den_sq = report.deficit_parts
    # ||x +- e_1||^2 = 2, denominator 1 + 1: ratio sqrt(2)/2
    assert (num_sq, lam, den_sq) == (Fraction(2), Fraction(1), Fraction(1))
    assert abs(report.float_value - 2**0.5 / 2) < 1e-12


def test_octahedrality_ties_keep_the_first_point_in_every_space():
    basis, candidate = (unit_vector((1,)),), unit_vector((2,))
    mesh = (
        (Fraction(1), (Fraction(1, 2),)),
        (Fraction(2), (Fraction(2),)),
        (Fraction(1), (Fraction(1),)),
    )
    # JT_INF: sqrt(8)/(2 + 2) and sqrt(2)/(1 + 1) tie at sqrt(2)/2 with
    # different parts, below sqrt(5/4)/(1 + 1/2)
    jt = octahedrality_deficit(JT_INF, basis, candidate, mesh)
    assert jt.argmin == (Fraction(2), (Fraction(2),))
    assert jt.deficit is None and jt.deficit_parts == (8, 2, 4)
    # JH_INF: |l| + |c| over |l| + |c| ties at 1 on every point
    jh = octahedrality_deficit(JH_INF, basis, candidate, mesh)
    assert jh.argmin == (Fraction(1), (Fraction(1, 2),))
    assert jh.deficit == 1 and jh.deficit_parts is None


def test_octahedrality_rejects_zero_point():
    with pytest.raises(PreconditionError):
        octahedrality_deficit(JH, (unit_vector(()),), unit_vector((0,)), ((Fraction(0), (Fraction(0),)),))


def test_fresh_direction_deficit_one():
    rng = random.Random(53)
    for _ in range(5):
        basis = tuple(
            v for v in (random_vector(rng, M_HYP, max_level=2, max_nodes=3) for _ in range(2)) if not v.is_zero
        )
        if not basis:
            continue
        candidate = fresh_direction(basis)
        mesh = tuple(
            (l, tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in basis))
            for l in (Fraction(1), Fraction(-1, 2), Fraction(1, 3))
        )
        mesh = tuple((l, cs) for l, cs in mesh if not (l == 0 and all(c == 0 for c in cs)))
        report = octahedrality_deficit(M_HYP, basis, candidate, mesh)
        assert report.deficit == 1


def test_l1_basis_check_examples():
    value, equal = l1_basis_check(JH_INF, (Fraction(1), Fraction(-2), Fraction(3)))
    assert (value, equal) == (6, True)
    assert l1_basis_check(M_HYP, (Fraction(0), Fraction(0))) == (0, True)
    assert l1_basis_check(M_HYP, (Fraction(-7, 3),)) == (Fraction(7, 3), True)
    with pytest.raises(SpaceMismatchError):
        l1_basis_check(JH, (Fraction(1),))
