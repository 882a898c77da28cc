import random
from fractions import Fraction

import pytest

from jamestree.config import DEFAULT_CONFIG
from jamestree.dualnorm import dual_norm
from jamestree import slices
from jamestree.errors import EnumerationCapError, ScenarioConstraintError
from jamestree.functionals import MOLECULE, DualFunctional, evaluate, validate_functional
from jamestree.norms import norm
from jamestree.sampling import random_vector
from jamestree.slices import (
    SCENARIOS,
    SliceSpec,
    scenario_upper_bound,
    slice_diameter,
    slice_members,
)
from jamestree.spaces import JH, JH_INF, JT_INF, M_HYP, SparseVector, unit_vector
from jamestree.surds import Surd, sqrt_bounds
from jamestree.trees import Segment, enumerate_admissible_families


def singleton_slice_vector(eps):
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


def test_singleton_slice_members():
    eps = Fraction(1, 5)
    members = slice_members(SliceSpec(singleton_slice_vector(eps), Fraction(1, 10), JH))
    assert len(members) == 1
    assert members[0].terms == ((Fraction(1), Segment((), (0,))),)


def test_singleton_slice_on_parameter_grid():
    # singleton for every (eps, alpha) pair on an admissible 5x5 grid
    for i in range(1, 6):
        eps = Fraction(i, 24)  # 0 < eps < 1/4
        cap = min(1 - 4 * eps, eps)
        for j in range(1, 6):
            alpha = cap * j / 6
            members = slice_members(SliceSpec(singleton_slice_vector(eps), alpha, JH))
            assert len(members) == 1


def test_jt_slice_leading_coefficient():
    x = SparseVector((((), Fraction(4, 5)), ((1,), Fraction(1, 5))))
    members = slice_members(SliceSpec(x, Fraction(1, 10), JT_INF))
    assert members
    for g in members:
        leading = [(c, s) for c, s in g.terms if s.contains(()) and s.contains((1,))]
        assert len(leading) == 1
        assert leading[0][0] > 1 - Fraction(1, 10)
    # the chain's best molecule has value_sq = 1, so its coefficient is exactly 1
    assert ((Fraction(1), Segment((), (1,))),) in {g.terms for g in members}


def test_perfect_square_best_molecule_is_exact():
    # value_sq = 1/4: the best molecule on {(1), (2)} is (3/5, 4/5), off the
    # 1/8 grid, so only its exact rescaling can put it in the slice
    x = SparseVector((((1,), Fraction(3, 10)), ((2,), Fraction(2, 5))))
    members = slice_members(SliceSpec(x, Fraction(1, 10), JT_INF))
    best = DualFunctional(
        ((Fraction(3, 5), Segment((1,), (1,))), (Fraction(4, 5), Segment((2,), (2,)))), MOLECULE
    )
    assert best.terms in {g.terms for g in members}


def test_in_slice_best_molecule_is_never_dropped():
    # alpha lies about 10^-40 above sqrt(3) - sqrt(2), so every two-segment
    # best molecule (value sqrt(2)) is in the slice by a margin about 10^-40,
    # far below the error of the first square-root brackets
    x = unit_vector((1,)) + unit_vector((2,)) + unit_vector((3,))
    alpha = sqrt_bounds(Fraction(3), 10**40)[1] - sqrt_bounds(Fraction(2), 10**40)[0]
    res = norm(x, JT_INF)
    members = slice_members(SliceSpec(x, alpha, JT_INF))
    for g in members:
        validate_functional(g, JT_INF)
        assert res.exceeds_threshold(evaluate(g, x), alpha)
    singleton = {i: Segment((i,), (i,)) for i in (1, 2, 3)}
    chain = {i: Segment((), (i,)) for i in (1, 2, 3)}
    expected = {frozenset((singleton[i], singleton[j])) for i, j in ((1, 2), (1, 3), (2, 3))}
    expected |= {frozenset((chain[i], singleton[j])) for i in chain for j in singleton if i != j}
    assert len(expected) == 9
    assert {frozenset(g.segments) for g in members if len(g.terms) == 2} == expected


def test_molecule_grid_follows_the_run_config():
    x = SparseVector((((), Fraction(1, 2)), ((0,), Fraction(1, 3)), ((1,), Fraction(-1, 4))))
    spec = SliceSpec(x, Fraction(1, 4), JT_INF)
    coarse = slice_members(spec, DEFAULT_CONFIG.with_(grid_resolution=Fraction(1, 2)))
    fine = slice_members(spec, DEFAULT_CONFIG.with_(grid_resolution=Fraction(1, 8)))
    assert len(coarse) == 3 and len(fine) == 22
    assert {g.terms for g in coarse} <= {g.terms for g in fine}


def test_huge_alpha_gives_full_representative_list():
    x = SparseVector((((), Fraction(4, 5)), ((1,), Fraction(1, 5))))
    res = norm(x, JT_INF)
    # alpha >= 2*norm + 1: threshold falls below every representative value
    full = slice_members(SliceSpec(x, Fraction(4), JT_INF))
    bigger = slice_members(SliceSpec(x, Fraction(100), JT_INF))
    assert len(full) == len(bigger) > 0
    # L1 spaces: the full list is every sign pattern of every family
    y = unit_vector((0,)) + unit_vector((1,))
    families = enumerate_admissible_families(y.support, JH)
    expected = sum(2 ** len(f.segments) for f in families)
    alpha = 2 * norm(y, JH).value + 1
    assert len(slice_members(SliceSpec(y, alpha, JH))) == expected


def test_slice_monotone_in_alpha():
    rng = random.Random(43)
    for space in (JH, JH_INF, M_HYP):
        for _ in range(10):
            x = random_vector(rng, space, max_level=2, max_nodes=3)
            if x.is_zero:
                continue
            small = slice_members(SliceSpec(x, Fraction(1, 8), space))
            large = slice_members(SliceSpec(x, Fraction(1, 2), space))
            small_keys = {g.terms for g in small}
            large_keys = {g.terms for g in large}
            assert small_keys <= large_keys


def test_scenario_upper_bound_values():
    assert scenario_upper_bound("JHINF_53") == Fraction(5, 3)
    bound = scenario_upper_bound("JT_SQRT2", alpha=Fraction(1, 100), delta=Fraction(1, 25))
    assert bound == Surd(Fraction(1, 100), Fraction(1), Fraction(2), Fraction(1, 25))
    assert scenario_upper_bound("JH_ZERO", epsilon=Fraction(1, 5), alpha=Fraction(1, 20)) == 0
    # the CLI's --scenario choices: one parameter set meets every constraint
    for scenario in SCENARIOS:
        scenario_upper_bound(scenario, Fraction(1, 100), Fraction(1, 25), Fraction(1, 5))


def test_criterion_3_pair_lies_under_the_sqrt2_bound():
    # f_[(),(1,0)] - f_[(),(1,1)] has dual norm sqrt(2); its certified upper
    # bound, about 10^-10 above sqrt(2), lies under sqrt(2) + alpha + 2 sqrt(delta)
    g = DualFunctional(((Fraction(1), Segment((), (1, 0))),), MOLECULE)
    h = DualFunctional(((Fraction(1), Segment((), (1, 1))),), MOLECULE)
    cert = dual_norm(g - h, JT_INF)
    assert Surd(Fraction(0), Fraction(1)).compare(cert.lower) >= 0
    assert Surd(Fraction(0), Fraction(1)).compare(cert.upper) <= 0
    bound = scenario_upper_bound("JT_SQRT2", alpha=Fraction(41, 2048), delta=Fraction(1, 25))
    assert bound.compare(cert.upper) == 1
    assert bound.compare(cert.upper + Fraction(1, 2)) == -1


def test_scenario_upper_bound_constraints():
    with pytest.raises(ScenarioConstraintError) as err:
        scenario_upper_bound("JH_ZERO", epsilon=Fraction(1, 5), alpha=Fraction(1, 4))
    assert "min{1 - 4*epsilon, epsilon}" in str(err.value)
    with pytest.raises(ScenarioConstraintError):
        scenario_upper_bound("JT_SQRT2", alpha=Fraction(1, 20), delta=Fraction(1, 25))
    with pytest.raises(ScenarioConstraintError):
        scenario_upper_bound("JT_SQRT2", alpha=Fraction(1, 100), delta=Fraction(1, 25), epsilon=Fraction(1, 2))


def test_diameter_report_shapes():
    eps = Fraction(1, 5)
    alpha = Fraction(1, 10)
    report = slice_diameter(
        SliceSpec(singleton_slice_vector(eps), alpha, JH),
        scenario="JH_ZERO",
        epsilon=eps,
    )
    assert report.lower == 0 and report.upper == 0
    assert report.upper_provenance == "scenario_bound"
    assert report.member_count == 1

    x = SparseVector((((), Fraction(9, 10)), ((1,), Fraction(1, 10))))
    report = slice_diameter(SliceSpec(x, Fraction(1, 20), JH_INF), scenario="JHINF_53")
    assert report.upper == Fraction(5, 3)
    assert report.lower <= Fraction(5, 3)


def test_diameter_checks_its_scenario_before_the_sweep(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return dual_norm(*args, **kwargs)

    monkeypatch.setattr(slices, "dual_norm", counting)
    spec = SliceSpec(unit_vector((1,)) + unit_vector((2,)), Fraction(3, 2), JH_INF)
    assert len(slice_members(spec)) > 1
    with pytest.raises(ScenarioConstraintError, match="JT_SQRT2 requires alpha and delta"):
        slice_diameter(spec, scenario="JT_SQRT2")
    assert calls == []
    # the pair cap is checked first and still wins
    monkeypatch.setattr(slices, "MAX_PAIRS", 0)
    with pytest.raises(EnumerationCapError):
        slice_diameter(spec, scenario="JT_SQRT2")
    assert calls == []


def test_diameter_lower_monotone_in_alpha():
    x = unit_vector((1,)) + unit_vector((2,))
    lowers = []
    for alpha in (Fraction(3, 2), Fraction(1, 2), Fraction(1, 4)):
        report = slice_diameter(SliceSpec(x, alpha, JH_INF))
        assert report.lower <= Fraction(2)
        lowers.append(report.lower)
    assert lowers[0] >= lowers[1] >= lowers[2]


def test_diameter_witness_pair_reproduces_lower():
    x = unit_vector((1,)) + unit_vector((2,))
    alpha = Fraction(3, 2)
    report = slice_diameter(SliceSpec(x, alpha, JH_INF))
    assert report.lower_witness_pair is not None
    g, h = report.lower_witness_pair
    members = {m.terms for m in slice_members(SliceSpec(x, alpha, JH_INF))}
    assert g.terms in members and h.terms in members
    cert = dual_norm(g - h, JH_INF)
    assert cert.lower == report.lower  # deterministic recomputation
