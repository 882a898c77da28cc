"""The names `bench/` reaches into stay in place (ROADMAP, "Bench contract").

The benchmark is kept fixed across changes and wraps or calls these names
from outside; one that goes missing is reported there as an `absent` metric,
not as a failure.  This test makes the loss fail here instead.  It does not
import `bench/`.
"""

import importlib
from fractions import Fraction

import pytest

from jamestree import lp, trees, verify
from jamestree.config import DEFAULT_CONFIG
from jamestree.spaces import JH, JT_INF, SparseVector

CONTRACT = (
    "norms._aligned_norm",
    "norms._jt_value_sq",
    "norms._jt_candidates",
    "norms._jt_witness",
    "norms.norm",
    "norms.evaluate_family",
    "lp.simplex_max",
    "dualnorm._variables",
    "dualnorm.dual_norm",
    "verify._canonical_pair_key",
    "verify.check_norm_oracle",
    "parallel.parallel_map",
    "sampling.random_node",
    "sampling.nonzero_fraction",
    "sampling.random_signed_family",
    "schemas.norm_result_to_json",
    "schemas.dual_cert_to_json",
    "reference.naive_norm",
    "slices.slice_members",
    "slices.slice_diameter",
    "certificates.extend_within_ball",
    "certificates.sd2p_witnesses",
    "certificates.m_ccw_witness",
    "certificates.octahedrality_deficit",
    "certificates.l1_basis_check",
    "functionals.DualFunctional",
    "functionals.segment_functional",
    "functionals.evaluate",
    "cli.main",
)


@pytest.mark.parametrize("name", CONTRACT)
def test_contract_name_is_callable(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"jamestree.{module}"), attr, None)), name


def test_wrapped_attributes_keep_their_shape():
    # the closure is wrapped as a method and counted by its `nodes`
    assert callable(trees.Closure.__dict__["__init__"])
    assert len(trees.Closure([(0, 1)]).nodes) == 3
    assert DEFAULT_CONFIG.workers == 1
    # each criterion is wrapped through the module global of its own name
    assert verify.CHECKS
    for check in verify.CHECKS.values():
        assert getattr(verify, check.__name__) is check


def test_simplex_max_takes_c_and_rows():
    value, x = lp.simplex_max([Fraction(1), Fraction(1)], [([Fraction(1), Fraction(1)], Fraction(1, 2))])
    assert value == Fraction(1, 2)
    assert sum(x) == Fraction(1, 2)


@pytest.mark.parametrize(
    "space, internals",
    [(JH, ("_aligned_norm",)), (JT_INF, ("_jt_value_sq", "_jt_candidates", "_jt_witness"))],
    ids=["JH", "JT_INF"],
)
def test_norm_calls_its_internals_as_module_globals(monkeypatch, space, internals):
    # the bench wraps these on `norms`; one bound locally would trace no spans
    from jamestree import norms

    calls = dict.fromkeys(internals, 0)
    for attr in internals:

        def spy(*args, attr=attr, original=getattr(norms, attr)):
            calls[attr] += 1
            return original(*args)

        monkeypatch.setattr(norms, attr, spy)
    x = SparseVector((((0,), Fraction(1)),))
    assert norms.norm(x, space).eq(Fraction(1))
    # norm calls each exactly once: witness probes update the DP tables
    # along one root path and never rerun the whole DP
    assert all(n == 1 for n in calls.values()), calls
