from fractions import Fraction

import pytest

from jamestree import schemas
from jamestree.errors import InvalidVectorError, SchemaError
from jamestree.norms import norm
from jamestree.spaces import JH, JT_INF, SparseVector
from jamestree.surds import Surd


def test_rational_strings_are_canonical():
    assert schemas.fraction_to_str(Fraction(2, 4)) == "1/2"
    assert schemas.fraction_to_str(Fraction(3)) == "3"
    assert schemas.parse_fraction("-7/3") == Fraction(-7, 3)
    with pytest.raises(SchemaError):
        schemas.parse_fraction(0.5)
    with pytest.raises(SchemaError):
        schemas.parse_fraction("1/0")
    with pytest.raises(SchemaError):
        schemas.parse_fraction("nope")


def test_vector_round_trip():
    doc = {"space": "JH", "entries": [{"node": [0, 1], "value": "3/4"}]}
    vec, space = schemas.vector_from_json(doc)
    assert space == JH
    assert vec.entries == (((0, 1), Fraction(3, 4)),)
    assert schemas.vector_to_json(vec, space) == doc


def test_vector_validation_errors():
    with pytest.raises(SchemaError):
        schemas.vector_from_json({"space": "JH", "entries": [{"node": [2], "value": "1"}]})
    with pytest.raises(SchemaError):
        schemas.vector_from_json({"space": "XX", "entries": []})
    with pytest.raises(SchemaError):
        schemas.vector_from_json({"space": "JH", "entries": [{"node": [-1], "value": "1"}]})
    with pytest.raises(SchemaError):
        schemas.vector_from_json({"space": "JH"})
    with pytest.raises(SchemaError):  # bool is an int subclass, not a child index
        schemas.vector_from_json({"space": "JT_INF", "entries": [{"node": [True], "value": "1"}]})
    with pytest.raises(SchemaError):
        schemas.functional_from_json(
            {"space": "JT_INF", "class": "general", "terms": [{"coeff": "1", "top": [True], "bottom": [1]}]}
        )
    with pytest.raises(InvalidVectorError):
        SparseVector((((False,), Fraction(1)),))


def test_functional_round_trip():
    doc = {
        "class": "signed_family",
        "terms": [{"coeff": "-1", "top": [1], "bottom": [1, 0]}],
    }
    g, _ = schemas.functional_from_json(doc)
    assert g.terms[0][0] == -1
    assert schemas.functional_to_json(g) == doc


def test_norm_result_json_shape():
    res = norm(SparseVector((((), Fraction(1)),)), JH)
    doc = schemas.norm_result_to_json(res)
    assert doc["value"] == "1"
    assert doc["witness"] == [{"top": [], "bottom": []}]
    res_jt = norm(SparseVector((((), Fraction(1)),)), JT_INF)
    doc_jt = schemas.norm_result_to_json(res_jt)
    assert doc_jt["value_sq"] == "1"


def test_surd_tagging():
    surd = Surd(Fraction(1, 20), Fraction(1), Fraction(2), Fraction(1, 25))
    doc = schemas.value_to_json(surd)
    assert doc["kind"] == "surd"
    assert doc["a"] == "1/20" and doc["delta"] == "1/25"
    assert schemas.value_to_json(Fraction(5, 3)) == "5/3"
