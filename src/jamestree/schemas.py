"""Bit-exact JSON wire formats.

Rationals travel as canonical strings "p/q" (or "p" for integers) with q > 0
and gcd(p, q) = 1; nodes as arrays of naturals; irrational report values as
tagged surd triples a + b*sqrt(2) + c*sqrt(delta).  Floats appear only in the
optional "float_value" convenience fields, which are null when the value
lies beyond the float range.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any

from .certificates import CcwCertificate, OctahedralityReport, Sd2pCertificate
from .dualnorm import DualNormCertificate
from .errors import SchemaError, wire_text
from .functionals import GENERAL, DualFunctional
from .norms import NormResult
from .slices import DiameterReport
from .spaces import SparseVector, SpaceKind, SpaceSpec
from .surds import Surd, float_or_none
from .trees import AdmissibleFamily, Segment

CERT_VERSION = 1

#: Largest |e| accepted in a decimal exponent such as "1e-400": `Fraction`
#: builds 10**e in full, so an unbounded exponent means unbounded work.
MAX_EXPONENT = 100_000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def fraction_to_str(value: Fraction) -> str:
    return str(Fraction(value))


def parse_fraction(raw: Any, what: str = "value") -> Fraction:
    if not isinstance(raw, str):
        raise SchemaError(f"{what} must be a rational string, got {wire_text(raw)}")
    exponent = _EXPONENT.search(raw)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
            raise SchemaError(
                f"bad rational {wire_text(raw)} for {what}: exponent beyond {MAX_EXPONENT}"
            )
    try:
        value = Fraction(raw)
    except ValueError:
        raise SchemaError(f"bad rational {wire_text(raw)} for {what}") from None
    except ZeroDivisionError:
        raise SchemaError(f"bad rational {wire_text(raw)} for {what}: zero denominator") from None
    return value


def parse_node(raw: Any, what: str = "node") -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(type(i) is int and i >= 0 for i in raw):
        raise SchemaError(f"{what} must be an array of naturals, got {wire_text(raw)}")
    return tuple(raw)


def parse_space(raw: Any) -> SpaceSpec:
    try:
        kind = SpaceKind(raw)
    except ValueError:
        raise SchemaError(f"unknown space {wire_text(raw)}") from None
    return SpaceSpec(kind)


def vector_to_json(x: SparseVector, space: SpaceSpec | None = None) -> dict:
    out: dict[str, Any] = {}
    if space is not None:
        out["space"] = space.kind.value
    out["entries"] = [
        {"node": list(node), "value": fraction_to_str(value)} for node, value in x.entries
    ]
    return out


def vector_from_json(doc: Any, space: SpaceSpec | None = None) -> tuple[SparseVector, SpaceSpec | None]:
    if not isinstance(doc, dict):
        raise SchemaError("vector document must be an object")
    if "space" in doc:
        space = parse_space(doc["space"])
    entries_raw = doc.get("entries")
    if not isinstance(entries_raw, list):
        raise SchemaError("vector document needs an 'entries' array")
    entries = []
    for item in entries_raw:
        if not isinstance(item, dict):
            raise SchemaError("each entry must be an object")
        entries.append((parse_node(item.get("node")), parse_fraction(item.get("value"))))
    try:
        vec = SparseVector(tuple(entries))
        if space is not None:
            vec.validate_for(space)
    except Exception as exc:
        raise SchemaError(str(exc)) from None
    return vec, space


def segment_to_json(seg: Segment) -> dict:
    return {"top": list(seg.top), "bottom": list(seg.bottom)}


def family_to_json(family: AdmissibleFamily) -> list[dict]:
    return [segment_to_json(s) for s in family.segments]


def functional_to_json(g: DualFunctional) -> dict:
    return {
        "class": g.class_tag,
        "terms": [
            {"coeff": fraction_to_str(c), "top": list(s.top), "bottom": list(s.bottom)}
            for c, s in g.terms
        ],
    }


def functional_from_json(doc: Any, space: SpaceSpec | None = None) -> tuple[DualFunctional, SpaceSpec | None]:
    if not isinstance(doc, dict):
        raise SchemaError("functional document must be an object")
    if "space" in doc:
        space = parse_space(doc["space"])
    tag = doc.get("class", GENERAL)
    terms_raw = doc.get("terms")
    if not isinstance(terms_raw, list):
        raise SchemaError("functional document needs a 'terms' array")
    terms = []
    for item in terms_raw:
        if not isinstance(item, dict):
            raise SchemaError("each term must be an object")
        try:
            seg = Segment(parse_node(item.get("top"), "top"), parse_node(item.get("bottom"), "bottom"))
        except Exception as exc:
            raise SchemaError(str(exc)) from None
        terms.append((parse_fraction(item.get("coeff"), "coeff"), seg))
    try:
        g = DualFunctional(tuple(terms), tag)
    except Exception as exc:
        raise SchemaError(str(exc)) from None
    return g, space


def value_to_json(value) -> Any:
    """Rational -> canonical string; Surd -> tagged triple."""
    if isinstance(value, Surd):
        return {
            "kind": "surd",
            "a": fraction_to_str(value.a),
            "b": fraction_to_str(value.b),
            "c": fraction_to_str(value.c),
            "delta": fraction_to_str(value.delta),
            "float_value": value.float_value,
        }
    return fraction_to_str(value)


def norm_result_to_json(res: NormResult) -> dict:
    out: dict[str, Any] = {}
    if res.value is not None:
        out["value"] = fraction_to_str(res.value)
    else:
        out["value_sq"] = fraction_to_str(res.value_sq)
    out["witness"] = family_to_json(res.witness)
    out["float_value"] = res.float_value
    return out


def dual_cert_to_json(cert: DualNormCertificate) -> dict:
    return {
        "lower": fraction_to_str(cert.lower),
        "upper": fraction_to_str(cert.upper),
        "exact": cert.exact,
        "tol": fraction_to_str(cert.tol),
        "iterations": cert.iterations,
        "witness_vector": vector_to_json(cert.witness_vector),
        "cuts": [[segment_to_json(s) for s in cut.segments] for cut in cert.cuts],
        "float_value": float_or_none(cert.upper),
    }


def diameter_report_to_json(report: DiameterReport) -> dict:
    out: dict[str, Any] = {
        "scenario": report.scenario,
        "space": report.space.value,
        "alpha": fraction_to_str(report.alpha),
        "member_count": report.member_count,
        "lower": fraction_to_str(report.lower),
        "upper": value_to_json(report.upper),
        "upper_provenance": report.upper_provenance,
    }
    if report.lower_witness_pair is not None:
        out["witness_pair"] = [functional_to_json(g) for g in report.lower_witness_pair]
    else:
        out["witness_pair"] = []
    return out


def sd2p_cert_to_json(cert: Sd2pCertificate) -> dict:
    return {
        "cert_v": CERT_VERSION,
        "kind": "sd2p",
        "weights": [fraction_to_str(w) for w in cert.weights],
        "alphas": [fraction_to_str(a) for a in cert.alphas],
        "functionals": [functional_to_json(g) for g in cert.functionals],
        "interior_points": [vector_to_json(v) for v in cert.interior_points],
        "y_vectors": [vector_to_json(v) for v in cert.y_vectors],
        "z_vectors": [vector_to_json(v) for v in cert.z_vectors],
        "separating": functional_to_json(cert.separating),
        "fresh_level": cert.fresh_level,
        "m": cert.m,
        "distance": fraction_to_str(cert.distance),
    }


def ccw_cert_to_json(cert: CcwCertificate) -> dict:
    return {
        "cert_v": CERT_VERSION,
        "kind": "ccw",
        "weights": [fraction_to_str(w) for w in cert.weights],
        "epsilons": [fraction_to_str(e) for e in cert.epsilons],
        "slice_vectors": [vector_to_json(v) for v in cert.slice_vectors],
        "members_plus": [functional_to_json(g) for g in cert.members_plus],
        "members_minus": [functional_to_json(g) for g in cert.members_minus],
        "pair": [functional_to_json(cert.plus), functional_to_json(cert.minus)],
        "witness_node": list(cert.witness_node),
        "distance": fraction_to_str(cert.distance),
    }


def octahedrality_report_to_json(report: OctahedralityReport) -> dict:
    out: dict[str, Any] = {
        "cert_v": CERT_VERSION,
        "kind": "octahedrality",
        "space": report.space.value,
        "basis": [vector_to_json(v) for v in report.basis],
        "candidate": vector_to_json(report.candidate),
        "mesh": [
            {"lambda": fraction_to_str(l), "coeffs": [fraction_to_str(c) for c in cs]}
            for l, cs in report.mesh
        ],
        "argmin": {
            "lambda": fraction_to_str(report.argmin[0]),
            "coeffs": [fraction_to_str(c) for c in report.argmin[1]],
        },
        "float_value": report.float_value,
    }
    if report.deficit is not None:
        out["deficit"] = fraction_to_str(report.deficit)
    else:
        num_sq, lam, den_sq = report.deficit_parts
        out["deficit_parts"] = {
            "numerator_sq": fraction_to_str(num_sq),
            "scalar_abs": fraction_to_str(lam),
            "denominator_sq": fraction_to_str(den_sq),
        }
    return out
