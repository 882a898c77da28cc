"""Command-line entry point.

Subcommands: norm, dual-norm, slice, diameter, certify {sd2p,ccw,octahedral,
extend}, verify.  Inputs are JSON files in the wire formats of `schemas`;
reports go to stdout as JSON (or flat TSV with --format tsv).  Output is
byte-identical for identical (input, config, seed); anything run-dependent
(timings) goes to stderr.  Exit codes: 0 success, 1 failed verification,
2 parse/validation errors (with a JSON error object on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import schemas
from .certificates import (
    extend_within_ball,
    m_ccw_witness,
    octahedrality_deficit,
    sd2p_witnesses,
)
from .config import DEFAULT_CONFIG, RunConfig
from .dualnorm import dual_norm
from .errors import JamesTreeError, SchemaError, wire_text
from .norms import literal_norm_sq_jt, norm
from .slices import SliceSpec, slice_diameter, slice_members
from .spaces import SpaceKind
from .surds import float_or_none
from .verify import SUITES, run_suite


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise SchemaError(f"cannot read {path}: {exc}") from None


def _config_from_args(args) -> RunConfig:
    """DEFAULT_CONFIG with the config-file fields, then the flags, applied in
    one step, so every out-of-range value is reported as a schema error."""
    fields = {}
    if getattr(args, "config", None):
        doc = _load_json(args.config)
        if not isinstance(doc, dict):
            raise SchemaError("config file must hold a JSON object")
        for key in ("family_cap", "candidate_cap", "iteration_cap", "seed", "workers"):
            if key in doc:
                if type(doc[key]) is not int:  # bool is an int subclass
                    raise SchemaError(f"config {key} must be an integer")
                fields[key] = doc[key]
        for key in ("tol", "grid_resolution"):
            if key in doc:
                fields[key] = schemas.parse_fraction(doc[key], key)
        if "output_format" in doc:
            fields["output_format"] = doc["output_format"]
    if getattr(args, "seed", None) is not None:
        fields["seed"] = args.seed
    if getattr(args, "parallel", None) is not None:
        fields["workers"] = args.parallel
    if getattr(args, "tol", None) is not None:
        fields["tol"] = schemas.parse_fraction(args.tol, "tol")
    if getattr(args, "format", None) is not None:
        fields["output_format"] = args.format
    try:
        return DEFAULT_CONFIG.with_(**fields)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _flatten(prefix: str, obj, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, (dict, list)) and not obj:
        rows.append((prefix, json.dumps(obj)))
    elif isinstance(obj, dict):
        for key in obj:
            _flatten(f"{prefix}.{key}" if prefix else key, obj[key], rows)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, json.dumps(obj)))


def _emit(report: dict, config: RunConfig) -> None:
    if config.output_format == "tsv":
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        sys.stdout.write("".join(f"{k}\t{v}\n" for k, v in rows))
    else:
        sys.stdout.write(json.dumps(report) + "\n")


def _load_input(parse, path: str, space_name: str | None):
    """Parse a vector or functional file; its space comes from the file or --space."""
    obj, space = parse(_load_json(path), schemas.parse_space(space_name) if space_name else None)
    if space is None:
        raise SchemaError("no space given (put 'space' in the JSON or pass --space)")
    return obj, space


def _cmd_norm(args) -> int:
    config = _config_from_args(args)
    vec, space = _load_input(schemas.vector_from_json, args.vector, args.space)
    if args.segments == "literal":
        if space.kind is not SpaceKind.JT_INF:
            raise SchemaError("--segments literal is valid for JT_INF only")
        interval = norm(vec, space, config)
        literal_sq, literal_witness = literal_norm_sq_jt(vec, config)
        report = {
            "space": space.kind.value,
            "interval": schemas.norm_result_to_json(interval),
            "literal": {
                "value_sq": schemas.fraction_to_str(literal_sq),
                "witness_chains": [[list(n) for n in chain] for chain in literal_witness],
                "float_value": float_or_none(literal_sq, root=True),
            },
        }
        _emit(report, config)
        return 0
    res = norm(vec, space, config)
    _emit(schemas.norm_result_to_json(res), config)
    return 0


def _cmd_dual_norm(args) -> int:
    config = _config_from_args(args)
    g, space = _load_input(schemas.functional_from_json, args.functional, args.space)
    cert = dual_norm(g, space, level_cap=args.level_cap, config=config)
    _emit(schemas.dual_cert_to_json(cert), config)
    return 0


def _parse_alpha(raw: str) -> Fraction:
    value = schemas.parse_fraction(raw, "alpha")
    if value <= 0:
        raise SchemaError("alpha must be positive")
    return value


def _slice_spec(args, config: RunConfig) -> SliceSpec:
    vec, space = _load_input(schemas.vector_from_json, args.vector, args.space)
    if args.level_cap is not None and args.level_cap < 0:
        raise SchemaError("level cap must be nonnegative")
    return SliceSpec(vec, _parse_alpha(args.alpha), space, config.grid_resolution, args.level_cap)


def _cmd_slice(args) -> int:
    config = _config_from_args(args)
    spec = _slice_spec(args, config)
    members = slice_members(spec, config)
    report = {
        "space": spec.space.kind.value,
        "alpha": schemas.fraction_to_str(spec.alpha),
        "member_count": len(members),
        "members": [schemas.functional_to_json(g) for g in members],
    }
    _emit(report, config)
    return 0


def _cmd_diameter(args) -> int:
    config = _config_from_args(args)
    spec = _slice_spec(args, config)
    params = {}
    for name in ("epsilon", "delta"):
        raw = getattr(args, name, None)
        if raw is not None:
            params[name] = schemas.parse_fraction(raw, name)
    if args.scenario and args.scenario != "JHINF_53":
        params.setdefault("alpha", spec.alpha)
    report = slice_diameter(spec, scenario=args.scenario, scenario_params=params or None, config=config)
    _emit(schemas.diameter_report_to_json(report), config)
    return 0


def _array(doc: dict, key: str) -> list:
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise SchemaError(f"'{key}' must be an array")
    return items


def _objects(doc: dict, key: str) -> list[dict]:
    items = _array(doc, key)
    if not all(isinstance(item, dict) for item in items):
        raise SchemaError(f"each item of '{key}' must be an object")
    return items


def _cmd_certify(args) -> int:
    config = _config_from_args(args)
    doc = _load_json(args.input)
    if not isinstance(doc, dict):
        raise SchemaError("certificate input must be a JSON object")
    if args.what == "sd2p":
        space = schemas.parse_space(doc.get("space"))
        slices = []
        for item in _objects(doc, "slices"):
            g, _ = schemas.functional_from_json(item.get("functional"), space)
            slices.append((g, _parse_alpha(item.get("alpha"))))
        weights = tuple(schemas.parse_fraction(w, "weight") for w in _array(doc, "weights"))
        cert = sd2p_witnesses(tuple(slices), weights, space, config)
        _emit(schemas.sd2p_cert_to_json(cert), config)
    elif args.what == "ccw":
        slices = []
        for item in _objects(doc, "slices"):
            vec, _ = schemas.vector_from_json(item.get("vector"))
            slices.append((vec, _parse_alpha(item.get("epsilon"))))
        weights = tuple(schemas.parse_fraction(w, "weight") for w in _array(doc, "weights"))
        cert = m_ccw_witness(tuple(slices), weights, config)
        _emit(schemas.ccw_cert_to_json(cert), config)
    elif args.what == "octahedral":
        space = schemas.parse_space(doc.get("space"))
        basis = tuple(schemas.vector_from_json(v, space)[0] for v in _array(doc, "basis"))
        candidate, _ = schemas.vector_from_json(doc.get("candidate"), space)
        mesh = []
        for point in _objects(doc, "mesh"):
            lam = schemas.parse_fraction(point.get("lambda"), "lambda")
            coeffs = tuple(schemas.parse_fraction(c, "coeff") for c in _array(point, "coeffs"))
            mesh.append((lam, coeffs))
        report = octahedrality_deficit(space, basis, candidate, tuple(mesh), config)
        _emit(schemas.octahedrality_report_to_json(report), config)
    elif args.what == "extend":
        space = schemas.parse_space(doc.get("space"))
        vec, _ = schemas.vector_from_json(doc.get("vector"), space)
        n = doc.get("n")
        signs = doc.get("signs")
        if type(n) is not int or not isinstance(signs, list) or any(type(s) is not int for s in signs):
            raise SchemaError("extend input needs integer 'n' and a 'signs' array of integers")
        result = extend_within_ball(vec, n, tuple(signs), space, config)
        res = norm(result, space, config)
        _emit(
            {
                "vector": schemas.vector_to_json(result, space),
                "norm": schemas.norm_result_to_json(res),
            },
            config,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise SchemaError(f"unknown certificate kind {args.what!r}")
    return 0


def _cmd_verify(args) -> int:
    config = _config_from_args(args)
    results = run_suite(args.suite, config)
    for res in results:
        sys.stderr.write(f"[{res.seconds:7.2f}s] {res.ident} {res.name}\n")
    report = {
        "suite": args.suite,
        "passed": all(r.passed for r in results),
        "results": [
            {"id": r.ident, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    if config.output_format == "tsv":
        _emit(report, config)
    else:
        for r in results:
            sys.stdout.write(f"[{'PASS' if r.passed else 'FAIL'}] {r.ident} {r.name}: {r.detail}\n")
        sys.stdout.write(json.dumps(report) + "\n")
    return 0 if report["passed"] else 1


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a schema error (exit 2 with a JSON
    error object) instead of printing usage; subcommand parsers inherit it."""

    def error(self, message: str):
        raise SchemaError(f"{self.prog}: {message}")


def _int_arg(text: str) -> int:
    """Type of the integer flags; a rejected value is quoted as JSON."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {wire_text(text)}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jamestree",
        description="Exact norms, dual norms, slices and diameter certificates "
        "for the tree spaces JT_INF, JH, JH_INF and the hyperplane M_HYP.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file overriding run defaults")
    common.add_argument("--seed", type=_int_arg, help="seed for randomized suites")
    common.add_argument("--parallel", type=_int_arg, help="worker count for enumeration sweeps")
    common.add_argument("--format", choices=("json", "tsv"), help="report format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="exact norm of a vector JSON file", parents=[common])
    p.add_argument("vector")
    p.add_argument("--space", help="space kind when the file carries none")
    p.add_argument("--segments", choices=("interval", "literal"), default="interval")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("dual-norm", help="certified dual norm of a functional JSON file", parents=[common])
    p.add_argument("functional")
    p.add_argument("--space")
    p.add_argument("--level-cap", type=_int_arg, default=None)
    p.add_argument("--tol")
    p.set_defaults(func=_cmd_dual_norm)

    p = sub.add_parser("slice", help="norming-set slice members", parents=[common])
    p.add_argument("vector")
    p.add_argument("--alpha", required=True)
    p.add_argument("--space")
    p.add_argument("--level-cap", type=_int_arg, default=None)
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("diameter", help="slice diameter report", parents=[common])
    p.add_argument("vector")
    p.add_argument("--alpha", required=True)
    p.add_argument("--space")
    p.add_argument("--scenario", choices=("JT_SQRT2", "JHINF_53", "JH_ZERO"))
    p.add_argument("--epsilon")
    p.add_argument("--delta")
    p.add_argument("--level-cap", type=_int_arg, default=None)
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser("certify", help="build and verify a witness certificate", parents=[common])
    p.add_argument("what", choices=("sd2p", "ccw", "octahedral", "extend"))
    p.add_argument("input", help="JSON input describing the construction")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="run the acceptance suite", parents=[common])
    p.add_argument("--suite", choices=sorted(SUITES), default="all")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Rationals on the wire are exact decimal strings of any length; lift
    # CPython's 4300-digit cap on int <-> str conversion so that a long
    # input or a long result is read and printed rather than a traceback.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # --help; usage errors raise SchemaError
            return 0
        return args.func(args)
    except SchemaError as exc:
        sys.stdout.write(json.dumps({"error": "schema", "message": str(exc)}) + "\n")
        return 2
    except JamesTreeError as exc:
        sys.stdout.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
