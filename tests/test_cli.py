import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jamestree
from jamestree.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SEVEN_NODE_UNIT = {
    "space": "JH",
    "entries": [
        {"node": [], "value": "4/5"},
        {"node": [0], "value": "1/5"},
        {"node": [1], "value": "-1/5"},
        {"node": [0, 0], "value": "-1/5"},
        {"node": [0, 1], "value": "-1/5"},
        {"node": [1, 0], "value": "-1/5"},
        {"node": [1, 1], "value": "1/5"},
    ],
}


def test_norm_subcommand(tmp_path, capsys):
    path = write(tmp_path, "x.json", SEVEN_NODE_UNIT)
    code, out = run_cli(capsys, "norm", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1"
    assert doc["witness"] == [{"top": [], "bottom": [0]}]


def test_norm_zero_vector(tmp_path, capsys):
    path = write(tmp_path, "zero.json", {"entries": []})
    code, out = run_cli(capsys, "norm", path, "--space", "JH")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "0" and doc["witness"] == []


def test_norm_literal_reports_both(tmp_path, capsys):
    path = write(
        tmp_path,
        "jt.json",
        {"space": "JT_INF", "entries": [{"node": [], "value": "1"}, {"node": [1], "value": "-1"}, {"node": [1, 1], "value": "1"}]},
    )
    code, out = run_cli(capsys, "norm", path, "--segments", "literal")
    doc = json.loads(out)
    assert code == 0
    assert doc["interval"]["value_sq"] == "3"
    assert doc["literal"]["value_sq"] == "5"


def test_norm_literal_rejected_outside_jt(tmp_path, capsys):
    path = write(tmp_path, "x.json", SEVEN_NODE_UNIT)
    code, out = run_cli(capsys, "norm", path, "--segments", "literal")
    assert code == 2
    assert json.loads(out)["error"] == "schema"


def test_dual_norm_subcommand(tmp_path, capsys):
    path = write(
        tmp_path,
        "g.json",
        {
            "space": "JH_INF",
            "class": "general",
            "terms": [
                {"coeff": "1", "top": [1], "bottom": [1]},
                {"coeff": "-1", "top": [2], "bottom": [2, 1]},
            ],
        },
    )
    code, out = run_cli(capsys, "dual-norm", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["lower"] == "1" and doc["upper"] == "1" and doc["exact"]


def test_slice_and_diameter(tmp_path, capsys):
    path = write(tmp_path, "x.json", SEVEN_NODE_UNIT)
    code, out = run_cli(capsys, "slice", path, "--alpha", "1/10")
    doc = json.loads(out)
    assert code == 0
    assert doc["member_count"] == 1
    code, out = run_cli(
        capsys, "diameter", path, "--alpha", "1/10", "--scenario", "JH_ZERO", "--epsilon", "1/5"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["lower"] == "0" and doc["upper"] == "0"


def test_diameter_53_scenario(tmp_path, capsys):
    path = write(
        tmp_path,
        "x.json",
        {"space": "JH_INF", "entries": [{"node": [], "value": "9/10"}, {"node": [1], "value": "1/10"}]},
    )
    code, out = run_cli(capsys, "diameter", path, "--alpha", "1/20", "--scenario", "JHINF_53")
    doc = json.loads(out)
    assert code == 0
    assert doc["upper"] == "5/3"


@pytest.mark.parametrize(
    "doc, argv, lower",
    [
        (  # the JH_ZERO bound 0 is for criterion 2's seven-node vector, not e_(0)
            {"space": "JH", "entries": [{"node": [0], "value": "1"}]},
            ("--alpha", "1/20", "--scenario", "JH_ZERO", "--epsilon", "1/5"),
            "1",
        ),
        (  # the pair f_[(),()] and -f_[(1,2),(1,2)] is 2 apart, above 5/3
            {"space": "JH_INF", "entries": [{"node": [], "value": "1"}, {"node": [1, 2], "value": "-35/36"}]},
            ("--alpha", "1/20", "--scenario", "JHINF_53"),
            "2",
        ),
    ],
)
def test_diameter_never_reports_lower_above_upper(tmp_path, capsys, doc, argv, lower):
    path = write(tmp_path, "x.json", doc)
    code, out = run_cli(capsys, "diameter", path, *argv)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "CertificationError"
    assert err["message"].startswith(f"certified lower bound {lower} exceeds")


def test_schema_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"space": "JH", "entries": [{"node": [5], "value": "1"}]})
    code, out = run_cli(capsys, "norm", path)
    assert code == 2
    assert json.loads(out)["error"] == "schema"
    code, _ = run_cli(capsys, "norm", str(tmp_path / "missing.json"))
    assert code == 2
    # JSON booleans are not child indices, counts or signs
    entries = [{"node": [True], "value": "1"}, {"node": [2], "value": "1"}]
    terms = [{"coeff": "1", "top": [True], "bottom": [1]}]
    ext = {"space": "JH", "vector": {"entries": [{"node": [], "value": "1/2"}]}}
    for argv, doc in [
        (("norm",), {"space": "JT_INF", "entries": entries}),
        (("dual-norm",), {"space": "JT_INF", "class": "general", "terms": terms}),
        (("certify", "extend"), dict(ext, n=2, signs=[True, -1])),
        (("certify", "extend"), dict(ext, n=True, signs=[1])),
    ]:
        code, out = run_cli(capsys, *argv, write(tmp_path, "bool.json", doc))
        assert code == 2, argv
        assert json.loads(out)["error"] == "schema", argv
    # messages quote the rejected input as JSON, the way the user wrote it
    for doc, quoted in [
        ({"space": "JT_INF", "entries": entries}, "got [true]"),
        ({"space": "JH", "entries": [{"node": [0], "value": "1/0"}]}, 'bad rational "1/0"'),
        ({"space": "JHX", "entries": []}, 'unknown space "JHX"'),
        ({"space": "JH", "entries": [{"node": [2], "value": "1"}]}, "node [2] is not"),
        ({"space": "JH", "entries": [{"node": [0], "value": "1"}, {"node": [0], "value": "2"}]}, "duplicate node [0]"),
    ]:
        code, out = run_cli(capsys, "norm", write(tmp_path, "msg.json", doc))
        assert code == 2
        assert quoted in json.loads(out)["message"]
    code, out = run_cli(capsys, "dual-norm", write(tmp_path, "seg.json", {"space": "JH", "terms": [{"coeff": "1", "top": [1], "bottom": [0]}]}))
    assert code == 2
    assert "top [1] is not an ancestor-or-equal of bottom [0]" in json.loads(out)["message"]


def test_long_numbers_and_unreadable_files(tmp_path, capsys):
    """Integers past CPython's 4300-digit str limit are read and printed; a
    file that is not UTF-8 is a schema error."""
    long_node = tmp_path / "node.json"
    long_node.write_text('{"space": "JH_INF", "entries": [{"node": [' + "1" * 5000 + '], "value": "1"}]}')
    code, out = run_cli(capsys, "norm", str(long_node))
    assert code == 0
    assert json.loads(out)["witness"][0]["bottom"] == [int("1" * 5000)]
    jt = write(tmp_path, "jt.json", {"space": "JT_INF", "entries": [{"node": [0], "value": "1e2200"}]})
    code, out = run_cli(capsys, "norm", jt)
    assert code == 0
    assert json.loads(out)["value_sq"] == str(10**4400)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    code, out = run_cli(capsys, "norm", str(binary))
    assert code == 2
    assert json.loads(out)["error"] == "schema"


def test_float_value_null_beyond_float_range(tmp_path, capsys):
    """Values past the float range print float_value null, never a traceback."""
    huge = write(tmp_path, "huge.json", {"space": "JH", "entries": [{"node": [0], "value": "1e400"}]})
    code, out = run_cli(capsys, "norm", huge)
    assert code == 0
    assert json.loads(out)["float_value"] is None
    g = write(tmp_path, "g.json", {"space": "JH", "terms": [{"coeff": "1e400", "top": [], "bottom": [0]}]})
    code, out = run_cli(capsys, "dual-norm", g)
    assert code == 0
    doc = json.loads(out)
    assert doc["upper"] == str(10**400) and doc["float_value"] is None
    # a JT_INF norm that fits a float although its square does not
    jt = write(tmp_path, "jt.json", {"space": "JT_INF", "entries": [{"node": [0], "value": "1e200"}]})
    code, out = run_cli(capsys, "norm", jt)
    assert code == 0
    assert json.loads(out)["float_value"] == 1e200
    # the octahedrality ratio is at most 1 even when its parts leave the float range
    for lam, basis_value in (("1", "1e400"), ("1e-400", "1")):
        doc = {
            "space": "JT_INF",
            "basis": [{"entries": [{"node": [1], "value": basis_value}]}],
            "candidate": {"entries": [{"node": [0], "value": "1"}]},
            "mesh": [{"lambda": lam, "coeffs": ["1e400" if lam == "1" else "0"]}],
        }
        code, out = run_cli(capsys, "certify", "octahedral", write(tmp_path, "oct.json", doc))
        assert code == 0
        assert 0 < json.loads(out)["float_value"] <= 1


def test_certify_extend(tmp_path, capsys):
    path = write(
        tmp_path,
        "ext.json",
        {
            "space": "JH",
            "vector": {"entries": [{"node": [], "value": "1/2"}]},
            "n": 2,
            "signs": [1, 1],
        },
    )
    code, out = run_cli(capsys, "certify", "extend", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["norm"]["value"] == "1"


def test_certify_octahedral(tmp_path, capsys):
    path = write(
        tmp_path,
        "oct.json",
        {
            "space": "JH",
            "basis": [{"entries": [{"node": [], "value": "1"}]}],
            "candidate": {"entries": [{"node": [0], "value": "1"}]},
            "mesh": [
                {"lambda": "1", "coeffs": ["-1"]},
                {"lambda": "1", "coeffs": ["1"]},
            ],
        },
    )
    code, out = run_cli(capsys, "certify", "octahedral", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["deficit"] == "1/2"
    assert doc["cert_v"] == 1


def test_certify_sd2p_and_ccw(tmp_path, capsys):
    sd2p = write(
        tmp_path,
        "sd2p.json",
        {
            "space": "JH",
            "slices": [
                {
                    "functional": {
                        "class": "signed_family",
                        "terms": [{"coeff": "1", "top": [], "bottom": []}],
                    },
                    "alpha": "1/4",
                }
            ],
            "weights": ["1"],
        },
    )
    code, out = run_cli(capsys, "certify", "sd2p", sd2p)
    doc = json.loads(out)
    assert code == 0
    assert doc["distance"] == "2" and doc["cert_v"] == 1 and doc["m"] == 16
    ccw = write(
        tmp_path,
        "ccw.json",
        {
            "slices": [{"vector": {"entries": [{"node": [1], "value": "1"}]}, "epsilon": "1/2"}],
            "weights": ["1"],
        },
    )
    code, out = run_cli(capsys, "certify", "ccw", ccw)
    doc = json.loads(out)
    assert code == 0
    assert doc["distance"] == "2" and len(doc["pair"]) == 2


def test_byte_identical_output(tmp_path, capsys):
    path = write(tmp_path, "x.json", SEVEN_NODE_UNIT)
    _, first = run_cli(capsys, "norm", path)
    _, second = run_cli(capsys, "norm", path)
    assert first == second


def test_tsv_format(tmp_path, capsys):
    path = write(tmp_path, "x.json", SEVEN_NODE_UNIT)
    code, out = run_cli(capsys, "norm", path, "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0] == 'value\t"1"'
    zero = write(tmp_path, "zero.json", {"entries": []})
    code, out = run_cli(capsys, "norm", zero, "--space", "JH", "--format", "tsv")
    assert code == 0
    assert "witness\t[]" in out.splitlines()


def test_verify_duals_suite(capsys):
    code = main(["verify", "--suite", "duals"])
    captured = capsys.readouterr()
    assert code == 0
    assert "[PASS] 4" in captured.out
    report = json.loads(captured.out.strip().splitlines()[-1])
    assert report["passed"] is True


def test_verify_output_independent_of_workers(capsys):
    main(["verify", "--suite", "duals"])
    serial = capsys.readouterr().out
    main(["verify", "--suite", "duals", "--parallel", "2"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_verify_all_stdout_is_pinned(capsys):
    # the full suite's stdout at seed 0; timings go to stderr and are not hashed
    code = main(["verify", "--suite", "all", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d627a99c1ccf12c61f30a766ec6965dece59b075e20bffd7c697b9e816e859ed"
    )


def test_config_file_overrides(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {"tol": "1/1000", "seed": 5, "workers": 1})
    path = write(tmp_path, "x.json", SEVEN_NODE_UNIT)
    code, out = run_cli(capsys, "norm", path, "--config", cfg)
    assert code == 0
    bad = write(tmp_path, "bad.json", {"tol": "-1"})
    code, out = run_cli(capsys, "norm", path, "--config", bad)
    assert code == 2
    booleans = write(tmp_path, "bool.json", {"workers": True, "seed": False})
    code, out = run_cli(capsys, "norm", path, "--config", booleans)
    assert code == 2
    assert json.loads(out)["error"] == "schema"


def test_candidate_cap_from_config_exits_2(tmp_path, capsys):
    path = write(
        tmp_path,
        "jt.json",
        {
            "space": "JT_INF",
            "entries": [
                {"node": [], "value": "1"},
                {"node": [0], "value": "1"},
                {"node": [0, 1], "value": "-1"},
                {"node": [1], "value": "2"},
            ],
        },
    )
    code, _ = run_cli(capsys, "norm", path, "--config", write(tmp_path, "ok.json", {"candidate_cap": 7}))
    assert code == 0
    code = main(["norm", path, "--config", write(tmp_path, "cap.json", {"candidate_cap": 6})])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == "EnumerationCapError"
    assert "Traceback" not in captured.err


def test_out_of_range_flags_exit_2(tmp_path, capsys):
    x = write(tmp_path, "x.json", SEVEN_NODE_UNIT)
    g = write(
        tmp_path,
        "g.json",
        {"space": "JH_INF", "class": "general", "terms": [{"coeff": "1", "top": [1], "bottom": [1]}]},
    )
    for argv in (
        ("norm", x, "--parallel", "0"),
        ("dual-norm", g, "--tol", "0"),
        ("slice", x, "--space", "JH", "--alpha", "1/10", "--level-cap", "-1"),
        ("diameter", x, "--space", "JH", "--alpha", "1/10", "--level-cap", "-1"),
        ("slice", x, "--space", "JH", "--alpha", "-1"),  # argparse reads -1 as a flag
        ("dual-norm", g, "--level-cap", "q"),
        ("norm",),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == "schema"
    # a rejected integer flag is quoted as JSON, not as a Python repr
    for argv in (
        ("dual-norm", g, "--level-cap", "q"),
        ("slice", x, "--alpha", "1/10", "--level-cap", "q"),
        ("norm", x, "--seed", "q"),
        ("norm", x, "--parallel", "q"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        message = json.loads(out)["message"]
        assert message.endswith('invalid int value: "q"'), message
    # so is a rejected choice, and the choices it names
    for argv, expected in (
        (("verify", "--format", "xml"), 'invalid choice: "xml" (choose from "json", "tsv")'),
        (("verify", "--suite", 'x"y'), 'invalid choice: "x\\"y" (choose from "all", '),
        (("norm", x, "--segments", "x"), 'invalid choice: "x" (choose from "interval", "literal")'),
        (("certify", "x", x), 'invalid choice: "x" (choose from "sd2p", "ccw", '),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        error = json.loads(out)
        assert error["error"] == "schema"
        assert expected in error["message"], error["message"]


def test_huge_exponent_is_a_schema_error(tmp_path, capsys):
    x = write(tmp_path, "x.json", {"space": "JH", "entries": [{"node": [], "value": "1e999999999"}]})
    code, out = run_cli(capsys, "norm", x)
    assert code == 2
    assert json.loads(out)["error"] == "schema"
    assert "exponent" in json.loads(out)["message"]


@pytest.mark.parametrize(
    "what, doc",
    [
        ("sd2p", {"space": "JH", "slices": [1, 2], "weights": ["1", "1"]}),
        ("sd2p", {"space": "JH", "slices": 5, "weights": ["1"]}),
        ("sd2p", {"space": "JH", "slices": [], "weights": "1"}),
        ("ccw", {"slices": [1, 2], "weights": ["1", "1"]}),
        ("octahedral", {"space": "JH", "basis": [], "candidate": {"entries": []}, "mesh": [1]}),
        ("octahedral", {"space": "JH", "basis": 3, "candidate": {"entries": []}, "mesh": []}),
    ],
)
def test_certify_malformed_containers(tmp_path, capsys, what, doc):
    path = write(tmp_path, "in.json", doc)
    code, out = run_cli(capsys, "certify", what, path)
    assert code == 2
    assert json.loads(out)["error"] == "schema"


def test_cli_import_leaves_multiprocessing_unloaded():
    # every `jamestree` process pays for what importing the CLI loads;
    # multiprocessing is imported inside `parallel_map` only
    src = str(Path(jamestree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = "import sys, jamestree.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
