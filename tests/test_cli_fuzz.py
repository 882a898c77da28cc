"""Wire-format fuzz of the CLI contract on small, almost-valid documents.

Every subcommand must exit 0 with one JSON report, or 2 with one JSON error
object, and let no exception escape.  Half of the documents are valid; the
other half carry one defect: a value replaced by a wrong type, a boolean
node, a bad rational, or a missing key.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamestree.cli import main

RATIONALS = st.sampled_from(
    ["1", "-1", "1/2", "-2/3", "0", "3", "1e400", "-1e400", "1e-400", "1e5000", "-1e-5000", "25e-3", "1.5"]
)
DEFECTS = st.sampled_from(
    [None, True, False, 0, 1, -1, 0.5, "x", "", [], {}, [True], [-1], ["0"], [[0]], "1/0", "1/2/3", "--1", "JHX"]
)
MISSING = object()
STEPS = st.lists(st.sampled_from([0, 1, 0, 1, 2]), max_size=2)  # 2 is no dyadic step

VECTOR = st.dictionaries(STEPS.map(tuple), RATIONALS, max_size=3).map(
    lambda entries: {"entries": [{"node": list(n), "value": v} for n, v in entries.items()]}
)


@st.composite
def term(draw):
    top = draw(STEPS)
    return {"coeff": draw(RATIONALS), "top": top, "bottom": top + draw(STEPS)}


FUNCTIONAL = st.fixed_dictionaries(
    {
        "class": st.sampled_from(["general", "general", "molecule", "signed_family"]),
        "terms": st.lists(term(), min_size=1, max_size=3),
    }
)
SPACE = st.sampled_from(["JH", "JH_INF", "JT_INF", "M_HYP"])
SMALL = st.sampled_from(["1/4", "-1/8", "1/16", "1e-400", "-1e-5000"])
POSITIVE = st.sampled_from(["1/2", "1/10", "1", "3", "1e400", "1e-400", "1e5000", "25e-3"])


@st.composite
def weighted(draw, item, space=None):
    """Slices and one weight per slice, as sd2p and ccw expect."""
    slices = draw(st.lists(item, min_size=1, max_size=2))
    doc = {"slices": slices, "weights": ["1"] if len(slices) == 1 else ["1/3", "2/3"]}
    if space is not None:
        doc["space"] = draw(space)
    return doc


@st.composite
def octahedral(draw):
    basis = draw(st.lists(VECTOR, max_size=2))
    coeffs = st.tuples(*[RATIONALS] * len(basis)).map(list)
    return {
        "space": draw(SPACE),
        "basis": basis,
        "candidate": {"entries": [{"node": draw(STEPS.map(lambda n: [1] + n)), "value": draw(st.sampled_from(["1", "-1"]))}]},
        "mesh": draw(st.lists(st.fixed_dictionaries({"lambda": RATIONALS, "coeffs": coeffs}), min_size=1, max_size=2)),
    }


@st.composite
def extend(draw):
    n = draw(st.integers(2, 4))
    entries = draw(st.dictionaries(STEPS.map(tuple), SMALL, max_size=2))
    return {
        "space": draw(SPACE),
        "vector": {"entries": [{"node": list(k), "value": v} for k, v in entries.items()]},
        "n": n,
        "signs": list(draw(st.tuples(*[st.sampled_from([1, -1])] * n))),
    }


DOCUMENTS = {
    "norm": st.builds(lambda v, s: dict(v, space=s), VECTOR, SPACE),
    "dual-norm": st.builds(lambda g, s: dict(g, space=s), FUNCTIONAL, SPACE),
    "slice": st.builds(lambda v, s: dict(v, space=s), VECTOR, SPACE),
    "sd2p": weighted(
        st.fixed_dictionaries({"functional": FUNCTIONAL, "alpha": POSITIVE}), st.sampled_from(["JH", "JH_INF"])
    ),
    "ccw": weighted(st.fixed_dictionaries({"vector": VECTOR, "epsilon": POSITIVE})),
    "octahedral": octahedral(),
    "extend": extend(),
}


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _replace(doc, path, value):
    if not path:
        return {} if value is MISSING else value
    head, rest = path[0], path[1:]
    if isinstance(doc, dict):
        out = {k: v for k, v in doc.items() if k != head}
        if not rest and value is MISSING:
            return out
        out[head] = _replace(doc[head], rest, value)
        return out
    out = list(doc)
    out[head] = _replace(doc[head], rest, None if value is MISSING else value)
    return out


@st.composite
def almost_valid(draw, kind):
    doc = draw(DOCUMENTS[kind])
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _replace(doc, path, draw(st.one_of(DEFECTS, RATIONALS, st.just(MISSING))))
    return doc


def _flag(name, raw):
    return (name, raw if isinstance(raw, str) else json.dumps(raw))


INVOCATIONS = {
    "norm": st.tuples(
        st.sampled_from([("norm", "@"), ("norm", "@"), ("norm", "@", "--segments", "literal")]), almost_valid("norm")
    ),
    "dual-norm": st.tuples(
        st.one_of(st.just(()), st.one_of(RATIONALS, DEFECTS).map(lambda r: _flag("--tol", r))).map(
            lambda tol: ("dual-norm", "@") + tol
        ),
        almost_valid("dual-norm"),
    ),
    "slice": st.tuples(
        st.one_of(POSITIVE, DEFECTS).map(lambda a: ("slice", "@") + _flag("--alpha", a)), almost_valid("slice")
    ),
    "diameter": st.tuples(
        st.tuples(
            st.one_of(POSITIVE, DEFECTS),
            st.sampled_from(
                [(), ("--scenario", "JH_ZERO", "--epsilon", "1/10"), ("--scenario", "JT_SQRT2", "--delta", "1/25")]
            ),
        ).map(lambda t: ("diameter", "@") + _flag("--alpha", t[0]) + t[1]),
        almost_valid("slice"),
    ),
    "certify": st.sampled_from(["sd2p", "ccw", "octahedral", "extend"]).flatmap(
        lambda what: st.tuples(st.just(("certify", what, "@")), almost_valid(what))
    ),
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", sorted(INVOCATIONS))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_contract_on_almost_valid_documents(command, data):
    argv, doc = data.draw(INVOCATIONS[command])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([path if a == "@" else a for a in argv])
    assert code in (0, 2), (argv, doc)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, (argv, doc)
    report = json.loads(lines[0], parse_constant=_reject_constant)
    assert isinstance(report, dict)
    if code == 2:
        assert set(report) == {"error", "message"}, report
