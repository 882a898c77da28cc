"""Closed-loop benchmark of jamestree: one client, one process, seeded inputs.

Usage (from the repository root):

    python3 bench/run.py --workload norm-jt|norm-l1|dual-cut|verify|all \
        --seed N --seconds S --trace 0|1

Each operation is issued when the previous one returns.  A workload is a
fixed operation list generated from --seed; the list is run as passes until
--seconds would be exceeded (at least one pass).  Every output is checked
after the timed phase.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0; with --trace 1 the per-layer metrics of traced passes, which
alternate with untraced ones in the same run.
A full result file with run metadata and per-operation properties is
written to .bench_out/.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from time import perf_counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
# p90 needs at least 10 samples beyond it.
MIN_LATENCY_SAMPLES = 100


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --- operations, budget, outcomes --------------------------------------------


@dataclass
class Op:
    ident: str
    args: tuple
    props: dict = field(default_factory=dict)


class OverBudget(BaseException):
    """Raised by SIGALRM when a call exceeds its budget.  A BaseException, so
    no `except Exception` inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise OverBudget()


def timed_call(fn, op: Op, budget_s: float):
    """(status, latency_s, value); an over-budget call counts as exactly the budget."""
    started = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            value = fn(*op.args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        return "over", budget_s, None
    except Exception as exc:  # an engine error is a failed operation, not a crash
        return "error", perf_counter() - started, f"{type(exc).__name__}: {exc}"
    return "ok", perf_counter() - started, value


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# --- input generation (every input from jamestree.sampling and --seed) -------


def exact_support_vector(rng: random.Random, space, size: int, max_closure: int | None = None):
    """Vector with exactly `size` support nodes (max_level 5, branching 3),
    redrawn until its ancestor closure has at most `max_closure` nodes."""
    from jamestree.sampling import nonzero_fraction, random_node
    from jamestree.spaces import SparseVector

    while True:
        entries: dict = {}
        while len(entries) < size:
            node = random_node(rng, space, 5, 3)
            if node not in entries:
                entries[node] = nonzero_fraction(rng)
        if max_closure is None or _closure_size(entries) <= max_closure:
            return SparseVector(tuple(entries.items()))


def _closure_size(nodes) -> int:
    return len({node[:k] for node in nodes for k in range(len(node) + 1)})


def _vector_props(x) -> dict:
    return {"support": len(x.support), "closure_nodes": _closure_size(x.support), "max_level": x.max_level}


def _functional_props(g, space) -> dict:
    from jamestree.dualnorm import _variables

    return {"segments": len(g.terms), "depth": g.depth(), "lp_variables": len(_variables(g, space, g.depth()))}


# --- workloads ------------------------------------------------------------------


class NormWorkload:
    """Shared norm call, output encoding and output checks."""

    budget_s = 2.0

    def call(self, x, space):
        from jamestree.norms import norm

        return norm(x, space)

    def encode(self, op: Op, result):
        from jamestree.schemas import norm_result_to_json

        return norm_result_to_json(result)

    def check(self, op: Op, result) -> list[str]:
        from jamestree.norms import evaluate_family
        from jamestree.reference import naive_norm

        x, space = op.args
        value = result.value if result.value is not None else result.value_sq
        problems = []
        if evaluate_family(result.witness, x) != value:
            problems.append("witness does not attain the norm")
        if len(x.support) <= 8 and naive_norm(x, space)[0] != value:
            problems.append("norm differs from reference.naive_norm")
        return problems


class NormJT(NormWorkload):
    """JT_INF norms in two tiers kept far from the budget on both sides.

    Compact 6-node vectors (ancestor closure <= 13 nodes) finish in at most
    ~0.12 s on the seed code; every 14-, 18- and 24-node vector tried took
    over 5 s.  8- and 10-node vectors, and 6-node ones with wider closures,
    spread continuously up to and past any budget (and their naive-oracle
    check costs up to ~1.5 s each), so they are left out: a call near the
    budget would make over_budget_share and the digest flip between runs.
    """

    name = "norm-jt"
    budget_s = 1.0
    SMALL_CLOSURE = 13
    SIZES = (6,) * 60 + (14, 18, 24)

    def generate(self, seed: int) -> list[Op]:
        from jamestree.spaces import JT_INF

        rng = random.Random(f"{self.name}/{seed}")
        sizes = list(self.SIZES)
        rng.shuffle(sizes)
        ops = []
        for i, size in enumerate(sizes):
            x = exact_support_vector(rng, JT_INF, size, self.SMALL_CLOSURE if size == 6 else None)
            ops.append(Op(f"jt-{i:03d}-n{size}", (x, JT_INF), _vector_props(x)))
        return ops


class NormL1(NormWorkload):
    """JH, JH_INF and M_HYP norms at 6 to 48 support nodes."""

    name = "norm-l1"
    SIZES = (6, 8, 12, 16, 24, 32, 48)
    PER_SIZE = 30

    def generate(self, seed: int) -> list[Op]:
        from jamestree.spaces import JH, JH_INF, M_HYP

        rng = random.Random(f"{self.name}/{seed}")
        ops = []
        for space in (JH, JH_INF, M_HYP):
            for size in self.SIZES:
                for rep in range(self.PER_SIZE):
                    x = exact_support_vector(rng, space, size)
                    ident = f"{space.kind.value}-n{size}-{rep}"
                    ops.append(Op(ident, (x, space), _vector_props(x)))
        rng.shuffle(ops)
        return ops


CRITERION4_CLASSES = 35


def _criterion4_classes():
    """Representatives of the relabeling classes of the criterion-4 sweep in
    `verify.check_53_bound`: disjoint segment pairs at levels <= 4 with child
    indices <= 2, keyed by `verify._canonical_pair_key`."""
    from jamestree.trees import Segment
    from jamestree.verify import _canonical_pair_key

    classes = {}
    for p in range(1, 5):
        tops = list(product(range(3), repeat=p))
        for q in range(p, 5):
            for r in range(q, 5):
                for top_r, top_s in product(tops, tops):
                    if top_r == top_s or (q == r and top_r > top_s):
                        continue
                    for eq in product(range(3), repeat=q - p):
                        for er in product(range(3), repeat=r - p):
                            key = _canonical_pair_key(Segment(top_r, top_r + eq), Segment(top_s, top_s + er))
                            classes.setdefault(key, (Segment(key[0], key[1]), Segment(key[2], key[3])))
    if len(classes) != CRITERION4_CLASSES:
        raise RuntimeError(f"criterion-4 sweep gives {len(classes)} relabeling classes, not {CRITERION4_CLASSES}")
    return [classes[k] for k in sorted(classes)]


class DualCut:
    """Cutting-plane dual norms: JT_INF molecules, L1 general functionals and
    the criterion-4 relabeling classes.

    The molecules are the nine shapes of test_norming_classes_stay_in_dual_ball,
    each once, so that the seed only orders them.  The L1 functionals have
    heavy-tailed costs that swing the pass time by seed: JH's LP takes every
    dyadic node up to the cap as a variable, and at level 3 (15 variables)
    its calls spread up to ~2.3 s, so JH functionals stop at level 2; level-3
    JH_INF and M_HYP calls reach ~1 s, so there are only 5 of each.
    """

    name = "dual-cut"
    budget_s = 10.0
    GENERALS = {"JH": (2, 10), "JH_INF": (3, 5), "M_HYP": (3, 5)}  # space: (max level, count)
    MOLECULE_TOL = Fraction(1, 10**6)
    C4_TOL = Fraction(1, 10**9)
    C4_LIMIT = Fraction(5, 3) + Fraction(1, 10**9)

    def generate(self, seed: int) -> list[Op]:
        from jamestree.functionals import GENERAL, MOLECULE, DualFunctional, segment_functional
        from jamestree.sampling import random_signed_family
        from jamestree.spaces import JH, JH_INF, JT_INF, M_HYP
        from jamestree.trees import Segment

        rng = random.Random(f"{self.name}/{seed}")
        ops = []
        for a, b in product(range(3), repeat=2):
            segs = (Segment((1,), (1, a)), Segment((2,), (2, b)))
            g = DualFunctional(((Fraction(3, 5), segs[0]), (Fraction(4, 5), segs[1])), MOLECULE)
            ops.append(Op(f"molecule-{a}{b}", (g, JT_INF, self.MOLECULE_TOL), _functional_props(g, JT_INF)))
        for space in (JH, JH_INF, M_HYP):
            levels, count = self.GENERALS[space.kind.value]
            for i in range(count):
                while True:
                    terms = random_signed_family(rng, space, levels).terms + random_signed_family(rng, space, levels).terms
                    g = DualFunctional(terms, GENERAL)
                    if len(terms) in (3, 4) and g.coefficient_map():
                        break
                ops.append(Op(f"general-{space.kind.value}-{i:02d}", (g, space, None), _functional_props(g, space)))
        for i, (seg_r, seg_s) in enumerate(_criterion4_classes()):
            g = segment_functional(seg_r.top, seg_r.bottom) - segment_functional(seg_s.top, seg_s.bottom)
            props = dict(_functional_props(g, JH_INF), aligned=seg_r.q == seg_s.q)
            ops.append(Op(f"c4-class-{i:02d}", (g, JH_INF, self.C4_TOL), props))
        rng.shuffle(ops)
        return ops

    def call(self, g, space, tol):
        from jamestree.dualnorm import dual_norm

        return dual_norm(g, space, tol=tol)

    def encode(self, op: Op, cert):
        from jamestree.schemas import dual_cert_to_json

        return dual_cert_to_json(cert)

    def check(self, op: Op, cert) -> list[str]:
        from jamestree.functionals import evaluate
        from jamestree.norms import norm

        g, space, _tol = op.args
        problems = []
        if not cert.lower <= cert.upper:
            problems.append("lower > upper")
        if not norm(cert.witness_vector, space).le(Fraction(1)):
            problems.append("witness vector outside the unit ball")
        if evaluate(g, cert.witness_vector) != cert.lower:
            problems.append("witness does not evaluate to the lower bound")
        if op.ident.startswith("molecule") and not cert.upper <= 1 + self.MOLECULE_TOL:
            problems.append("molecule dual norm above 1 + tol")
        if op.ident.startswith("general") and not cert.exact:
            problems.append("L1 dual norm not exact")
        if op.ident.startswith("c4-class"):
            if cert.upper > self.C4_LIMIT:
                problems.append("criterion-4 pair above 5/3 + 1e-9")
            if op.props["aligned"] and not cert.lower == cert.upper == 1:
                problems.append("aligned criterion-4 pair not exactly 1")
        return problems


IN_PROCESS = {w.name: w for w in (NormJT(), NormL1(), DualCut())}
VERIFY = "verify"
VERIFY_TIMEOUT_S = 80
# `jamestree verify` runs at the CLI's default seed for every benchmark seed:
# its cost is bimodal in its own seed (criterion 8 took 9.5-22.3 s over seeds
# 0-10), so a seed-derived run would measure which mode the seed hit.
VERIFY_SEED = 0


# --- running passes ----------------------------------------------------------------


@dataclass
class PassResult:
    walls: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    first: list = field(default_factory=list)  # (status, value) per op of the first pass
    over: int = 0
    errors: int = 0
    completed: int = 0
    attempted: int = 0
    mismatches: set = field(default_factory=set)


def run_pass(runner, ops: list[Op], res: PassResult, tracer=None) -> None:
    """One closed-loop pass: each op is issued when the previous one returns."""
    outcomes = []
    started = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.ident
        outcomes.append(runner(op))
    res.walls.append(perf_counter() - started)
    for status, latency, _ in outcomes:
        res.attempted += 1
        res.latencies.append(latency)
        res.over += status == "over"
        res.errors += status == "error"
        res.completed += status == "ok"
    if not res.first:
        res.first = [(status, value) for status, _, value in outcomes]
    else:
        for op, first, (status, _, value) in zip(ops, res.first, outcomes):
            if first != (status, value):
                res.mismatches.add(op.ident)


def run_passes(runner, ops: list[Op], seconds: float, min_ops: int, traced_runner=None, tracer=None):
    """Passes until `seconds` would be exceeded, and until at least `min_ops`
    operations ran, at least one.  With a traced runner, untraced and traced
    passes alternate, so that both see the same machine; the in-process
    tracer is installed only around traced passes."""
    plain, traced = PassResult(), PassResult()
    cycles = []
    started = perf_counter()
    while True:
        cycle_start = perf_counter()
        run_pass(runner, ops, plain)
        if traced_runner is not None:
            if tracer is not None:
                tracing.install(tracer)
            try:
                run_pass(traced_runner, ops, traced, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        cycles.append(perf_counter() - cycle_start)
        if plain.attempted >= min_ops and perf_counter() - started + statistics.median(cycles) > seconds:
            return plain, traced


# --- the verify workload: the CLI in a subprocess -------------------------------


def _verify_report(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _subprocess(cmd: list[str]):
    started = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=VERIFY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, VERIFY_TIMEOUT_S
    return proc, perf_counter() - started


def run_verify_cli(op: Op):
    """`python -m jamestree.cli verify --suite all --seed N`, which must exit 0."""
    proc, latency = _subprocess([sys.executable, "-m", "jamestree.cli", "verify", "--suite", "all", "--seed", str(op.args[0])])
    if proc is None:
        return "over", latency, None
    if proc.returncode != 0:
        return "error", latency, f"exit code {proc.returncode}: {proc.stdout[-300:]}{proc.stderr[-300:]}"
    return "ok", latency, _verify_report(proc.stdout)


def run_verify_child(seed: int, mode: str):
    """bench/verify_child.py in a fresh process; returns (status, latency, document)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"verify-child-{mode}-{seed}.json")
    proc, latency = _subprocess(
        [sys.executable, os.path.join(HERE, "verify_child.py"), "--seed", str(seed), "--out", out, "--mode", mode]
    )
    if proc is None:
        return "over", latency, None
    if proc.returncode != 0:
        return "error", latency, f"traced verify failed: {proc.stderr[-500:]}"
    with open(out, encoding="utf-8") as handle:
        doc = json.load(handle)
    os.remove(out)
    if doc["exit_code"] != 0:
        return "error", latency, f"exit code {doc['exit_code']}"
    return "ok", latency, doc


# --- metrics and output ----------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_samples": "count",
    "over_budget_share": "share",
    "error_share": "share",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics every workload reports, and so the ones gated in
# BENCHMARK.json; the others are printed and written to the result file.
REPORTED = ("setup_s", "wall_s", "ops_per_s", "peak_rss_mb")


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_share"):
        return "share"
    if name.endswith("_s") or ".map_s." in name:
        return "s"
    if name.endswith("_max"):
        return "bits"
    return "count"


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that start the interpreter, import
    and generate the workload's inputs, and exit."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        # Captured pipes make the wait end when the child exits; a bare
        # timeout would poll for the exit in steps of up to 50 ms.
        subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True, capture_output=True, timeout=120)
        times.append(perf_counter() - started)
    return statistics.median(times)


def peak_rss_kb(workload: str) -> int:
    """Peak resident set so far; for verify, also of its child processes."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == VERIFY:
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss_kb


def end_to_end(res: PassResult, setup_s: float, failed: int, workload: str, rss_kb: int) -> dict:
    m = {
        "setup_s": setup_s,
        "wall_s": statistics.median(res.walls),
        "ops_per_s": res.completed / sum(res.walls),
        "over_budget_share": res.over / res.attempted,
        "error_share": failed / res.attempted,
        "peak_rss_mb": rss_kb / 1024,
    }
    if workload != VERIFY:
        lat = sorted(res.latencies)
        m["latency_p50_ms"] = _percentile(lat, 0.5) * 1000
        m["latency_p90_ms"] = _percentile(lat, 0.9) * 1000
        m["latency_samples"] = len(lat)
    return m


def _records(ops: list[Op], first: list, encode) -> list:
    out = []
    for op, (status, value) in zip(ops, first):
        if status == "ok":
            out.append({"id": op.ident, "result": encode(op, value)})
        elif status == "over":
            out.append({"id": op.ident, "over_budget": True})
        else:
            out.append({"id": op.ident, "error": value})
    return out


def _digest(ops: list[Op], first: list, encode) -> str:
    blob = json.dumps(_records(ops, first, encode), sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "closed_loop_clients": 1,
    }


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:>16.6f} {_unit(name)}")


# --- main --------------------------------------------------------------------------


class VerifyWorkload:
    """`jamestree verify --suite all` as a subprocess: the user's time to a verdict."""

    name = VERIFY

    def generate(self, seed: int) -> list[Op]:
        return [Op(f"verify-seed{VERIFY_SEED}", (VERIFY_SEED,), {"verify_seed": VERIFY_SEED, "suite": "all"})]

    def encode(self, op: Op, report):
        return report

    def check(self, op: Op, report) -> list[str]:
        return [] if report.get("passed") is True else ['verify reported "passed": false']


def traced_metrics(args, wl, ops: list[Op], plain: PassResult, traced: PassResult, tracer, children: list, problems: dict):
    """Per-layer metrics of the traced passes; writes the spans to .bench_out/
    and adds any traced failure to `problems`.  Returns (metrics, absent)."""
    if traced.errors:
        problems.setdefault("traced", []).append(f"{traced.errors} traced operations failed")
    for ident in traced.mismatches:
        problems.setdefault(ident, []).append("traced output differs between passes")
    if _digest(ops, traced.first, wl.encode) != _digest(ops, plain.first, wl.encode):
        problems.setdefault("traced", []).append("traced outputs differ from untraced outputs")
    if args.workload == VERIFY:
        spans, absent = [], []
        for doc in children:
            offset = len(spans)
            spans.extend([n, s, e, p + offset if p >= 0 else -1, o, c] for n, s, e, p, o, c in doc["spans"])
            absent = doc["absent"]
    else:
        spans, absent = tracer.spans, tracer.absent
    layer = tracing.summarize(spans, absent, len(traced.walls), sum(traced.walls) / len(traced.walls))
    layer["cli.import_s"] = statistics.median(doc["import_s"] for doc in children) if children else 0.0
    layer["parallel.map_s.w1"] = layer["parallel.map_s.w2"] = 0.0
    if args.workload == VERIFY:
        # Criterion 1 at 1 and then 2 workers, in one traced process.
        status, _, doc = run_verify_child(VERIFY_SEED, "workers")
        if status != "ok":
            problems.setdefault("criterion1-workers", []).append(str(doc))
        else:
            for name, start, end, *_ in doc["spans"]:
                if name.startswith("parallel.map.w"):
                    layer[f"parallel.map_s.w{name.rsplit('.w', 1)[1]}"] = end - start
    layer["trace.wall_s"] = statistics.median(traced.walls)
    layer["trace.untraced_wall_s"] = statistics.median(plain.walls)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
    layer["trace.spans"] = len(spans) / len(traced.walls)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json"), "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "count"], "spans": spans}, handle)
    return layer, absent


def run_workload(args) -> int:
    workload = args.workload
    setup_s = setup_seconds(workload, args.seed)
    wl = VerifyWorkload() if workload == VERIFY else IN_PROCESS[workload]
    ops = wl.generate(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    children: list = []
    if workload == VERIFY:
        runner = run_verify_cli

        def traced_runner(op):
            status, latency, doc = run_verify_child(op.args[0], "verify")
            if status != "ok":
                return status, latency, doc
            children.append(doc)
            return status, latency, _verify_report(doc["stdout"])

        plain, traced = run_passes(runner, ops, args.seconds, 1, traced_runner if args.trace else None)
    else:
        signal.signal(signal.SIGALRM, _on_alarm)

        def runner(op):
            return timed_call(wl.call, op, wl.budget_s)

        plain, traced = run_passes(runner, ops, args.seconds, MIN_LATENCY_SAMPLES, runner if args.trace else None, tracer)
    # Read before the output checks, whose reference oracle can use more
    # memory than the timed calls.
    rss_kb = peak_rss_kb(workload)

    # Output checks, after the timed phase and outside every metric.
    problems: dict = {}
    for op, (status, value) in zip(ops, plain.first):
        if status == "ok":
            found = wl.check(op, value)
            if found:
                problems[op.ident] = found
    for ident in plain.mismatches:
        problems.setdefault(ident, []).append("output differs between passes")
    digest = _digest(ops, plain.first, wl.encode)
    failed = plain.errors + len(problems)

    layer: dict = {}
    absent: list = []
    if args.trace:
        problems_before = len(problems)
        layer, absent = traced_metrics(args, wl, ops, plain, traced, tracer, children, problems)
        failed += len(problems) - problems_before

    metrics = end_to_end(plain, setup_s, failed, workload, rss_kb)
    over_ids = [op.ident for op, (status, _) in zip(ops, plain.first) if status == "over"]
    correct = failed == 0
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "metadata": _metadata(args),
                "digest": digest,
                "correct": correct,
                "attempted": plain.attempted,
                "failed": failed,
                "pass_walls_s": plain.walls,
                "traced_pass_walls_s": traced.walls,
                "end_to_end": metrics,
                "per_layer": layer,
                "absent": absent,
                "over_budget_ids": over_ids,
                "problems": problems,
                "operations": [
                    {"id": op.ident, "props": op.props, "status": status, "latency_s": plain.latencies[i]}
                    for i, (op, (status, _)) in enumerate(zip(ops, plain.first))
                ],
            },
            handle,
            indent=1,
        )

    print(
        f"workload {workload} seed {args.seed}: {plain.attempted} operations in {len(plain.walls)} pass(es), "
        f"{plain.over} over budget, {failed} failed; closed loop, 1 client"
    )
    print(f"digest {workload} sha256:{digest}")
    if over_ids:
        print(f"over budget: {' '.join(over_ids)}")
    for ident, found in sorted(problems.items()):
        print(f"FAILED {ident}: {'; '.join(found)}")
    _print_metrics("end-to-end:", metrics)
    if args.trace:
        _print_metrics("per-layer (per pass of the operation list, traced):", layer)
        if absent:
            print(f"absent spans: {' '.join(absent)}")
    print(f"result file: {os.path.relpath(out_path, ROOT)}")
    shown = layer if args.trace else {k: metrics[k] for k in REPORTED}
    summary = {
        "correct": correct,
        "attempted": plain.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in shown.items()},
    }
    print(json.dumps(summary))
    return 0


def setup_only(args) -> int:
    if args.workload == VERIFY:
        import jamestree.cli  # noqa: F401
    else:
        IN_PROCESS[args.workload].generate(args.seed)
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, untraced and then traced."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in list(IN_PROCESS) + [VERIFY]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= last["correct"]
            attempted += last["attempted"]
            failed += last["failed"]
            metrics.update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(IN_PROCESS) + [VERIFY, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jamestree", "__init__.py")):
        sys.stderr.write(f"bench: no program source at {SRC}/jamestree; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
