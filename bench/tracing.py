"""In-memory span tracer that wraps jamestree functions from outside.

A span is recorded per wrapped call as ``[name, start, end, parent, op,
count]``: ``parent`` is the index of the enclosing span (-1 at top level),
``op`` the identifier of the benchmark operation that issued the call, and
``count`` an optional work count taken from the call's arguments or return
value only.  Spans stay in memory until the run ends.

Modules bind functions by name (``from .norms import norm`` in dualnorm,
certificates, slices, verify, cli), so a wrapper replaces *every* binding of
the function object across ``jamestree.*`` module globals, including values
of module-level dicts such as ``verify.CHECKS``.  Lazy imports inside
function bodies (``sampling`` imports ``norm`` on each call) read the module
attribute at call time and so see the wrapper too.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Wrapped internal boundaries of `norms`.  A later change may remove any of
# them; their metrics are then reported as absent, never as zero.
NORMS_INTERNALS = {
    "_aligned_norm": "norms.aligned_sweep",
    "_jt_value_sq": "norms.jt_dp",
    "_jt_candidates": "norms.jt_candidates",
    "_jt_witness": "norms.jt_witness",
}

# Per-layer metric -> internal span it is computed from.
INTERNAL_METRICS = {
    "norms.aligned_sweep_s": "norms.aligned_sweep",
    "norms.jt_dp_s": "norms.jt_dp",
    "norms.jt_candidates_s": "norms.jt_candidates",
    "norms.jt_candidates": "norms.jt_candidates",
    "norms.jt_witness_s": "norms.jt_witness",
    "norms.jt_witness_calls": "norms.jt_witness",
    "norms.jt_witness_share": "norms.jt_witness",
}

CRITERIA = tuple(str(i) for i in range(1, 11))
PAIR_CRITERIA = ("2", "3", "6")  # the criteria that enumerate slice members


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.absent: list[str] = []
        self._undo: list = []

    def wrap(self, name, fn, count=None):
        """Wrapper recording one span per call; `name` may be a function of
        the call's (args, kwargs)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = tracer.stack[-1] if tracer.stack else -1
            record = [label, perf_counter(), 0.0, parent, tracer.op, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer.stack.pop()
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result

        return wrapper

    def patch_function(self, module, attr, name, count=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(name)
            return
        wrapper = self.wrap(name, original, count)
        for mod in _jamestree_modules():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, original))
                    namespace[key] = wrapper
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._undo.append((value, dkey, original))
                            value[dkey] = wrapper

    def patch_method(self, cls, attr, name, count=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._undo:
            container, key, original = self._undo.pop()
            if isinstance(container, type):
                setattr(container, key, original)
            else:
                container[key] = original


def _jamestree_modules():
    return [m for n, m in list(sys.modules.items()) if n == "jamestree" or n.startswith("jamestree.")]


def _bits(value) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def _solution_bits(result) -> int:
    value, x = result
    return max([_bits(value)] + [_bits(v) for v in x])


def _workers(args, kwargs) -> int:
    return args[2] if len(args) > 2 else kwargs.get("workers", 1)


def install(tracer: Tracer) -> Tracer:
    """Wrap the public functions of every layer, and the norms internals."""
    import jamestree.certificates as certificates
    import jamestree.cli as cli
    import jamestree.dualnorm as dualnorm
    import jamestree.lp as lp
    import jamestree.norms as norms
    import jamestree.parallel as parallel
    import jamestree.reference as reference
    import jamestree.slices as slices
    import jamestree.trees as trees
    import jamestree.verify as verify

    tracer.absent = []
    tracer.patch_method(
        trees.Closure, "__init__", "trees.closure", lambda a, k, r: len(a[0].nodes)
    )
    tracer.patch_function(norms, "norm", "norms.norm")
    for attr, name in NORMS_INTERNALS.items():
        count = (lambda a, k, r: len(r)) if attr == "_jt_candidates" else None
        tracer.patch_function(norms, attr, name, count)
    tracer.patch_function(
        lp, "simplex_max", "lp.simplex_max", lambda a, k, r: (len(a[1]) * len(a[0]), _solution_bits(r))
    )
    tracer.patch_function(
        dualnorm, "dual_norm", "dualnorm.dual_norm", lambda a, k, r: (r.iterations, len(r.cuts))
    )
    tracer.patch_function(slices, "slice_members", "slices.members", lambda a, k, r: len(r))
    tracer.patch_function(slices, "slice_diameter", "slices.diameter")
    for attr in ("extend_within_ball", "sd2p_witnesses", "m_ccw_witness", "octahedrality_deficit", "l1_basis_check"):
        tracer.patch_function(certificates, attr, f"certificates.{attr}")
    tracer.patch_function(reference, "naive_norm", "reference.naive_norm")
    tracer.patch_function(parallel, "parallel_map", lambda a, k: f"parallel.map.w{_workers(a, k)}")
    for ident, check in list(verify.CHECKS.items()):
        tracer.patch_function(verify, check.__name__, f"verify.c{ident}")
    tracer.patch_function(cli, "main", "cli.main")
    return tracer


def _ancestor(spans, index, predicate):
    parent = spans[index][3]
    while parent >= 0:
        if predicate(spans[parent][0]):
            return parent
        parent = spans[parent][3]
    return -1


def summarize(spans, absent, passes: int, wall_s: float) -> dict:
    """Per-layer metrics per pass of the operation list (means over `passes`).

    Times are inclusive span durations unless named `self_s`; self time is a
    span's duration minus the time its direct child spans cover.  Shares
    divide by `wall_s`, the mean traced pass time.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, _op, _count) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start

    def counts(name, pick=lambda c: c):
        return [pick(s[5]) for s in spans if s[0] == name and s[5] is not None]

    per = 1.0 / passes
    m: dict[str, float] = {
        "norms.norm_s": total.get("norms.norm", 0.0) * per,
        "norms.norm_calls": calls.get("norms.norm", 0) * per,
        "trees.closure_s": total.get("trees.closure", 0.0) * per,
        "trees.closure_nodes": sum(counts("trees.closure")) * per,
        "lp.simplex_s": total.get("lp.simplex_max", 0.0) * per,
        "lp.simplex_calls": calls.get("lp.simplex_max", 0) * per,
        "lp.simplex_share": total.get("lp.simplex_max", 0.0) * per / wall_s,
        "lp.tableau_cells": sum(counts("lp.simplex_max", lambda c: c[0])) * per,
        "lp.solution_bits_max": max(counts("lp.simplex_max", lambda c: c[1]), default=0),
        "dualnorm.dual_norm_s": total.get("dualnorm.dual_norm", 0.0) * per,
        "dualnorm.calls": calls.get("dualnorm.dual_norm", 0) * per,
        "dualnorm.rounds": sum(counts("dualnorm.dual_norm", lambda c: c[0])) * per,
        "dualnorm.cuts": sum(counts("dualnorm.dual_norm", lambda c: c[1])) * per,
        "reference.naive_norm_s": total.get("reference.naive_norm", 0.0) * per,
        "certificates.extend_s": total.get("certificates.extend_within_ball", 0.0) * per,
        "slices.members_s": total.get("slices.members", 0.0) * per,
        "slices.members": sum(counts("slices.members")) * per,
        "parallel.map_s.w1": total.get("parallel.map.w1", 0.0) * per,
    }
    for metric, name in INTERNAL_METRICS.items():
        if name in absent:
            continue
        if metric.endswith("_calls"):
            m[metric] = calls.get(name, 0) * per
        elif metric.endswith("_share"):
            m[metric] = total.get(name, 0.0) * per / wall_s
        elif metric == "norms.jt_candidates":
            m[metric] = sum(counts(name)) * per
        else:
            m[metric] = total.get(name, 0.0) * per
    for ident in CRITERIA:
        m[f"verify.c{ident}_s"] = total.get(f"verify.c{ident}", 0.0) * per

    oracle_s = oracle_calls = dual_self = cert_norm_s = 0.0
    pairs = {ident: 0 for ident in PAIR_CRITERIA}
    pairs_total = 0
    for i, (name, start, end, parent, _op, count) in enumerate(spans):
        if name == "dualnorm.dual_norm":
            dual_self += (end - start) - child_time[i]
        elif name == "norms.norm":
            if parent >= 0 and spans[parent][0] == "dualnorm.dual_norm":
                oracle_s += end - start
                oracle_calls += 1
            if _ancestor(spans, i, lambda n: n.startswith("certificates.")) >= 0:
                cert_norm_s += end - start
        elif name == "slices.members" and count is not None:
            n_pairs = count * (count - 1) // 2
            pairs_total += n_pairs
            crit = _ancestor(spans, i, lambda n: n.startswith("verify.c"))
            if crit >= 0:
                ident = spans[crit][0][len("verify.c"):]
                pairs[ident] = pairs.get(ident, 0) + n_pairs
    m["dualnorm.oracle_norm_s"] = oracle_s * per
    m["dualnorm.oracle_calls"] = oracle_calls * per
    m["dualnorm.self_s"] = dual_self * per
    m["certificates.norm_s"] = cert_norm_s * per
    m["slices.pairs"] = pairs_total * per
    for ident in PAIR_CRITERIA:
        m[f"slices.pairs.c{ident}"] = pairs[ident] * per
    return m
