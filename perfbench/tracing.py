"""Spans recorded from outside the program, and the per-layer metrics.

The tracer replaces the names each calling module binds (for example
``lssrings.pmd.check_certificate`` or ``lssrings.kernel.obstruction_free``)
with wrappers that record one span per call: a name, a start, an end and
the span that was open when the call began. Spans live in flat arrays,
since the dense workload makes about 1.5 million kernel calls, and are
written out once, at the end of the run. Nothing under ``src/`` changes.

A layer is the part of a span name before the first dot. A span's self
time is its duration minus the durations of its direct children; a
layer's self time sums that over the layer's spans.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name): the bindings each calling module uses.
PROGRAM_SPANS = (
    ("lssrings.scan", "solve_pmd", "pmd.solve"),
    ("lssrings.pmd._Solver", "certify", "pmd.certify"),
    ("lssrings.kernel", "obstruction_free", "kernel.obstruction_free"),
    ("lssrings.pmd", "is_positive_matching", "posmatch.lp"),
    ("lssrings.posmatch", "solve_system", "posmatch.simplex"),
    ("lssrings.pmd", "check_certificate", "posmatch.check"),
    ("lssrings.reports", "buchberger", "groebner.buchberger"),
    ("lssrings.reports", "normal_form", "groebner.normal_form"),
    ("lssrings.reports", "matrix_D", "poly.det"),
    ("lssrings.reports", "lss_generators", "poly.generators"),
)

# Name, unit and better direction of every per-layer metric, in report order.
LAYER_METRICS = (
    ("pmd.calls", "count", "lower"),
    ("pmd.solve_s", "s", "lower"),
    ("pmd.solve_ms_p50", "ms", "lower"),
    ("pmd.solve_ms_p90", "ms", "lower"),
    ("pmd.nodes", "count", "lower"),
    ("pmd.nodes_per_s", "1/s", "higher"),
    ("pmd.self_s", "s", "lower"),
    ("pmd.certify_share", "ratio", "lower"),
    ("kernel.calls", "count", "lower"),
    ("kernel.s", "s", "lower"),
    ("kernel.us_per_call", "us", "lower"),
    ("kernel.accept_ratio", "ratio", "higher"),
    ("posmatch.lp_calls", "count", "lower"),
    ("posmatch.lp_s", "s", "lower"),
    ("posmatch.lp_ms_per_call", "ms", "lower"),
    ("posmatch.lp_positive_ratio", "ratio", "higher"),
    ("posmatch.simplex_calls", "count", "lower"),
    ("posmatch.simplex_s", "s", "lower"),
    ("posmatch.check_calls", "count", "lower"),
    ("posmatch.check_s", "s", "lower"),
    ("scan.calls", "count", "lower"),
    ("scan.self_s", "s", "lower"),
    ("graphs.parse_s", "s", "lower"),
    ("groebner.buchberger_calls", "count", "lower"),
    ("groebner.buchberger_s", "s", "lower"),
    ("groebner.basis_elems", "count", "lower"),
    ("groebner.normal_form_calls", "count", "lower"),
    ("groebner.normal_form_s", "s", "lower"),
    ("poly.det_s", "s", "lower"),
    ("poly.generators_s", "s", "lower"),
    ("reports.suite_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Spans the benchmark records around its own calls into the program.
BENCHMARK_SPANS = ("scan.graph", "reports.suite")

P90_MIN_CALLS = 100


def resolve(path: str):
    """Module or class named by a dotted path, reached via importlib so that
    ``lssrings.pmd`` is the submodule and not the function it exports."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, make):
        old = getattr(owner, attr)
        setattr(owner, attr, make(old))
        self._undo.append((owner, attr, old))

    def undo(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name in PROGRAM_SPANS] + list(BENCHMARK_SPANS)
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.tally = Counter()   # outcome counts recorded at span boundaries

    def wrap(self, fn, name: str):
        nid = self.names.index(name)
        on_result = self._outcome(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _outcome(self, name: str):
        """Counter of useful outcomes for the spans that have one."""
        measure = {
            "pmd.solve": ("pmd.nodes", lambda r: r.nodes),
            "kernel.obstruction_free": ("kernel.accepted", bool),
            "posmatch.lp": ("posmatch.positive", lambda r: r.is_positive),
            "groebner.buchberger": ("groebner.basis_elems", lambda r: len(r.generators)),
        }.get(name)
        if measure is None:
            return None
        key, value = measure
        tally = self.tally

        def on_result(result):
            tally[key] += value(result)
        return on_result

    def install(self, patches: Patches):
        """Wrap every program binding in PROGRAM_SPANS."""
        for owner, attr, name in PROGRAM_SPANS:
            patches.replace(resolve(owner), attr, lambda fn, name=name: self.wrap(fn, name))

    # -- analysis

    def arrays(self):
        import numpy as np  # only traced runs pay for numpy's import and memory

        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name, parent, start, end

    def layer_metrics(self, parse_s: float, overhead_s: float) -> dict:
        import numpy as np

        name, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer_of = [n.split(".")[0] for n in self.names]

        def sel(span):
            return name == self.names.index(span)

        def calls(span):
            return int(sel(span).sum())

        def total(span):
            return float(dur[sel(span)].sum())

        def layer_self(layer):
            ids = [i for i, lay in enumerate(layer_of) if lay == layer]
            return float(self_time[np.isin(name, ids)].sum())

        def ratio(a, b):
            return a / b if b else 0.0

        solve_ms = sorted((dur[sel("pmd.solve")] * 1e3).tolist())
        solve_s = total("pmd.solve")
        nodes = self.tally["pmd.nodes"]
        k_calls, lp_calls = calls("kernel.obstruction_free"), calls("posmatch.lp")
        values = {
            "pmd.calls": calls("pmd.solve"),
            "pmd.solve_s": solve_s,
            "pmd.solve_ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
            "pmd.solve_ms_p90": (statistics.quantiles(solve_ms, n=10)[-1]
                                 if len(solve_ms) >= P90_MIN_CALLS else 0.0),
            "pmd.nodes": nodes,
            "pmd.nodes_per_s": ratio(nodes, solve_s),
            "pmd.self_s": layer_self("pmd"),
            "pmd.certify_share": ratio(total("pmd.certify"), solve_s),
            "kernel.calls": k_calls,
            "kernel.s": total("kernel.obstruction_free"),
            "kernel.us_per_call": ratio(total("kernel.obstruction_free") * 1e6, k_calls),
            "kernel.accept_ratio": ratio(self.tally["kernel.accepted"], k_calls),
            "posmatch.lp_calls": lp_calls,
            "posmatch.lp_s": total("posmatch.lp"),
            "posmatch.lp_ms_per_call": ratio(total("posmatch.lp") * 1e3, lp_calls),
            "posmatch.lp_positive_ratio": ratio(self.tally["posmatch.positive"], lp_calls),
            "posmatch.simplex_calls": calls("posmatch.simplex"),
            "posmatch.simplex_s": total("posmatch.simplex"),
            "posmatch.check_calls": calls("posmatch.check"),
            "posmatch.check_s": total("posmatch.check"),
            "scan.calls": calls("scan.graph"),
            "scan.self_s": layer_self("scan"),
            "graphs.parse_s": parse_s,
            "groebner.buchberger_calls": calls("groebner.buchberger"),
            "groebner.buchberger_s": total("groebner.buchberger"),
            "groebner.basis_elems": self.tally["groebner.basis_elems"],
            "groebner.normal_form_calls": calls("groebner.normal_form"),
            "groebner.normal_form_s": total("groebner.normal_form"),
            "poly.det_s": total("poly.det"),
            "poly.generators_s": total("poly.generators"),
            "reports.suite_s": layer_self("reports"),
            "trace.overhead_s": overhead_s,
        }
        return {key: {"value": values[key], "unit": unit}
                for key, unit, _ in LAYER_METRICS}

    def write(self, path: Path, meta: dict):
        """Spans as columns of an .npz archive, with the name table and
        the run's environment block as JSON."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        name, parent, start, end = self.arrays()
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 names=np.array(json.dumps(self.names)),
                 meta=np.array(json.dumps(meta)))
