"""The four workloads: their inputs, one round of work, and its checks.

A workload object lives through one run. ``setup`` hands the program its
parsed inputs and warms up; ``run_round`` makes one pass over the whole
input set and returns one outcome per operation (a result, or the
exception it raised); ``check_round`` re-checks those outcomes outside
the timed region; ``check_run`` holds the checks that need one pass per
run. Each method that calls into the program takes a ``tracer`` that is
None in untraced rounds and wraps the benchmark's own calls otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import time

import checks
import inputs

# Warm-up input: the worked example of `lssrings verify example`.
EXAMPLE_G6 = inputs.encode_graph6(4, ((1, 2), (2, 3), (2, 4), (3, 4)))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = self.make_inputs()

    def make_inputs(self) -> list:
        raise NotImplementedError

    def setup(self, lss) -> float:
        """Parse the inputs with the program and warm up; returns parse time."""
        t0 = time.perf_counter()
        self.graphs = [lss.graphs.parse_graph6(g.graph6) for g in self.graph_inputs()]
        parse_s = time.perf_counter() - t0
        self.example = lss.graphs.parse_graph6(EXAMPLE_G6)
        self.bind(lss)
        self.warm_up()
        return parse_s

    def graph_inputs(self) -> list:
        return self.inputs

    def bind(self, lss):
        self.lss = lss

    def warm_up(self):
        pass

    def capture(self, patches):
        """Install the light wrappers the checks read outputs from."""

    def run_round(self, tracer) -> list:
        raise NotImplementedError

    def check_round(self, outcomes) -> list[str]:
        raise NotImplementedError

    def check_run(self) -> list[str]:
        return []


def is_failure(outcome) -> bool:
    """An operation fails when it raises; its outcome is then the exception."""
    return isinstance(outcome, Exception)


class Corpus6(Workload):
    """All 143 connected graphs on <= 6 vertices, one scan_graph call each."""

    name = "corpus6"

    def make_inputs(self):
        return inputs.seeded(inputs.corpus6(), self.seed)

    def bind(self, lss):
        super().bind(lss)
        self.results = []

    def warm_up(self):
        self.lss.scan.scan_graph(self.example, "example")

    def capture(self, patches):
        results = self.results

        def keep(solve):
            def solve_and_keep(*args, **kwargs):
                res = solve(*args, **kwargs)
                results.append(res)
                return res
            return solve_and_keep

        patches.replace(self.lss.scan, "solve_pmd", keep)

    def run_round(self, tracer):
        scan_graph = self.lss.scan.scan_graph
        if tracer is not None:
            scan_graph = tracer.wrap(scan_graph, "scan.graph")
        del self.results[:]
        out = []
        for g_in, g in zip(self.inputs, self.graphs):
            try:
                out.append(scan_graph(g, g_in.gid))
            except Exception as exc:  # counted as a failed operation
                out.append(exc)
        return out

    def check_round(self, outcomes):
        errs = []
        ok = [(g, row) for g, row in zip(self.inputs, outcomes) if not is_failure(row)]
        if len(self.results) != len(ok):
            return [f"{len(self.results)} solver results for {len(ok)} scanned graphs"]
        for (g, row), res in zip(ok, self.results):
            errs += checks.check_result(g.gid, g.n, g.edges, res, g.expected)
            if g.brute is not None and res.value != g.brute:
                errs.append(f"{g.gid}: pmd {res.value}, brute force {g.brute}")
            if (row.pmd, row.status, row.n, row.m) != (res.value, res.status, g.n, len(g.edges)):
                errs.append(f"{g.gid}: scan row disagrees with the solve")
        return errs


class Dense(Workload):
    """K7 and K4,4, solved exactly."""

    name = "dense"

    def make_inputs(self):
        return inputs.seeded(inputs.dense(), self.seed)

    def warm_up(self):
        self.lss.pmd.pmd(self.example)

    def run_round(self, tracer):
        solve = self.lss.pmd.pmd
        if tracer is not None:
            solve = tracer.wrap(solve, "pmd.solve")
        out = []
        for g in self.graphs:
            try:
                out.append(solve(g))
            except Exception as exc:  # counted as a failed operation
                out.append(exc)
        return out

    def check_round(self, outcomes):
        errs = []
        for g, res in zip(self.inputs, outcomes):
            if not is_failure(res):
                errs += checks.check_result(g.gid, g.n, g.edges, res, self.expected(g))
        return errs

    def expected(self, g):
        return g.expected


class Trees7(Dense):
    """Every labeled tree on 1..7 vertices: the forest fast path, where
    pmd must equal the maximum degree."""

    name = "trees7"

    def make_inputs(self):
        return inputs.seeded(inputs.trees(), self.seed)

    def expected(self, g):
        return g.delta


class Ring(Workload):
    """The verify targets and one large basis (K4 at d = 3)."""

    name = "ring"

    def make_inputs(self):
        rng = inputs.rng_for(self.seed)
        ops = [("path", 4), ("path", 5), ("star", 3), ("example", None)]
        for gid, n, edges, v, d in (
                ("D:path3", 3, ((1, 2), (2, 3)), 3, 2),
                ("D:star2", 3, ((1, 3), (2, 3)), 3, 2),
                ("D:K4", 4, inputs.complete_edges(4), 1, 3)):
            perm = inputs.permutation(rng, n)
            g = inputs.relabeled(inputs.GraphInput(gid, n, edges, ""), perm)
            ops.append(("D", (g, perm[v], d)))
        if rng is not None:
            rng.shuffle(ops)
        return ops

    def graph_inputs(self):
        return [arg[0] for kind, arg in self.inputs if kind == "D"]

    def bind(self, lss):
        super().bind(lss)
        parsed = iter(self.graphs)
        self.calls = [(kind, next(parsed) if kind == "D" else None, arg)
                      for kind, arg in self.inputs]
        self.bases, self.normal_forms = [], []
        self.first = None

    def warm_up(self):
        self.lss.reports.verify_D_nonzero(self.example, 1, 2)

    def capture(self, patches):
        bases, normal_forms = self.bases, self.normal_forms

        def keep_basis(buchberger):
            def buchberger_and_keep(gens, order):
                out = buchberger(gens, order)
                bases.append((list(gens), order, out))
                return out
            return buchberger_and_keep

        def keep_normal_form(normal_form):
            def normal_form_and_keep(f, basis, order):
                rem = normal_form(f, basis, order)
                normal_forms.append((f, list(basis), order, rem))
                return rem
            return normal_form_and_keep

        patches.replace(self.lss.reports, "buchberger", keep_basis)
        patches.replace(self.lss.reports, "normal_form", keep_normal_form)

    def _call(self, kind, g, arg):
        reports = self.lss.reports
        if kind == "path":
            return reports.verify_path_suite(arg)
        if kind == "star":
            return reports.verify_star_suite(arg)
        if kind == "D":
            _, v, d = arg
            return reports.verify_D_nonzero(g, v, d)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.lss.cli.cmd_verify(argparse.Namespace(target="example", n=None,
                                                            json=False))
        return rc, out.getvalue()

    def run_round(self, tracer):
        call = self._call
        if tracer is not None:
            call = tracer.wrap(call, "reports.suite")
        del self.bases[:], self.normal_forms[:]
        out = []
        for kind, g, arg in self.calls:
            try:
                out.append(call(kind, g, arg))
            except Exception as exc:  # counted as a failed operation
                out.append(exc)
        return out

    def check_round(self, outcomes):
        errs = []
        for (kind, _, arg), res in zip(self.calls, outcomes):
            if is_failure(res):
                continue
            if kind == "path":
                errs += _check_path_suite(arg, res)
            elif kind == "star":
                if not res.passed:
                    errs.append(f"{res.name}: failed checks")
            elif kind == "D":
                if res is not True:
                    errs.append(f"{arg[0].gid}: determinant vanishes in the quotient")
            else:
                rc, text = res
                if rc != 0 or "PASS pmd(example) = 3" not in text:
                    errs.append(f"verify example: exit code {rc}")
        # The bases of the first round go to sympy in check_run; later
        # rounds must reproduce them exactly.
        snapshot = ([[g.terms for g in out.generators] for _, _, out in self.bases],
                    [rem.terms for *_, rem in self.normal_forms])
        if self.first is None:
            self.first = (list(self.bases), list(self.normal_forms), snapshot)
        elif snapshot != self.first[2]:
            errs.append("a later round built other bases or normal forms than the first")
        return errs

    def check_run(self):
        bases, normal_forms, _ = self.first
        return checks.check_groebner(bases, normal_forms)


def _check_path_suite(n: int, suite) -> list[str]:
    """Every check passed, and the multiplicities equal the theorem values
    2^(n-3) for each P_i, 3*2^(n-3) for each Q_i and (n-2)*2^(n-1) for (x)."""
    errs = [] if suite.passed else [f"{suite.name}: failed checks"]
    want = {"e(R/P_": 2 ** (n - 3), "e(R/Q_": 3 * 2 ** (n - 3),
            "e(R/(x))": (n - 2) * 2 ** (n - 1)}
    seen = dict.fromkeys(want, 0)
    for c in suite.checks:
        for prefix, value in want.items():
            if c.name.startswith(prefix):
                seen[prefix] += 1
                if c.detail != f"got {value}":
                    errs.append(f"{suite.name}: {c.name} {c.detail}, theorem says {value}")
    if seen != {"e(R/P_": n - 2, "e(R/Q_": n - 2, "e(R/(x))": 1}:
        errs.append(f"{suite.name}: multiplicity checks missing ({seen})")
    return errs


WORKLOADS = {w.name: w for w in (Corpus6, Dense, Trees7, Ring)}
