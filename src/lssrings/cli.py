"""Command-line surface.

Graphs are given as a family spec ("star:3", "path:6", "cycle:4",
"complete:5", "complete_bipartite:2,3", "gapped:4", "example"), a
graph6 literal, or a path to a file holding one graph: an edge list
("n" header then "i j" lines) or one graph6 line (several are a corpus).

Exit codes: 0 success (findings included), 1 argument or input error
(usage errors included), 2 desk-scale guard tripped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .graphs import (Graph, GraphFormatError, alpha, ascii_int, degeneracy,
                     encode_graph6, example, family, is_bipartite, max_degree,
                     parse_edge_list, parse_graph6)
from .groebner import DeskScaleExceeded
from .pmd import pmd
from .reports import VERIFY_SUITES, invariants_of, properties_at
from .scan import (check_forest_pmd, enumerate_trees, iter_corpus_lines,
                   rows_to_csv, scan_corpus)


def load_graph(spec: str) -> Graph:
    if spec == "example":
        return example()
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
        lines = list(iter_corpus_lines(text))
        if not lines:
            raise GraphFormatError(f"{spec}: empty graph file")
        if lines[0].isdigit():
            return parse_edge_list(text)
        if len(lines) > 1:
            raise GraphFormatError(f"{spec}: holds {len(lines)} graphs, not one; "
                                   f"use `lssrings scan` for a corpus")
        return parse_graph6(lines[0])
    if ":" in spec:
        kind, _, rest = spec.partition(":")
        return family(kind, *(rest.split(",") if rest else ()))
    return parse_graph6(spec)


def cmd_invariants(args) -> int:
    g = load_graph(args.graph)
    k, order = degeneracy(g)
    try:
        g6 = encode_graph6(g)
    except GraphFormatError:     # graph6 encodes only 1 <= n <= 62
        g6 = None
    data = {
        "graph6": g6, "n": g.n, "m": g.m,
        "bipartite": is_bipartite(g), "delta": max_degree(g), "k": k,
        "alpha": alpha(g), "elimination_order": list(order),
    }
    if args.json:
        print(json.dumps(data))
    else:
        for key, val in data.items():
            print(f"{key}: {val}")
    return 0


def cmd_pmd(args) -> int:
    g = load_graph(args.graph)
    res = pmd(g, node_budget=args.budget)
    if args.certificate:
        print(json.dumps(res.to_json()))
    else:
        print(f"pmd = {res.value} ({res.status})")
        for l, part in enumerate(res.decomposition.parts, start=1):
            print(f"  part {l}: {sorted(part)}")
    return 0


def cmd_thresholds(args) -> int:
    g = load_graph(args.graph)
    inv = invariants_of(g, node_budget=args.budget)
    report = properties_at(g, args.d, inv)
    if args.json:
        print(json.dumps(report.to_json()))
        return 0
    print(f"n={g.n} m={g.m} delta={inv.delta} k={inv.k} alpha={inv.alpha} "
          f"pmd={inv.pmd_value} ({inv.pmd_status}) at d={args.d}")
    for prop in report.table:
        fires, needs = report.fires(prop), report.needs(prop)
        print(f"{prop:22s} {'guaranteed' if fires else 'unknown'}")
        for state, rules in (("fires", fires), ("needs", needs)):
            for rf in rules:
                when = "any d" if rf.threshold is None else f"d >= {rf.threshold}"
                print(f"    [{rf.rule}] {when} ({state}) :: {rf.statement}")
    return 0


def cmd_verify(args) -> int:
    suite, size = VERIFY_SUITES[args.target]
    if size is None and args.n is not None:
        sized = " and ".join(t for t, (_, n) in VERIFY_SUITES.items() if n is not None)
        raise ValueError(f"--n applies to {sized} only, not {args.target}")
    result = suite() if size is None else suite(size if args.n is None else args.n)
    return 0 if _print_suite(result, args.json) else 1


def _print_suite(suite, as_json: bool) -> bool:
    if as_json:
        print(json.dumps(suite.to_json()))
    else:
        for c in suite.checks:
            line = f"{'PASS' if c.passed else 'FAIL'} {c.name}"
            if c.detail:
                line += f" ({c.detail})"
            print(line)
        print(f"{'PASS' if suite.passed else 'FAIL'} {suite.name}")
    return suite.passed


def cmd_scan(args) -> int:
    try:
        with open(args.corpus, encoding="utf-8") as fh:
            lines = list(iter_corpus_lines(fh.read()))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows, summary = scan_corpus(
        lines, node_budget=args.budget, jobs=args.jobs, max_n=args.max_n,
        stable_ms=args.stable)
    if args.json_out:
        print(json.dumps({"rows": [r.to_json() for r in rows],
                          "summary": summary.to_json()}))
    elif args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rows_to_csv(rows))
    else:
        print(rows_to_csv(rows), end="")
    for r in rows:
        if r.ok_conjecture is False:
            print(f"FINDING: pmd > alpha on {r.id} (pmd={r.pmd}, alpha={r.alpha})",
                  file=sys.stderr)
    print(f"scanned {summary.total} graphs: {summary.exact} exact, "
          f"{summary.budget_exhausted} budget-exhausted, "
          f"{summary.parse_errors} parse errors, "
          f"{summary.solver_errors} solver errors, "
          f"{summary.violations} conjecture findings", file=sys.stderr)
    return 0


def cmd_trees(args) -> int:
    if args.check:
        summary = check_forest_pmd(args.n)
        print(f"checked {summary['checked']} trees up to n={args.n}")
        if not summary["ok"]:
            for f in summary["failures"]:
                print(f"FAIL pmd != delta: {f}", file=sys.stderr)
            return 1
        print("PASS pmd = delta on every tree")
        return 0
    for g in enumerate_trees(args.n):
        print(encode_graph6(g))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the argument-error code; 2 is the desk-scale guard."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    value = ascii_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lssrings",
                description="positive matching decompositions "
                            "and the ring invariants they control")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("invariants", help="degree, degeneracy, alpha")
    sp.add_argument("graph")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("pmd", help="exact pmd with certificates")
    sp.add_argument("graph")
    sp.add_argument("--certificate", action="store_true")
    sp.add_argument("--budget", type=positive_int, default=None, help="node budget")
    sp.set_defaults(func=cmd_pmd)

    sp = sub.add_parser("thresholds", help="property report at a given d")
    sp.add_argument("graph")
    sp.add_argument("--d", type=positive_int, required=True)
    sp.add_argument("--budget", type=positive_int, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_thresholds)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("target", choices=list(VERIFY_SUITES))
    sp.add_argument("--n", type=ascii_int, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("scan", help="scan a graph6 corpus")
    sp.add_argument("corpus")
    sp.add_argument("--budget", type=positive_int, default=None)
    sp.add_argument("--jobs", type=positive_int, default=1)
    sp.add_argument("--max-n", type=positive_int, default=None)
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--csv", dest="output", default=None,
                     help="write CSV rows to a file (default: CSV to stdout)")
    fmt.add_argument("--json", dest="json_out", action="store_true",
                     help="emit a JSON document instead of CSV")
    sp.add_argument("--stable", action="store_true",
                    help="zero the ms column for byte-reproducible output")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("trees", help="enumerate labeled trees as graph6")
    sp.add_argument("--n", type=positive_int, required=True)
    sp.add_argument("--check", action="store_true",
                    help="assert pmd = degree on every tree")
    sp.set_defaults(func=cmd_trees)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DeskScaleExceeded as exc:
        print(f"desk-scale guard: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
