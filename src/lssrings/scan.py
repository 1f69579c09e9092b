"""Corpus scanning, tree enumeration, and the conjecture/theorem checks.

A scan row records the invariants and bound checks for one graph; rows
whose search ran out of its node budget keep their upper bound but are
excluded from violation accounting, so a stopped search can never
masquerade as a counterexample. A graph whose solve raises becomes a
``solver_error`` row and the scan goes on. Violations of the open
inequality pmd <= alpha are findings, not errors. Scan rows carry no
forest check: only ``check_forest_pmd`` (``lssrings trees --check``)
fails on a forest with pmd != degree, which would be a solver bug.
"""

from __future__ import annotations

import csv
import io
import sys
import time
import traceback
from dataclasses import dataclass, fields

from .graphs import (ASCII_SPACE, Graph, GraphFormatError, ascii_lines, degeneracy,
                     encode_graph6, is_bipartite, max_degree, parse_graph6)
from .pmd import check_node_budget
from .pmd import pmd as solve_pmd

CSV_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScanRow:
    id: str
    n: int | None
    m: int | None
    bipartite: bool | None
    delta: int | None
    k: int | None
    alpha: int | None
    pmd: int | None
    status: str
    gap: int | None
    ok_upper: bool | None
    ok_bipartite: bool | None
    ok_conjecture: bool | None
    ms: float

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["ms"] = int(self.ms)
        return out

    def to_csv(self) -> list[str]:
        """The CSV_HEADER columns: bools as 1/0, None as an empty cell."""
        return ["" if x is None else str(int(x) if isinstance(x, bool) else x)
                for x in self.to_json().values()]


CSV_HEADER = tuple(f.name for f in fields(ScanRow))


@dataclass(frozen=True)
class ScanSummary:
    total: int
    exact: int
    budget_exhausted: int
    parse_errors: int
    solver_errors: int
    violations: int
    max_gap: int | None
    slowest_id: str | None
    slowest_ms: float

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["slowest_ms"] = int(self.slowest_ms)
        return out


def scan_graph(g: Graph, gid: str, node_budget=None, stable_ms: bool = False) -> ScanRow:
    t0 = time.monotonic()
    delta = max_degree(g)
    k, _ = degeneracy(g)
    a = delta + k - 1
    res = solve_pmd(g, node_budget=node_budget)
    ms = 0.0 if stable_ms else (time.monotonic() - t0) * 1000
    bip = is_bipartite(g)
    exact = res.status == "exact"
    upper = min(2 * g.n - 3, g.m) if g.m else 0
    ok_bip = None
    if exact and bip:
        ok_bip = res.value <= min(g.n - 1, g.m) if g.m else True
    # Edge-free graphs: every bound is vacuous (alpha = -1 is an artifact
    # of the degree + degeneracy - 1 formula, not a finding).
    ok_conj = None
    if exact:
        ok_conj = res.value <= a if g.m else True
    return ScanRow(
        id=gid, n=g.n, m=g.m, bipartite=bip, delta=delta, k=k, alpha=a,
        pmd=res.value, status=res.status,
        gap=(a - res.value if g.m else None) if exact else None,
        ok_upper=(res.value <= upper) if exact else None,
        ok_bipartite=ok_bip,
        ok_conjecture=ok_conj,
        ms=ms,
    )


def _error_row(gid: str, status: str) -> ScanRow:
    blank = {f.name: None for f in fields(ScanRow)}
    return ScanRow(**{**blank, "id": gid, "status": status, "ms": 0.0})


def _scan_one(args) -> ScanRow | None:
    """One corpus line's row; None for a graph over max_n vertices."""
    line, node_budget, stable_ms, max_n = args
    try:
        g = parse_graph6(line)
    except GraphFormatError as exc:
        return _error_row(line, f"parse_error: {exc}")
    if max_n is not None and g.n > max_n:
        return None
    gid = encode_graph6(g)
    try:
        return scan_graph(g, gid, node_budget, stable_ms)
    except Exception as exc:  # one failing solve must not stop the corpus
        traceback.print_exc(file=sys.stderr)
        return _error_row(gid, f"solver_error: {type(exc).__name__}: {exc}")


def iter_corpus_lines(text: str):
    """The corpus's nonblank lines that are not '#' comments. Lines end only
    at \\n, \\r\\n and \\r (``ascii_lines``), so \\x1c-\\x1e, \\x85 and
    \\u2028 stay in a line, which graph6 must refuse, not skip."""
    for raw in ascii_lines(text):
        line = raw.strip(ASCII_SPACE)
        if line and not line.startswith("#"):
            yield line


def scan_corpus(lines, node_budget=None, jobs: int = 1,
                max_n: int | None = None,
                stable_ms: bool = False) -> tuple[list[ScanRow], ScanSummary]:
    """Scan graph6 lines; returns (rows, summary) in input order. Parse
    failures and solver exceptions become per-line error rows and the
    scan continues; graphs over max_n vertices yield no row. Each line is
    parsed once, by the worker. A node budget of None means pmd's
    default; any other that is not an integer of at least 1 raises
    ValueError before any graph runs."""
    if node_budget is not None:
        check_node_budget(node_budget)
    work = [(line, node_budget, stable_ms, max_n) for line in lines]
    if jobs > 1 and len(work) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(jobs, len(work))) as pool:
            rows = pool.map(_scan_one, work)
    else:
        rows = [_scan_one(w) for w in work]
    rows = [r for r in rows if r is not None]
    return rows, summarize(rows)


def summarize(rows) -> ScanSummary:
    exact = sum(1 for r in rows if r.status == "exact")
    budget = sum(1 for r in rows if r.status == "upper_bound_only")
    errors = sum(1 for r in rows if r.status.startswith("parse_error"))
    solver_errors = sum(1 for r in rows if r.status.startswith("solver_error"))
    violations = sum(1 for r in rows if r.ok_conjecture is False)
    gaps = [r.gap for r in rows if r.gap is not None]
    slowest = max(rows, key=lambda r: r.ms, default=None)
    return ScanSummary(
        total=len(rows), exact=exact, budget_exhausted=budget,
        parse_errors=errors, solver_errors=solver_errors, violations=violations,
        max_gap=max(gaps) if gaps else None,
        slowest_id=slowest.id if slowest else None,
        slowest_ms=slowest.ms if slowest else 0.0,
    )


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in rows:
        w.writerow(r.to_csv())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# labeled trees

def pruefer_decode(n: int, seq) -> Graph:
    """Labeled tree on n vertices from a Pruefer sequence (1-based entries)."""
    if n == 1:
        return Graph(1, ())
    import heapq

    deg = [1] * (n + 1)
    for x in seq:
        deg[x] += 1
    heap = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(heap)
    edges = []
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(heap, x)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return Graph.from_edges(n, edges)


def enumerate_trees(n: int):
    """All n^(n-2) labeled trees on n vertices via Pruefer sequences."""
    from itertools import product

    if n < 1:
        return
    for seq in product(range(1, n + 1), repeat=max(n - 2, 0)):
        yield pruefer_decode(n, seq)


def check_forest_pmd(n_max: int) -> dict:
    """Assert pmd = degree on every labeled tree up to n_max vertices.

    Any mismatch is a solver defect (the forest equality is a theorem) and
    is returned in the failures list.
    """
    checked = 0
    failures = []
    for n in range(1, n_max + 1):
        for g in enumerate_trees(n):
            res = solve_pmd(g)
            delta = max_degree(g)
            if res.status != "exact" or res.value != delta:
                failures.append({"graph6": encode_graph6(g), "pmd": res.value,
                                 "status": res.status, "delta": delta})
            checked += 1
    return {"checked": checked, "failures": failures, "ok": not failures}
