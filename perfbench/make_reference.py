#!/usr/bin/env python3
"""Rebuild data/corpus6.tsv: the 143 connected graphs on at most 6 vertices
with their reference pmd values.

Each line holds the graph6 string (networkx atlas labels, shifted to
1..n), the solver's value on that labeling, and the value of
pmd_bruteforce when the graph has at most 10 edges (empty otherwise).
The brute-force oracle shares no search code with the solver; it takes
minutes, which is why the result is committed and not remade per run.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import networkx as nx  # noqa: E402
from networkx.generators.atlas import graph_atlas_g  # noqa: E402

from inputs import CORPUS_FILE, CORPUS_SIZE, encode_graph6  # noqa: E402
from lssrings.graphs import parse_graph6  # noqa: E402
from lssrings.pmd import pmd, pmd_bruteforce  # noqa: E402

BRUTE_MAX_EDGES = 10


def main() -> int:
    lines = []
    t0 = time.perf_counter()
    for gg in graph_atlas_g()[1:]:
        n = gg.number_of_nodes()
        if not 1 <= n <= 6 or not nx.is_connected(gg):
            continue
        g6 = encode_graph6(n, [(u + 1, v + 1) for u, v in gg.edges()])
        g = parse_graph6(g6)
        res = pmd(g)
        if res.status != "exact":
            raise SystemExit(f"{g6}: solver status {res.status}")
        brute = pmd_bruteforce(g) if g.m <= BRUTE_MAX_EDGES else None
        if brute is not None and brute != res.value:
            raise SystemExit(f"{g6}: solver {res.value} != brute force {brute}")
        lines.append(f"{g6}\t{res.value}\t{'' if brute is None else brute}")
        print(f"{len(lines):3d} {g6:10s} pmd={res.value} brute={brute} "
              f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
    if len(lines) != CORPUS_SIZE:
        raise SystemExit(f"atlas gave {len(lines)} graphs, expected {CORPUS_SIZE}")
    header = ("# connected graphs on 1..6 vertices (networkx atlas order)\n"
              "# graph6\tpmd (solver)\tpmd_bruteforce (m <= 10, else empty)\n")
    CORPUS_FILE.write_text(header + "\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {CORPUS_FILE} in {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
