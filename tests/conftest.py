"""Shared corpora and reference helpers.

The connected corpus comes from the networkx atlas (every isomorphism
class up to 7 vertices); the small-edge-count corpus is grown edge by
edge with isomorphism dedup. Both are validated against their known
class counts before use.
"""

from __future__ import annotations

import itertools

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from lssrings.graphs import Graph

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
EDGE_CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 11, 5: 26, 6: 68}


def _to_graph(gg: nx.Graph) -> Graph:
    relabel = {v: i + 1 for i, v in enumerate(sorted(gg.nodes()))}
    n = gg.number_of_nodes()
    if n == 0:
        return Graph(1, ())
    return Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in gg.edges()])


def atlas_graphs(max_n: int, connected_only: bool = False) -> list[Graph]:
    out = []
    for gg in graph_atlas_g()[1:]:
        n = gg.number_of_nodes()
        if not 1 <= n <= max_n:
            continue
        if connected_only and not nx.is_connected(gg):
            continue
        out.append(_to_graph(gg))
    return out


@pytest.fixture(scope="session")
def connected_n6() -> list[Graph]:
    graphs = atlas_graphs(6, connected_only=True)
    counts = {}
    for g in graphs:
        counts[g.n] = counts.get(g.n, 0) + 1
    assert counts == CONNECTED_COUNTS
    return graphs


@pytest.fixture(scope="session")
def all_n5() -> list[Graph]:
    graphs = atlas_graphs(5)
    counts = {}
    for g in graphs:
        counts[g.n] = counts.get(g.n, 0) + 1
    assert counts == {n: ALL_COUNTS[n] for n in range(1, 6)}
    return graphs


@pytest.fixture(scope="session")
def small_edge_classes() -> list[Graph]:
    """One representative per isomorphism class with at most 6 edges and no
    isolated vertices (plus the single vertex for the edgeless case)."""
    levels: dict[int, list[nx.Graph]] = {0: [nx.Graph()]}
    for m in range(1, 7):
        seen: list[nx.Graph] = []
        for parent in levels[m - 1]:
            n = parent.number_of_nodes()
            nodes = list(parent.nodes())
            cands = [(u, v) for u, v in itertools.combinations(nodes, 2)
                     if not parent.has_edge(u, v)]
            cands += [(u, n) for u in nodes] + [(n, n + 1)]
            for u, v in cands:
                child = parent.copy()
                child.add_edge(u, v)
                if not any(nx.is_isomorphic(child, s) for s in seen):
                    seen.append(child)
        levels[m] = seen
    assert {m: len(v) for m, v in levels.items()} == EDGE_CLASS_COUNTS
    return [_to_graph(gg) for graphs in levels.values() for gg in graphs]


def reference_encode_graph6(g: Graph) -> str:
    """Independent graph6 encoder used to cross-check the packaged one."""
    bits = ""
    adj = {(u, v) for u, v in g.edges}
    for j in range(1, g.n):
        for i in range(j):
            bits += "1" if (i, j) in adj else "0"
    bits += "0" * (-len(bits) % 6)
    chars = [chr(63 + g.n)]
    for k in range(0, len(bits), 6):
        chars.append(chr(63 + int(bits[k:k + 6], 2)))
    return "".join(chars)


def all_matchings(edges) -> list[frozenset]:
    """Every matching of the edge list (the empty one first), as frozensets."""
    edges = sorted(edges)
    out = [frozenset()]

    def rec(cur, used, start):
        for idx in range(start, len(edges)):
            i, j = edges[idx]
            if i in used or j in used:
                continue
            out.append(frozenset(cur | {(i, j)}))
            rec(cur | {(i, j)}, used | {i, j}, idx + 1)

    rec(set(), set(), 0)
    return out
