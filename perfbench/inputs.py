"""Benchmark-side inputs: graph6 coding, the corpus file, labeled trees and
the seeded relabeling.

Everything here is the benchmark's own code, so the program under test
receives nothing but graph6 lines (and, for the ring workload, a list of
verify targets) and shares no code with the generator.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

CORPUS_FILE = Path(__file__).resolve().parent / "data" / "corpus6.tsv"
CORPUS_SIZE = 143          # connected graphs on 1..6 vertices
TREES_MAX_N = 7
TREES_SIZE = sum(n ** (n - 2) if n >= 2 else 1 for n in range(1, TREES_MAX_N + 1))


@dataclass(frozen=True)
class GraphInput:
    """One input graph as the benchmark knows it (1-based edges)."""

    gid: str
    n: int
    edges: tuple[tuple[int, int], ...]
    graph6: str
    expected: int | None = None     # closed form or reference value, if any
    brute: int | None = None        # pmd_bruteforce reference, if any

    @property
    def delta(self) -> int:
        deg = [0] * (self.n + 1)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return max(deg)


# ---------------------------------------------------------------------------
# graph6 (n <= 62), written from the format description

def encode_graph6(n: int, edges) -> str:
    eset = {(min(i, j), max(i, j)) for i, j in edges}
    bits = [1 if (i, j) in eset else 0
            for j in range(2, n + 1) for i in range(1, j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def decode_graph6(s: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    n = ord(s[0]) - 63
    bits = []
    for ch in s[1:]:
        val = ord(ch) - 63
        bits.extend(val >> (5 - t) & 1 for t in range(6))
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    return n, tuple(sorted(p for p, b in zip(pairs, bits) if b))


# ---------------------------------------------------------------------------
# seeded relabeling; seed 0 keeps the canonical labels and order

def permutation(rng: random.Random | None, n: int) -> list[int]:
    """perm[v] is the new label of vertex v (index 0 unused)."""
    labels = list(range(1, n + 1))
    if rng is not None:
        rng.shuffle(labels)
    return [0] + labels


def relabeled(g: GraphInput, perm: list[int]) -> GraphInput:
    edges = tuple(sorted((min(perm[i], perm[j]), max(perm[i], perm[j]))
                         for i, j in g.edges))
    return GraphInput(g.gid, g.n, edges, encode_graph6(g.n, edges),
                      g.expected, g.brute)


def seeded(graphs: list[GraphInput], seed: int) -> list[GraphInput]:
    """Relabel every graph by its own random permutation, then shuffle."""
    rng = rng_for(seed)
    out = [relabeled(g, permutation(rng, g.n)) for g in graphs]
    if rng is not None:
        rng.shuffle(out)
    return out


def rng_for(seed: int) -> random.Random | None:
    return random.Random(seed) if seed else None


# ---------------------------------------------------------------------------
# the workloads' canonical input sets

def corpus6() -> list[GraphInput]:
    """The committed corpus with its reference values (see make_reference.py)."""
    out = []
    with open(CORPUS_FILE, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            g6, pmd_ref, brute = line.rstrip("\n").split("\t")
            n, edges = decode_graph6(g6)
            out.append(GraphInput(g6, n, edges, g6, int(pmd_ref),
                                  int(brute) if brute else None))
    if len(out) != CORPUS_SIZE:
        raise ValueError(f"{CORPUS_FILE.name}: {len(out)} graphs, expected {CORPUS_SIZE}")
    return out


def complete_edges(n: int):
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def dense() -> list[GraphInput]:
    """K7 and K4,4 with their closed forms 2n-3 and a+b-1."""
    k44 = tuple((i, j) for i in range(1, 5) for j in range(5, 9))
    return [GraphInput("K7", 7, complete_edges(7), encode_graph6(7, complete_edges(7)), 11),
            GraphInput("K4,4", 8, k44, encode_graph6(8, k44), 7)]


def pruefer_tree(n: int, seq) -> tuple[tuple[int, int], ...]:
    if n == 1:
        return ()
    deg = [1] * (n + 1)
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return tuple(sorted(edges))


def trees() -> list[GraphInput]:
    """Every labeled tree on 1..7 vertices, from its Pruefer sequence."""
    out = []
    for n in range(1, TREES_MAX_N + 1):
        for seq in itertools.product(range(1, n + 1), repeat=max(n - 2, 0)):
            edges = pruefer_tree(n, seq)
            out.append(GraphInput(f"T{n}:{''.join(map(str, seq))}", n, edges,
                                  encode_graph6(n, edges)))
    if len(out) != TREES_SIZE:
        raise ValueError(f"{len(out)} trees, expected {TREES_SIZE}")
    return out
