"""Simple undirected graphs, corpus formats, families, and degree invariants.

Vertices are stored 0-based internally; every external surface (parsers,
printed output, vertex-valued arguments and results) speaks the 1-based
labels 1..n. Graph values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass


class GraphFormatError(ValueError):
    """Malformed graph input; carries the byte/line position when known."""


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple graph on vertices 0..n-1 with a sorted tuple of edges (u < v)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        """Build from 1-based vertex pairs, validating simplicity."""
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        seen = set()
        for i, j in pairs:
            if i == j:
                raise GraphFormatError(f"self-loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise GraphFormatError(f"edge ({i},{j}) outside 1..{n}")
            e = (min(i, j) - 1, max(i, j) - 1)
            if e in seen:
                raise GraphFormatError(f"duplicate edge ({i},{j})")
            seen.add(e)
        return Graph(n, tuple(sorted(seen)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_labels(self) -> tuple[tuple[int, int], ...]:
        """Edges as 1-based pairs."""
        return tuple((u + 1, v + 1) for u, v in self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def degree_of(self, v: int) -> int:
        """Degree of the 1-based vertex v."""
        if not 1 <= v <= self.n:
            raise GraphFormatError(f"vertex {v} outside 1..{self.n}")
        return self.degrees()[v - 1]

    def neighbors_of(self, v: int) -> tuple[int, ...]:
        """Sorted 1-based neighbors of the 1-based vertex v."""
        if not 1 <= v <= self.n:
            raise GraphFormatError(f"vertex {v} outside 1..{self.n}")
        w = v - 1
        out = [b + 1 if a == w else a + 1 for a, b in self.edges if w in (a, b)]
        return tuple(sorted(out))

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def __str__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edge_labels())})"


# ---------------------------------------------------------------------------
# graph6 (single-byte size field, n <= 62)

_G6_MIN, _G6_MAX = 63, 126


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line; errors name the offending byte offset."""
    s = line.strip().removeprefix(">>graph6<<")
    if not s:
        raise GraphFormatError("empty graph6 line")
    b0 = ord(s[0])
    if b0 == 126:
        raise GraphFormatError("byte 0: multi-byte size field (n > 62) unsupported")
    if not _G6_MIN <= b0 < 126:
        raise GraphFormatError(f"byte 0: out-of-range character {s[0]!r}")
    n = b0 - 63
    if n < 1:
        raise GraphFormatError("byte 0: vertex count must be at least 1")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) < 1 + nbytes:
        raise GraphFormatError(f"byte {len(s)}: truncated, need {1 + nbytes} bytes")
    if len(s) > 1 + nbytes:
        raise GraphFormatError(f"byte {1 + nbytes}: trailing garbage")
    bits = []
    for k in range(nbytes):
        b = ord(s[1 + k])
        if not _G6_MIN <= b <= _G6_MAX:
            raise GraphFormatError(f"byte {1 + k}: out-of-range character {s[1 + k]!r}")
        val = b - 63
        bits.extend((val >> (5 - t)) & 1 for t in range(6))
    pad = bits[nbits:]
    if any(pad):
        raise GraphFormatError(f"byte {nbytes}: nonzero padding bits")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, tuple(sorted(edges)))


def encode_graph6(g: Graph) -> str:
    """Encode as graph6 (n <= 62)."""
    if not 1 <= g.n <= 62:
        raise GraphFormatError("graph6 output supports 1 <= n <= 62")
    eset = set(g.edges)
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if (i, j) in eset else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + g.n)]
    for k in range(0, len(bits), 6):
        val = 0
        for t in range(6):
            val = (val << 1) | bits[k + t]
        out.append(chr(63 + val))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    """Parse "n\\ni j\\n..." with 1-based endpoints; '#' lines are comments."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphFormatError(f"line 1: expected vertex count, got {lines[0]!r}")
    pairs = []
    for k, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {k}: expected 'i j', got {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {k}: non-integer endpoint in {ln!r}")
        pairs.append((i, j))
    try:
        return Graph.from_edges(n, pairs)
    except GraphFormatError as exc:
        raise GraphFormatError(str(exc))


# ---------------------------------------------------------------------------
# families

def star(leaves: int) -> Graph:
    """Star with the center as the last vertex (label leaves+1)."""
    n = leaves + 1
    return Graph.from_edges(n, [(i, n) for i in range(1, n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphFormatError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


def gapped(n: int) -> Graph:
    """K_n with n-2 pendant edges glued to vertex 1 (vertices n+1..2n-2)."""
    if n < 3:
        raise GraphFormatError("gapped family needs n >= 3")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pairs += [(1, n + t) for t in range(1, n - 1)]
    return Graph.from_edges(2 * n - 2, pairs)


_FAMILIES = {   # name -> (constructor, number of parameters)
    "star": (star, 1),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "gapped": (gapped, 1),
}


def family(kind: str, *params) -> Graph:
    if kind not in _FAMILIES:
        raise GraphFormatError(f"unknown family {kind!r}")
    make, arity = _FAMILIES[kind]
    if len(params) != arity:
        raise GraphFormatError(f"family {kind!r} takes {arity} parameter"
                               f"{'s' if arity > 1 else ''}, got {len(params)}")
    return make(*map(int, params))


# ---------------------------------------------------------------------------
# invariants

@dataclass(frozen=True)
class EliminationOrder:
    """Removal order (1-based) and the max degree seen at removal time."""

    order: tuple[int, ...]
    peak: int


def degeneracy(g: Graph) -> tuple[int, EliminationOrder]:
    """Repeated minimum-degree removal; ties go to the smallest vertex index.

    Returns the degeneracy together with the witnessing elimination order.
    """
    adj = g.adjacency()
    alive = set(range(g.n))
    deg = {v: len(adj[v]) for v in alive}
    order = []
    peak = 0
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        peak = max(peak, deg[v])
        order.append(v + 1)
        alive.remove(v)
        for w in adj[v]:
            if w in alive:
                deg[w] -= 1
    return peak, EliminationOrder(tuple(order), peak)


def max_degree(g: Graph) -> int:
    return max(g.degrees(), default=0)


def alpha(g: Graph) -> int:
    """Degree plus degeneracy minus one."""
    k, _ = degeneracy(g)
    return max_degree(g) + k - 1


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    adj = g.adjacency()
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def is_forest(g: Graph) -> bool:
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def is_cycle_graph(g: Graph) -> bool:
    return g.n >= 3 and g.m == g.n and all(d == 2 for d in g.degrees()) and not is_forest(g)


# ---------------------------------------------------------------------------
# subgraphs

def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove 1-based vertex v; survivors are relabeled 1..n-1 in order."""
    if not 1 <= v <= g.n:
        raise GraphFormatError(f"vertex {v} outside 1..{g.n}")
    keep = [u for u in range(g.n) if u != v - 1]
    return induced_subgraph(g, [u + 1 for u in keep])


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph on the given 1-based vertices, relabeled in sorted order."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 1 <= v <= g.n:
            raise GraphFormatError(f"vertex {v} outside 1..{g.n}")
    rank = {v - 1: i for i, v in enumerate(vs)}
    edges = [(rank[u], rank[v]) for u, v in g.edges if u in rank and v in rank]
    return Graph(len(vs), tuple(sorted(edges)))


def relabel(g: Graph, perm: dict[int, int]) -> Graph:
    """Apply a 1-based vertex permutation {old: new}."""
    pairs = [(perm[u + 1], perm[v + 1]) for u, v in g.edges]
    return Graph.from_edges(g.n, pairs)


# ---------------------------------------------------------------------------
# canonical form

def canonical_form(nbr) -> tuple[int, ...]:
    """Isomorphism key of the graph whose 0-based neighbour bitmasks are
    ``nbr``, ignoring isolated vertices: two graphs get equal keys exactly
    when they are isomorphic once their isolated vertices are dropped.

    The key is the sorted tuple of the codes of the connected components
    (the edge-free graph has the empty key). Keyed one by one, k disjoint
    edges need k leaves; keyed as one graph, they would need 2^(k-1) k!.

    The code of a component is the least adjacency code over the leaves of
    a search tree. The root is the colour refinement of its vertices; a
    node branches by individualising each vertex of its first non-singleton
    cell and refining again. Refinement orders the cells by a label-free
    rule, so the set of leaf codes, and so its least element, is an
    invariant. A partition whose cells are pairwise all-or-nothing
    (vertex-by-vertex within a cell too) is a leaf: every vertex order that
    keeps the cells in place gives the same code, so individualising
    further would change nothing. This makes K_n and K_{a,b} with a != b
    one leaf each.

    The code of a vertex order v_1..v_k is the integer with a leading 1 bit
    followed by row i of the reordered adjacency matrix for i = 1..k, so
    its bit length fixes k.
    """
    left = 0
    for v, m in enumerate(nbr):
        if m:
            left |= 1 << v
    codes = []
    while left:
        comp = frontier = left & -left
        while frontier:
            b = frontier & -frontier
            new = nbr[b.bit_length() - 1] & ~comp
            comp |= new
            frontier = (frontier ^ b) | new
        left ^= comp
        codes.append(_component_code(nbr, comp))
    return tuple(sorted(codes))


def _component_code(nbr, comp: int) -> int:
    best = None
    stack = [_refine(nbr, [comp])]
    while stack:
        cells = stack.pop()
        split = _split_cell(nbr, cells)
        if split is None:
            code = _adjacency_code(nbr, cells)
            if best is None or code < best:
                best = code
            continue
        c = cells[split]
        rest = c
        while rest:
            b = rest & -rest
            stack.append(_refine(nbr, cells[:split] + [b, c ^ b] + cells[split + 1:]))
            rest ^= b
    return best


def _refine(nbr, cells: list[int]) -> list[int]:
    """Split cells, in place in the order, by each vertex's neighbour count
    in every cell, until no cell splits (an equitable partition)."""
    while True:
        out = []
        for c in cells:
            if not c & (c - 1):
                out.append(c)
                continue
            groups: dict[tuple[int, ...], int] = {}
            rest = c
            while rest:
                b = rest & -rest
                sig = tuple((nbr[b.bit_length() - 1] & d).bit_count() for d in cells)
                groups[sig] = groups.get(sig, 0) | b
                rest ^= b
            out.extend(groups[sig] for sig in sorted(groups))
        if len(out) == len(cells):
            return out
        cells = out


def _split_cell(nbr, cells: list[int]) -> int | None:
    """Index of the first non-singleton cell, or None when the (equitable)
    partition is a leaf: each vertex of a cell c is joined to none or to
    all of the other vertices of every cell d, d = c included."""
    for c in cells:
        v = (c & -c).bit_length() - 1
        for d in cells:
            k = (nbr[v] & d).bit_count()
            if k and k != d.bit_count() - (c == d):
                return next(i for i, e in enumerate(cells) if e & (e - 1))
    return None


def _adjacency_code(nbr, cells: list[int]) -> int:
    order = []
    for c in cells:
        while c:
            b = c & -c
            order.append(b.bit_length() - 1)
            c ^= b
    pos = {v: i for i, v in enumerate(order)}
    k = len(order)
    code = 1
    for v in order:
        row = 0
        for w in order:
            if nbr[v] >> w & 1:
                row |= 1 << pos[w]
        code = code << k | row
    return code
