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
        """Build from 1-based vertex pairs, validating simplicity. The vertex
        count and every endpoint must be an ``int`` (a ``bool`` is not)."""
        if type(n) is not int or n < 0:
            raise GraphFormatError(f"vertex count must be a nonnegative integer, got {n!r}")
        seen = set()
        for i, j in pairs:
            if type(i) is not int or type(j) is not int:
                raise GraphFormatError(f"edge ({i!r},{j!r}) has a non-integer endpoint")
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

    def masks(self) -> list[int]:
        """Neighbour bitmasks: bit w of ``masks()[v]`` is set when {v, w} is
        an edge (0-based). Built on each call, so a caller may change it."""
        nbr = [0] * self.n
        for u, v in self.edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        return nbr

    def index_of(self, v: int) -> int:
        """The 0-based index of the 1-based vertex v, which must be an
        ``int`` (a ``bool`` is not) in 1..n."""
        if type(v) is not int:
            raise GraphFormatError(f"vertex {v!r} is not an integer")
        if not 1 <= v <= self.n:
            raise GraphFormatError(f"vertex {v} outside 1..{self.n}")
        return v - 1

    def degree_of(self, v: int) -> int:
        """Degree of the 1-based vertex v."""
        return self.masks()[self.index_of(v)].bit_count()

    def neighbors_of(self, v: int) -> tuple[int, ...]:
        """Sorted 1-based neighbors of the 1-based vertex v."""
        nbr = self.masks()[self.index_of(v)]
        return tuple(w + 1 for w in range(self.n) if nbr >> w & 1)

    def __str__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edge_labels())})"


# ---------------------------------------------------------------------------
# graph6 (single-byte size field, n <= 62)
#
# The body is one integer of 6 bits a byte, the first byte on top. Its
# top n(n-1)/2 bits are the pairs (i, j), i < j, column by column: the
# pair is bit j(j-1)/2 + i, counting from 0 at the top. Zero bits pad
# the bottom.

# str.strip() with no argument also strips Unicode spaces and controls such
# as \x1c-\x1f, \x85 and \xa0, which graph6 does not allow
ASCII_SPACE = " \t\n\r\x0b\x0c"
_ASCII_BLANK_TO_SPACE = str.maketrans("\t\x0b\x0c", "   ")   # within one line


def ascii_lines(text: str) -> list[str]:
    """``text`` cut into lines at \\n, \\r\\n and \\r only: str.splitlines()
    would also cut at \\x1c-\\x1e, \\x85 and \\u2028."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line; errors name the offending byte offset. Only
    ASCII whitespace around the line is ignored."""
    s = line.strip(ASCII_SPACE).removeprefix(">>graph6<<")
    if not s:
        raise GraphFormatError("empty graph6 line")
    b0 = ord(s[0])
    if b0 == 126:
        raise GraphFormatError("byte 0: multi-byte size field (n > 62) unsupported")
    if not 63 <= b0 < 126:
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
    bits = 0
    for k, c in enumerate(s[1:], start=1):
        b = ord(c)
        if not 63 <= b <= 126:
            raise GraphFormatError(f"byte {k}: out-of-range character {c!r}")
        bits = bits << 6 | b - 63
    if bits & ((1 << (6 * nbytes - nbits)) - 1):
        raise GraphFormatError(f"byte {nbytes}: nonzero padding bits")
    top = 6 * nbytes - 1
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                          if bits >> (top - j * (j - 1) // 2 - i) & 1))


def encode_graph6(g: Graph) -> str:
    """Encode as graph6 (n <= 62). ``Graph(n, edges)`` checks nothing, so
    each edge is checked here: one out of order or out of range would
    set another pair's bit or a negative shift."""
    n = g.n
    if not 1 <= n <= 62:
        raise GraphFormatError("graph6 output supports 1 <= n <= 62")
    nbytes = (n * (n - 1) // 2 + 5) // 6
    top = 6 * nbytes - 1
    bits = 0
    for i, j in g.edges:
        if not 0 <= i < j < n:
            raise GraphFormatError(f"graph6 output: edge {(i, j)} is not "
                                   f"0 <= u < v < {n}")
        bits |= 1 << (top - j * (j - 1) // 2 - i)
    return chr(63 + n) + "".join(chr(63 + (bits >> 6 * k & 63))
                                   for k in range(nbytes - 1, -1, -1))


def parse_edge_list(text: str) -> Graph:
    """Parse "n\\ni j\\n..." with 1-based endpoints; '#' lines are comments.

    Lines end only at \\n, \\r\\n and \\r (``ascii_lines``), only ASCII
    whitespace surrounds and separates the fields, and a number is an
    optional sign followed by ASCII digits: str.split() and int() would
    also take Unicode spaces and \\x1c-\\x1f as separators, and '1_0' or
    Unicode digits as numbers. Errors name the line's number in ``text``,
    blank and comment lines counted.
    """
    lines = [(k, ln.strip(ASCII_SPACE)) for k, ln in enumerate(ascii_lines(text), start=1)]
    lines = [(k, ln) for k, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    k, head = lines[0]
    try:
        n = ascii_int(head)
    except ValueError:
        raise GraphFormatError(f"line {k}: expected vertex count, got {head!r}")
    pairs = []
    for k, ln in lines[1:]:
        parts = [p for p in ln.translate(_ASCII_BLANK_TO_SPACE).split(" ") if p]
        if len(parts) != 2:
            raise GraphFormatError(f"line {k}: expected 'i j', got {ln!r}")
        try:
            i, j = ascii_int(parts[0]), ascii_int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {k}: non-integer endpoint in {ln!r}")
        pairs.append((i, j))
    return Graph.from_edges(n, pairs)


def ascii_int(field: str) -> int:
    """``field`` as an int when it is an optional sign and ASCII digits, else
    ValueError: the number rule of edge lists and of the CLI's options."""
    digits = field[1:] if field[:1] in ("+", "-") else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {field!r}")
    return int(field)


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


def example() -> Graph:
    """The worked four-vertex example: a triangle 2-3-4 with a pendant edge 1-2."""
    return Graph.from_edges(4, [(1, 2), (2, 3), (2, 4), (3, 4)])


_FAMILIES = {   # name -> (constructor, number of parameters)
    "star": (star, 1),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "gapped": (gapped, 1),
}


def family(kind: str, *params) -> Graph:
    """The named family's graph; each parameter is a nonnegative int or a
    string of ASCII digits with ASCII blanks around it, or a
    GraphFormatError names the family."""
    if kind not in _FAMILIES:
        raise GraphFormatError(f"unknown family {kind!r}")
    make, arity = _FAMILIES[kind]
    if len(params) != arity:
        raise GraphFormatError(f"family {kind!r} takes {arity} parameter"
                               f"{'s' if arity > 1 else ''}, got {len(params)}")
    texts = [str(p).strip(ASCII_SPACE) for p in params]
    for p, text in zip(params, texts):
        if not (text.isascii() and text.isdigit()):
            raise GraphFormatError(f"family {kind!r}: parameter {p!r} "
                                   "is not a nonnegative integer")
    return make(*map(int, texts))


# ---------------------------------------------------------------------------
# invariants

def components(nbr) -> list[int]:
    """Vertex masks of the connected components that have an edge, of the
    graph whose 0-based neighbour bitmasks are ``nbr``, lowest vertex first."""
    left = 0
    for v, m in enumerate(nbr):
        if m:
            left |= 1 << v
    out = []
    while left:
        comp = frontier = left & -left
        while frontier:
            b = frontier & -frontier
            new = nbr[b.bit_length() - 1] & ~comp
            comp |= new
            frontier = (frontier ^ b) | new
        left ^= comp
        out.append(comp)
    return out


def degeneracy(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Repeated minimum-degree removal; ties go to the smallest vertex index.

    Returns the degeneracy (the max degree seen at removal time) together
    with the witnessing elimination order of 1-based vertices.
    """
    nbr = g.masks()
    alive = (1 << g.n) - 1
    order = []
    peak = 0
    while alive:
        d, v = min(((nbr[u] & alive).bit_count(), u)
                   for u in range(g.n) if alive >> u & 1)
        peak = max(peak, d)
        order.append(v + 1)
        alive ^= 1 << v
    return peak, tuple(order)


def max_degree(g: Graph) -> int:
    return max(g.degrees(), default=0)


def alpha(g: Graph) -> int:
    """Degree plus degeneracy minus one."""
    k, _ = degeneracy(g)
    return max_degree(g) + k - 1


def is_bipartite(g: Graph) -> bool:
    """No edge inside a breadth-first layer of any component: an odd cycle
    forces one, and without one the layers alternate two colours."""
    nbr = g.masks()
    for comp in components(nbr):
        seen = layer = comp & -comp
        while layer:
            reach, rest = 0, layer
            while rest:
                b = rest & -rest
                reach |= nbr[b.bit_length() - 1]
                rest ^= b
            if reach & layer:
                return False
            layer = reach & ~seen
            seen |= layer
    return True


def is_forest(g: Graph) -> bool:
    """A tree on k vertices has k - 1 edges, so a graph is a forest exactly
    when m = (non-isolated vertices) - (components with an edge)."""
    comps = components(g.masks())
    return g.m == sum(c.bit_count() for c in comps) - len(comps)


def is_cycle_graph(g: Graph) -> bool:
    """One cycle through every vertex: 2-regular on n >= 3 vertices and
    connected (disjoint cycles are 2-regular too)."""
    nbr = g.masks()
    return (g.n >= 3 and all(m.bit_count() == 2 for m in nbr)
            and len(components(nbr)) == 1)


# ---------------------------------------------------------------------------
# subgraphs

def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove 1-based vertex v; survivors are relabeled 1..n-1 in order."""
    i = g.index_of(v)
    return induced_subgraph(g, [u + 1 for u in range(g.n) if u != i])


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph on the given 1-based vertices, relabeled in sorted order."""
    rank = {u: i for i, u in enumerate(sorted({g.index_of(v) for v in vertices}))}
    edges = [(rank[u], rank[v]) for u, v in g.edges if u in rank and v in rank]
    return Graph(len(rank), tuple(sorted(edges)))


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
    It is the key half of ``canonical_labelling``, which explains the
    search."""
    return canonical_labelling(nbr)[0]


def canonical_labelling(nbr) -> tuple[tuple[int, ...], tuple[int, ...],
                                      tuple[tuple[int, ...], ...]]:
    """(key, order, generators) of the graph whose 0-based neighbour
    bitmasks are ``nbr``, ignoring isolated vertices.

    The key is the sorted tuple of the codes of the connected components
    (the edge-free graph has the empty key). Keyed one by one, k disjoint
    edges need k leaves; keyed as one graph, they would need 2^(k-1) k!.
    ``order`` lists the vertices that have an edge, component by
    component in the order of the key: renumbering them 0, 1, ... in
    that order turns each component into the graph its code encodes.
    ``generators`` are automorphisms, each the image list of all
    ``len(nbr)`` vertices with the isolated ones fixed; they generate the
    automorphism group of the graph without its isolated vertices.

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

    Orbit pruning (McKay and Piperno, "Practical graph isomorphism, II",
    J. Symbolic Comput. 2014) skips children without changing the code.
    Two leaves with equal codes give an automorphism, leaf order to leaf
    order; so does every permutation inside a cell of a leaf. At a node
    whose individualised vertices an automorphism g fixes, g maps the
    node to itself and the subtree of child b onto the subtree of child
    g(b), leaf to leaf with equal codes, because refinement and the leaf
    rule do not look at labels. So a child in the orbit of an explored
    sibling, under the automorphisms found so far that fix the node's
    individualised vertices, holds only codes the search has already
    seen, and the least code survives. The generators are the ones from
    the first leaf's cells and from every leaf whose code repeats an
    earlier one: a singleton cell keeps its place in the vertex order, so
    the map from the first leaf to a later one fixes the individualised
    vertices the two share and sends the first leaf's next vertex to the
    later one's. Each explored child of a node on the first path that the
    group could reach thus yields one such map, and with the first
    leaf's cell permutations they generate the group, as in McKay's
    "Practical graph isomorphism" (Congr. Numer. 1981). Isomorphic
    components add the swap of each one with the next.
    """
    parts = sorted(_component_labelling(nbr, comp) for comp in components(nbr))
    gens = [g for _, _, autos in parts for g in autos]
    for (code, src, _), (other, dst, _) in zip(parts, parts[1:]):
        if code == other:
            gens.append(_permutation(len(nbr), src + dst, dst + src))
    return (tuple(code for code, _, _ in parts),
            tuple(v for _, order, _ in parts for v in order),
            tuple(map(tuple, gens)))


def _component_labelling(nbr, comp: int) -> tuple[int, list[int], list[list[int]]]:
    """(least leaf code, the first leaf order with it, automorphisms found)
    of the component on the vertex mask ``comp``; see ``canonical_labelling``."""
    first: dict[int, list[int]] = {}      # leaf code -> first leaf order with it
    autos: list[list[int]] = []

    def visit(cells: list[int], fixed: list[int]):
        split = _split_cell(nbr, cells)
        if split is None:
            order = _leaf_order(cells)
            known = first.setdefault(_adjacency_code(nbr, order), order)
            if known is not order:
                autos.append(_permutation(len(nbr), known, order))
            elif len(first) == 1:
                for c in cells:
                    if c & (c - 1):      # a cycle and a transposition span Sym(c)
                        cell = _leaf_order([c])
                        autos.append(_permutation(len(nbr), cell, cell[1:] + cell[:1]))
                        if len(cell) > 2:
                            autos.append(_permutation(len(nbr), cell[:2], cell[1::-1]))
            return
        c = cells[split]
        head, tail = cells[:split], cells[split + 1:]
        done, fixing, seen = 0, [], 0    # explored children's orbit; its generators
        rest = c
        while rest:
            b = rest & -rest
            rest ^= b
            if seen < len(autos):
                fixing += [g for g in autos[seen:] if all(g[v] == v for v in fixed)]
                seen = len(autos)
            if fixing:
                done = orbit(done, fixing)
            if done & b:
                continue
            visit(_refine(nbr, head + [b, c ^ b] + tail, [b]), fixed + [b.bit_length() - 1])
            done |= b

    visit(_refine(nbr, [comp], [comp]), [])
    code = min(first)
    return code, first[code], autos


def image(mask: int, img) -> int:
    """The mask of the bits ``img[i]`` for the bits i of ``mask``."""
    out = 0
    while mask:
        i = mask.bit_length() - 1
        out |= 1 << img[i]
        mask ^= 1 << i
    return out


def orbit(mask: int, gens) -> int:
    """The union of the orbits of the bits of ``mask`` under the group that
    the image lists ``gens`` generate: vertex or edge orbits."""
    new = mask
    while new:
        img = 0
        for g in gens:
            img |= image(new, g)
        new = img & ~mask
        mask |= new
    return mask


def _permutation(n: int, src, dst) -> list[int]:
    """The image list on 0..n-1 sending src[i] to dst[i], else fixed."""
    img = list(range(n))
    for v, w in zip(src, dst):
        img[v] = w
    return img


def _refine(nbr, cells: list[int], new: list[int]) -> list[int]:
    """Split cells, in place in the order, by each vertex's neighbour count
    in every cell, until no cell splits (an equitable partition). Each
    cell's pieces are ordered by their tuples of counts.

    ``new`` lists cells of ``cells`` in partition order, when ``cells``
    was made from an equitable partition by splitting cells in place and
    ``new`` holds all but the last piece of each split, or else all of
    ``cells``. Within a cell the counts into an unsplit cell are equal,
    and so is the count into each split one as a whole, which fixes the
    count into its last piece. So a round compares only the counts into
    the cells in ``new``, one after the other, which splits a cell into
    the same pieces, in the same order, as the full tuples. A one-vertex
    cell splits by a mask: first the non-neighbours, then the neighbours.
    """
    while True:
        out, made = [], []
        for c in cells:
            if not c & (c - 1):
                out.append(c)
                continue
            pieces = [c]
            for d in new:
                if not d & (d - 1):
                    nb = nbr[d.bit_length() - 1]
                    pieces = [x for p in pieces for x in (p & ~nb, p & nb) if x]
                    continue
                split = []
                for p in pieces:
                    groups: dict[int, int] = {}
                    rest = p
                    while rest:
                        b = rest & -rest
                        k = (nbr[b.bit_length() - 1] & d).bit_count()
                        groups[k] = groups.get(k, 0) | b
                        rest ^= b
                    split += [groups[k] for k in sorted(groups)]
                pieces = split
            out += pieces
            made += pieces[:-1]
        if len(out) == len(cells):
            return out
        cells, new = out, made


def _split_cell(nbr, cells: list[int]) -> int | None:
    """Index of the first non-singleton cell, or None when the (equitable)
    partition is a leaf: each vertex of a cell c is joined to none or to
    all of the other vertices of every cell d, d = c included.

    In an equitable partition the edges between c and d number
    |c| times the count from c into d, and |d| times the count back, so
    the rule holds from c to d exactly when it holds from d to c, and a
    singleton meets it with every cell. Only pairs of larger cells, each
    pair once, need a look."""
    big = [c for c in cells if c & (c - 1)]
    for i, c in enumerate(big):
        b = c & -c
        nv = nbr[b.bit_length() - 1]
        for d in big[i:]:
            x = nv & d
            if x and x != d and x != d ^ b:
                return next(i for i, e in enumerate(cells) if e & (e - 1))
    return None


def _leaf_order(cells: list[int]) -> list[int]:
    """The vertices cell by cell, each cell in increasing order."""
    order = []
    for c in cells:
        while c:
            b = c & -c
            order.append(b.bit_length() - 1)
            c ^= b
    return order


def _adjacency_code(nbr, order: list[int]) -> int:
    k = len(order)
    code = 1
    for v in order:
        nv, row, bit = nbr[v], 0, 1
        for w in order:
            if nv >> w & 1:
                row |= bit
            bit <<= 1
        code = code << k | row
    return code
