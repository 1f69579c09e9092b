"""graphs.canonical_form: equal keys exactly for isomorphic graphs.

The search's refutation memo is keyed on this form, so the proven lower
bound of every pmd is only as sound as the form is complete (never one
key for two classes) and invariant (never two keys for one class).
The search prunes by automorphisms; the unpruned search below is the
reference its keys must equal, and canonical_labelling's order and
generators are checked against the graph and against networkx.
"""

import importlib
import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher
from networkx.generators.atlas import graph_atlas_g

from lssrings import graphs
from lssrings.graphs import (Graph, canonical_form, canonical_labelling, complete,
                             complete_bipartite, components, relabel)

# lssrings.pmd is shadowed by the function of the same name on the package.
pmd_module = importlib.import_module("lssrings.pmd")


# The unpruned search, kept verbatim as the reference: every leaf of the
# individualisation tree is visited and the least adjacency code wins.

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


def reference_form(nbr) -> tuple[int, ...]:
    return tuple(sorted(_component_code(nbr, comp) for comp in components(nbr)))


def _nbr(n, edges, perm=None):
    """Neighbour bitmasks on n vertices of 0-based edges, vertex v moved to perm[v]."""
    g = Graph.from_edges(n, [(u + 1, v + 1) for u, v in edges])
    if perm is not None:
        g = relabel(g, {v + 1: p + 1 for v, p in enumerate(perm)})
    return g.masks()


def _atlas_without_isolated():
    """(n, 0-based edges) of every atlas class with no isolated vertex: the
    graphs on at most 7 vertices, the null graph included."""
    out = []
    for gg in graph_atlas_g():
        if all(d for _, d in gg.degree()):
            out.append((gg.number_of_nodes(), list(gg.edges())))
    return out


def test_atlas_classes_get_distinct_relabel_invariant_keys():
    """Each class is relabelled n times, by a random permutation followed by
    each rotation of the labels, so every vertex is once the one that the
    search individualises first."""
    classes = _atlas_without_isolated()
    assert len(classes) == 1044
    rng = random.Random(7)
    keys = set()
    for n, edges in classes:
        key = canonical_form(_nbr(n, edges))
        keys.add(key)
        base = rng.sample(range(n), n)
        for r in range(n):
            perm = [(p + r) % n for p in base]
            assert canonical_form(_nbr(n, edges, perm)) == key, (n, edges, perm)
    assert len(keys) == 1044


def test_isolated_vertices_leave_the_key_unchanged():
    rng = random.Random(11)
    for n, edges in _atlas_without_isolated()[::7]:
        key = canonical_form(_nbr(n, edges))
        assert canonical_form(_nbr(n, edges) + [0, 0]) == key
        big = n + 3                       # scatter the graph among 3 isolated vertices
        perm = rng.sample(range(big), n)
        assert canonical_form(_nbr(big, edges, perm)) == key
    assert canonical_form([]) == canonical_form([0, 0, 0])


@pytest.mark.parametrize("nbr, expected", [
    (_nbr(10, itertools.combinations(range(10), 2)), 1),
    (_nbr(10, [(a, b) for a in range(5) for b in range(5, 10)]), 3),
    (_nbr(7, [(a, b) for a in range(3) for b in range(3, 7)]), 1),
    (_nbr(12, [(2 * i, 2 * i + 1) for i in range(6)]), 6),
    (_nbr(12, [(a, 6 + b) for a in range(6) for b in range(6) if a != b]), 17),
    (_nbr(13, [(0, i) for i in range(1, 7)] + [(i, i + 6) for i in range(1, 7)]), 16),
    ([0] * 10, 0),
    ([], 0),
], ids=["K10", "K5,5", "K3,4", "6K2", "crown K6,6-6K2", "spider", "empty", "null"])
def test_search_stays_small_on_symmetric_graphs(nbr, expected, monkeypatch):
    """Leaves visited. Without the all-or-nothing leaf, K10 would reach 10!
    of them. K5,5 refines to one cell of degree-5 vertices, which is not
    all-or-nothing; individualising any one vertex splits it into the two
    sides, a leaf. Orbit pruning visits three of those ten: the first
    leaf's cells give every permutation that fixes the first vertex, the
    second leaf moves it within its side and the third across. Six
    disjoint edges, keyed as one graph, would need 12 * 10 * 8 * 6 * 4
    leaves; keyed by component, they need one each. Without orbit pruning
    the crown graph K6,6 minus a perfect matching takes 1,440 leaves and
    the spider with six legs of length 2 takes 720."""
    leaves = []
    code = graphs._adjacency_code
    monkeypatch.setattr(graphs, "_adjacency_code",
                        lambda *a: leaves.append(1) or code(*a))
    canonical_form(nbr)
    assert len(leaves) == expected


@st.composite
def graphs_up_to_9(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return n, []
    return n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))


@settings(max_examples=300, deadline=None)
@given(graphs_up_to_9(), st.randoms(use_true_random=False))
def test_relabelled_copy_gets_the_same_key(case, rnd):
    n, edges = case
    perm = list(range(n))
    rnd.shuffle(perm)
    assert canonical_form(_nbr(n, edges, perm)) == canonical_form(_nbr(n, edges))


@settings(max_examples=300, deadline=None)
@given(graphs_up_to_9(), st.randoms(use_true_random=False))
def test_keys_agree_with_networkx_on_equal_degree_sequences(case, rnd):
    """A second graph with the same degree sequence, from random double edge
    swaps ab, cd -> ad, cb: keys are equal exactly when networkx finds the
    two graphs isomorphic."""
    n, edges = case
    other = set(edges)
    for _ in range(rnd.randrange(1, 5)):
        if len(other) < 2:
            break
        (a, b), (c, d) = rnd.sample(sorted(other), 2)
        new = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
        if len({a, b, c, d}) == 4 and not new & other:
            other -= {(a, b), (c, d)}
            other |= new
    g, h = nx.Graph(), nx.Graph()
    g.add_nodes_from(range(n))
    h.add_nodes_from(range(n))
    g.add_edges_from(edges)
    h.add_edges_from(other)
    assert sorted(d for _, d in g.degree()) == sorted(d for _, d in h.degree())
    same = canonical_form(_nbr(n, edges)) == canonical_form(_nbr(n, sorted(other)))
    assert same == nx.is_isomorphic(g, h)


def _atlas_masks(max_n):
    return [_nbr(gg.number_of_nodes(), gg.edges()) for gg in graph_atlas_g()
            if gg.number_of_nodes() <= max_n]


def test_keys_equal_the_unpruned_search_on_the_atlas():
    """Every atlas graph on at most 7 vertices, isolated vertices included."""
    masks = _atlas_masks(7)
    assert len(masks) == 1253
    for nbr in masks:
        assert canonical_form(nbr) == reference_form(nbr), nbr


@settings(max_examples=300, deadline=None)
@given(graphs_up_to_9(), st.randoms(use_true_random=False))
def test_keys_equal_the_unpruned_search_on_random_graphs(case, rnd):
    n, edges = case
    perm = list(range(n))
    rnd.shuffle(perm)
    nbr = _nbr(n, edges, perm)
    assert canonical_form(nbr) == reference_form(nbr)


@pytest.mark.parametrize("g, q", [(complete(7), 10), (complete_bipartite(4, 4), 6),
                                  (complete_bipartite(6, 6), 10)],
                         ids=["K7", "K4,4", "K6,6"])
def test_keys_equal_the_unpruned_search_on_solver_stages(g, q, monkeypatch):
    """Every stage graph that the refutation proving pmd(g) = q + 1 keys,
    and the refutation itself unchanged."""
    seen = []
    keyed = pmd_module.canonical_labelling
    monkeypatch.setattr(pmd_module, "canonical_labelling",
                        lambda nbr: seen.append(list(nbr)) or keyed(nbr))
    s = pmd_module._Solver(g, 10 ** 6)
    assert s.decide((1 << s.m) - 1, q) is None
    assert seen
    for nbr in seen:
        assert canonical_form(nbr) == reference_form(nbr), nbr


def _check_labelling(nbr):
    """The order renumbers each component onto its code, and every
    generator is an automorphism that fixes the isolated vertices."""
    key, order, gens = canonical_labelling(nbr)
    assert key == canonical_form(nbr)
    assert sorted(order) == [v for v in range(len(nbr)) if nbr[v]]
    at = 0
    for code in key:
        k = math.isqrt(code.bit_length() - 1)
        assert k * k == code.bit_length() - 1
        assert _adjacency_code(nbr, [1 << v for v in order[at:at + k]]) == code
        at += k
    assert at == len(order)
    for g in gens:
        assert sorted(g) == list(range(len(nbr)))
        assert all(g[v] == v for v in range(len(nbr)) if not nbr[v])
        for v in range(len(nbr)):
            assert sum(1 << g[w] for w in range(len(nbr)) if nbr[v] >> w & 1) == nbr[g[v]]
    return gens


def test_labelling_order_and_generators_on_the_atlas():
    rng = random.Random(3)
    for nbr in _atlas_masks(7):
        n = len(nbr)
        _check_labelling(nbr)
        perm = rng.sample(range(n + 2), n)    # relabelled, among two isolated vertices
        moved = [0] * (n + 2)
        for v, m in enumerate(nbr):
            moved[perm[v]] = sum(1 << perm[w] for w in range(n) if m >> w & 1)
        _check_labelling(moved)


@settings(max_examples=200, deadline=None)
@given(graphs_up_to_9())
def test_labelling_order_and_generators_on_random_graphs(case):
    _check_labelling(_nbr(*case))


def _orbits(n, gens):
    orbit = list(range(n))

    def root(v):
        while orbit[v] != v:
            v = orbit[v]
        return v

    for g in gens:
        for v in range(n):
            orbit[root(v)] = root(g[v])
    return {frozenset(w for w in range(n) if root(w) == root(v)) for v in range(n)}


def test_generator_orbits_match_networkx_on_the_atlas():
    """The generators reach every automorphism's orbit: on the vertices
    with an edge, their orbits are those of all of GraphMatcher(g, g)'s
    automorphisms."""
    for gg in graph_atlas_g():
        n = gg.number_of_nodes()
        if n > 6:
            break
        nbr = _nbr(n, gg.edges())
        _, _, gens = canonical_labelling(nbr)
        images = {v: set() for v in range(n)}
        for iso in GraphMatcher(gg, gg).isomorphisms_iter():
            for v, w in iso.items():
                images[v].add(w)
        expected = {frozenset(images[v]) for v in range(n) if nbr[v]}
        assert {o for o in _orbits(n, gens) if nbr[min(o)]} == expected, list(gg.edges())


def test_solver_edge_orbits_match_networkx_on_the_atlas():
    """The edge orbits the solver gets from the generators, through its
    edge image lists and graphs.orbit, are those of all of
    GraphMatcher(g, g)'s automorphisms."""
    for gg in graph_atlas_g():
        n = gg.number_of_nodes()
        if n > 6:
            break
        g = Graph.from_edges(n, [(u + 1, v + 1) for u, v in gg.edges()])
        s = pmd_module._Solver(g, 1)
        full = (1 << s.m) - 1
        host, nbr = s._stage(full)
        _, _, gens = canonical_labelling(nbr)
        images = s._edge_images(host, gens, full)
        got = {graphs.orbit(1 << i, images) for i in range(s.m)}
        index = {e: i for i, e in enumerate(g.edges)}
        isos = list(GraphMatcher(gg, gg).isomorphisms_iter())
        expected = {sum({1 << index[tuple(sorted((iso[u], iso[v])))] for iso in isos})
                    for u, v in g.edges}
        assert got == expected, list(gg.edges())
