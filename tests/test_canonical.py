"""graphs.canonical_form: equal keys exactly for isomorphic graphs.

The search's refutation memo is keyed on this form, so the proven lower
bound of every pmd is only as sound as the form is complete (never one
key for two classes) and invariant (never two keys for one class).
"""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.generators.atlas import graph_atlas_g

from lssrings import graphs
from lssrings.graphs import Graph, canonical_form, relabel


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
    (_nbr(10, [(a, b) for a in range(5) for b in range(5, 10)]), 10),
    (_nbr(7, [(a, b) for a in range(3) for b in range(3, 7)]), 1),
    (_nbr(12, [(2 * i, 2 * i + 1) for i in range(6)]), 6),
    ([0] * 10, 0),
    ([], 0),
], ids=["K10", "K5,5", "K3,4", "6K2", "empty", "null"])
def test_search_stays_small_on_symmetric_graphs(nbr, expected, monkeypatch):
    """Leaves visited. Without the all-or-nothing leaf, K10 would reach 10!
    of them. K5,5 refines to one cell of degree-5 vertices, which is not
    all-or-nothing; individualising any one vertex splits it into the two
    sides, a leaf. Six disjoint edges, keyed as one graph, would need
    12 * 10 * 8 * 6 * 4 leaves; keyed by component, they need one each."""
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
