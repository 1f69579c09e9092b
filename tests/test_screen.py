"""The solver's incremental alternating-walk screen against the batch kernel.

The solver grows each part one edge at a time and carries, per branch,
``reach[v]``: for a matched v the matched vertices reachable from v in
the alternating-walk digraph, for an unmatched v the union of
reach[mate y] over its matched neighbours y. Every verdict must equal
the batch test ``kernel.obstruction_free`` on the same host and part,
and the carried ``reach`` must equal the one computed from scratch.
"""

import importlib
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from lssrings import kernel, posmatch
from lssrings.graphs import Graph, complete, complete_bipartite
from lssrings.pmd import pmd

from conftest import refute

# lssrings.pmd is shadowed by the function of the same name on the package.
pmd_module = importlib.import_module("lssrings.pmd")


def _stage(g):
    s = pmd_module._Solver(g, 10 ** 9)
    return s._stage((1 << s.m) - 1)


def _batch_free(n, host, part):
    """kernel.obstruction_free on the host edges (index, u, v, ends) and a
    part given as a set of edge indices."""
    mate = [-1] * n
    for i, u, v, _ in host:
        if i in part:
            mate[u], mate[v] = v, u
    rest = [(u, v) for i, u, v, _ in host if i not in part]
    return kernel.obstruction_free(mate, [u for u, _ in rest], [v for _, v in rest])


def _scratch_reach(n, host, nbr, mate):
    """reach from scratch: DFS over the digraph with an arc x -> mate(y)
    per non-part host edge {x, y} with both ends matched; an unmatched v
    gets the union of reach[mate y] over its matched neighbours y."""
    succ = {v: set() for v in range(n) if mate[v] >= 0}
    for _, x, y, _ in host:
        if x in succ and y in succ and mate[x] != y:
            succ[x].add(mate[y])
            succ[y].add(mate[x])
    reach = [0] * n
    for v in succ:
        seen, todo = {v}, [v]
        while todo:
            for w in succ[todo.pop()] - seen:
                seen.add(w)
                todo.append(w)
        reach[v] = sum(1 << w for w in seen)
    for v in range(n):
        if mate[v] < 0:
            for y in succ:
                if nbr[v] >> y & 1:
                    reach[v] |= reach[mate[y]]
    return reach


def _step(g, host, nbr, state, edge):
    """Screen one edge against the carried state; check the verdict and, if
    the edge is admitted, the extended closure. Returns the new state or
    None."""
    part, used, mate, reach = state
    i, u, v, ends = edge
    closes = posmatch._closes_cycle(nbr, used, reach, u, v)
    assert (not closes) == _batch_free(g.n, host, part | {i}), (g.edges, part, i)
    if closes:
        return None
    reach = posmatch._extend(nbr, used, reach, u, v)
    used |= ends
    mate = mate[:]
    mate[u], mate[v] = v, u
    assert reach == _scratch_reach(g.n, host, nbr, mate), (g.edges, part, i)
    return part | {i}, used, mate, reach


def test_incremental_screen_matches_kernel_exhaustively(all_n5, connected_n6):
    """Every matching of every graph with n <= 5 and every connected graph
    with n = 6, built edge by edge in every order (index order included):
    each step's verdict equals the batch kernel's."""
    verdicts = []
    for g in all_n5 + [g for g in connected_n6 if g.n == 6]:
        host, nbr = _stage(g)

        def grow(state):
            for edge in host:
                if state[1] & edge[3]:
                    continue
                nxt = _step(g, host, nbr, state, edge)
                verdicts.append(nxt is not None)
                if nxt is not None:
                    grow(nxt)

        grow((frozenset(), 0, [-1] * g.n, [0] * g.n))
    assert len(verdicts) > 5000 and not all(verdicts)


def test_cycle_through_both_new_vertices():
    """Matched edges {1, 2} and {3, 4}, then {5, 6} with 5 joined to 1, 2
    and 6 joined to 3, 4: the only new cycle 5 -> 2 -> 6 -> 4 -> 5 runs
    through both new vertices, so neither one alone closes it."""
    g = Graph.from_edges(6, [(1, 2), (3, 4), (1, 5), (2, 5), (3, 6), (4, 6), (5, 6)])
    host, nbr = _stage(g)
    by_ends = {(e[1] + 1, e[2] + 1): e for e in host}
    state = (frozenset(), 0, [-1] * g.n, [0] * g.n)
    state = _step(g, host, nbr, state, by_ends[1, 2])
    state = _step(g, host, nbr, state, by_ends[3, 4])
    assert _step(g, host, nbr, state, by_ends[5, 6]) is None


@st.composite
def graph_and_order(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                          max_size=len(pairs)))
    order = draw(st.permutations(range(len(edges))))
    return Graph.from_edges(n, edges), order


@settings(max_examples=300, deadline=None)
@given(graph_and_order())
def test_incremental_screen_in_random_order(case):
    """Insert edges in a random order, skipping those that touch a matched
    vertex, until one closes a cycle: the carried closure always equals
    reachability from scratch and the verdicts agree with the batch kernel."""
    g, order = case
    host, nbr = _stage(g)
    state = (frozenset(), 0, [-1] * g.n, [0] * g.n)
    for k in order:
        if state[1] & host[k][3]:
            continue
        state = _step(g, host, nbr, state, host[k])
        if state is None:
            break


def test_search_node_counts_are_pinned():
    """The search is deterministic, so its node counts repeat exactly; here
    those of the refutations that prove pmd(K5) = 7, pmd(K6) = 9,
    pmd(K7) = 11 and pmd(K4,4) = 7. A refutation is memoized per isomorphism class of the residual graph, so
    a change to the screen, the enumeration or the canonical form that
    alters which nodes the search visits shows here."""
    assert refute(complete(5), 6) == (None, 17)
    assert refute(complete(6), 8) == (None, 60)
    assert refute(complete(7), 10) == (None, 223)
    assert refute(complete_bipartite(4, 4), 6) == (None, 22)


def test_search_results_are_pinned():
    """Value, status and nodes of larger solves, where the lower bound of a
    clique or a complete bipartite subgraph meets the greedy seed, so
    ``pmd()`` searches no node, and the nodes of the refutation that
    proves each value, where most keys come from the orbit-pruned search
    and the per-solve cache of keys by stage mask, and the search
    descends into one maximal part per automorphism orbit."""
    for g, value, nodes in [(complete(8), 13, 964), (complete(9), 15, 4896),
                            (complete(10), 17, 30819),
                            (complete_bipartite(5, 5), 9, 105),
                            (complete_bipartite(6, 6), 11, 884)]:
        r = pmd(g)
        assert (r.value, r.lower, r.status, r.nodes) == (value, value, "exact", 0)
        assert refute(g, value - 1) == (None, nodes)


def test_hypercube_q4_is_exact_within_the_node_target():
    """Q4 is 4-regular and bipartite with pmd 6; the search proves it in
    fewer than 30,000 nodes, ROADMAP item 5's target."""
    q4 = Graph.from_edges(16, [(v + 1, (v | 1 << k) + 1) for v in range(16)
                               for k in range(4) if not v >> k & 1])
    r = pmd(q4)
    assert (r.value, r.status) == (6, "exact")
    assert r.nodes < 30_000


def test_solver_never_calls_the_batch_kernel(connected_n6, monkeypatch):
    def no_kernel(*args, **kwargs):
        raise AssertionError("the solver reached the batch kernel")

    monkeypatch.setattr(kernel, "obstruction_free", no_kernel)
    for g in connected_n6:
        assert pmd(g).status == "exact"
