"""Solver, greedy bound, brute-force oracle, and decomposition checking."""

import ast
import copy
import importlib
import itertools
import pickle
import random
import re
from pathlib import Path

import pytest

from lssrings.graphs import (Graph, complete, complete_bipartite, cycle, delete_vertex,
                             is_forest, max_degree, parse_edge_list, path, star,
                             is_bipartite)
from lssrings.pmd import (PmdDecomposition, _Solver, greedy_upper_bound, pmd,
                          pmd_bruteforce, verify_decomposition)
from lssrings.posmatch import WeightCertificate

from conftest import refute

# lssrings.pmd is shadowed by the function of the same name on the package.
pmd_module = importlib.import_module("lssrings.pmd")

EXAMPLE = parse_edge_list("4\n1 2\n2 3\n2 4\n3 4")

# Graphs whose clique and complete bipartite bound (3, 4 and 5) lies below
# pmd (4, 6 and 8), so pmd() searches: Petersen, the 4-cube and the crown
# K6,6 - 6K2.
PETERSEN = Graph.from_edges(10, [(i, i % 5 + 1) for i in range(1, 6)]
                            + [(i, i + 5) for i in range(1, 6)]
                            + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)])
Q4 = Graph.from_edges(16, [(v + 1, (v | 1 << k) + 1) for v in range(16)
                           for k in range(4) if not v >> k & 1])


def _crown(k):
    """K_{k,k} minus a perfect matching."""
    return Graph.from_edges(2 * k, [(i, k + j) for i in range(1, k + 1)
                                    for j in range(1, k + 1) if i != j])


CROWN_5, CROWN_6 = _crown(5), _crown(6)


def test_example_graph_value_and_parts():
    res = pmd(EXAMPLE)
    assert res.value == 3 and res.status == "exact"
    assert res.decomposition.parts == (((1, 2), (3, 4)), ((2, 3),), ((2, 4),))
    assert verify_decomposition(EXAMPLE, res.decomposition)


def test_forest_equality():
    assert pmd(star(5)).value == 5
    assert pmd(path(6)).value == 2
    for g in (star(5), path(6), path(2), Graph.from_edges(8, [(2, 4), (4, 6), (4, 7), (1, 8)])):
        res = pmd(g)                       # the forest seed leaves nothing to search
        assert (res.status, res.value, res.nodes) == ("exact", max_degree(g), 0)
        assert verify_decomposition(g, res.decomposition)


def test_k4_matches_bruteforce_oracle():
    oracle = pmd_bruteforce(complete(4))
    assert oracle == 5                     # min{2n-3, |E|} is attained
    assert pmd(complete(4)).value == oracle


def test_small_oracle_values():
    assert pmd_bruteforce(complete(3)) == 3
    assert pmd_bruteforce(path(4)) == 2
    assert pmd_bruteforce(cycle(4)) == 3
    assert pmd(cycle(4)).value == 3


def test_bruteforce_guard():
    with pytest.raises(ValueError, match="at most 10"):
        pmd_bruteforce(complete(6))


def test_greedy_reproduces_worked_figure():
    dec = greedy_upper_bound(EXAMPLE)
    assert dec.parts == (((1, 2), (3, 4)), ((2, 3),), ((2, 4),))
    assert verify_decomposition(EXAMPLE, dec)
    assert len(greedy_upper_bound(parse_edge_list("2\n1 2"))) == 1
    assert len(greedy_upper_bound(parse_edge_list("3\n1 2"))) == 1
    assert greedy_upper_bound(parse_edge_list("1")).parts == ()


def test_greedy_length_upper_bounds_pmd(connected_n6):
    rng = random.Random(5)
    for g in rng.sample(connected_n6, 25):
        assert len(greedy_upper_bound(g)) >= pmd(g).value


def test_verify_decomposition_of_paper_figure_weights():
    dec = PmdDecomposition(
        parts=(((1, 2), (3, 4)), ((2, 3),), ((2, 4),)),
        certificates=(
            WeightCertificate.from_map({1: 3, 2: -2, 3: 1, 4: 1}),
            WeightCertificate.from_map({1: 0, 2: 0, 3: 1, 4: -1}),
            WeightCertificate.from_map({1: 0, 2: 0, 3: 0, 4: 1}),
        ))
    assert verify_decomposition(EXAMPLE, dec)
    # stage order matters: moving the last part first invalidates the
    # stored certificates (stage hosts change)
    swapped = PmdDecomposition(
        parts=(dec.parts[2], dec.parts[0], dec.parts[1]),
        certificates=(dec.certificates[2], dec.certificates[0], dec.certificates[1]))
    assert not verify_decomposition(EXAMPLE, swapped)


def test_verify_decomposition_rejects_non_matching():
    dec = PmdDecomposition(
        parts=(((1, 2), (2, 3)), ((2, 4),), ((3, 4),)),
        certificates=(WeightCertificate.from_map({1: 1, 2: 1, 3: 1, 4: -9}),) * 3)
    assert not verify_decomposition(EXAMPLE, dec)


def test_budget_exhaustion_degrades_to_upper_bound():
    res = pmd(PETERSEN, node_budget=3)
    assert res.status == "upper_bound_only"
    assert res.value >= 4                  # never better than the optimum
    assert res.lower == 3                  # stopped while deciding q = 3
    assert verify_decomposition(PETERSEN, res.decomposition)


@pytest.mark.parametrize("g", [Graph(0, ()), Graph(5, ())], ids=["n0", "n5"])
def test_edgeless_graph_takes_the_one_path(g):
    res = pmd(g)
    assert (res.value, res.status, res.nodes) == (0, "exact", 0)
    assert res.decomposition == PmdDecomposition((), ())
    assert greedy_upper_bound(g) == PmdDecomposition((), ())


def test_decide_returns_the_parts_of_a_split(connected_n6):
    """decide refutes pmd - 1 parts and, at pmd, returns edge masks that
    partition the edges and certify into a valid decomposition."""
    for g in connected_n6:
        if not g.m:
            continue
        value = pmd(g).value
        s = _Solver(g, 10 ** 6)
        full = (1 << s.m) - 1
        assert s.decide(full, value - 1) is None
        parts = s.decide(full, value)
        assert len(parts) == value
        covered = 0
        for pm in parts:
            assert pm and not pm & covered
            covered |= pm
        assert covered == full
        assert verify_decomposition(g, s.certify(parts))


@pytest.mark.parametrize("budget", [1, 50])
def test_budget_stop_keeps_the_greedy_seed(budget):
    g = Q4
    res = pmd(g, node_budget=budget)
    assert (res.status, res.lower) == ("upper_bound_only", 4)
    assert res.value == len(greedy_upper_bound(g))
    assert res.decomposition == greedy_upper_bound(g)


def test_results_do_not_depend_on_the_clock():
    """The node budget is the only stop, and ``pmd.py`` imports no clock:
    value, bound, status and node count are pinned, and a second solve of
    the same graph gives an equal result."""
    tree = ast.parse(Path(pmd_module.__file__).read_text(encoding="utf-8"))
    imported = {a.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for a in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not imported & {"time", "datetime"}, imported
    cases = [(complete(7), None, (11, 11, "exact", 0)),
             (PETERSEN, None, (4, 4, "exact", 126)),
             (Q4, 5000, (7, 5, "upper_bound_only", 5001))]
    for g, nb, pin in cases:
        res = pmd(g, node_budget=nb)
        assert (res.value, res.lower, res.status, res.nodes) == pin
        assert pmd(g, node_budget=nb) == res


def _count_labellings(monkeypatch, generators=True):
    """Count the solver's labelling calls; with ``generators`` False the
    solver sees no automorphisms, so orbit branching is off."""
    calls = []
    labelling = pmd_module.canonical_labelling

    def counted(nbr):
        calls.append(1)
        key, order, gens = labelling(nbr)
        return key, order, gens if generators else ()

    monkeypatch.setattr(pmd_module, "canonical_labelling", counted)
    return calls


def test_orbit_branching_changes_only_time(connected_n6, monkeypatch):
    """Descending into one maximal part per orbit of parts, within each
    edge orbit's run, leaves value, bound, status, nodes, parts and
    certificates as they are with every part descended into, a
    budget-stopped solve included, and leaves the refutations that prove
    the values of K7, K4,4, K5,5 and K6,6 with the same nodes."""
    solves = [(g, None) for g in (*connected_n6, PETERSEN)] + [(CROWN_6, 20_000)]
    refutations = [(complete(7), 10), (complete_bipartite(4, 4), 6),
                   (complete_bipartite(5, 5), 8), (complete_bipartite(6, 6), 10)]

    def run():
        out = [(r.value, r.lower, r.status, r.nodes, r.decomposition.parts,
                r.decomposition.certificates)
               for r in (pmd(g, node_budget=nb) for g, nb in solves)]
        return out + [refute(g, q) for g, q in refutations]

    branched = run()
    assert branched[len(solves) - 1][1:3] == (8, "upper_bound_only")
    assert [nodes for _, nodes in branched[len(solves):]] == [223, 22, 105, 884]
    monkeypatch.setattr(_Solver, "_orbit", staticmethod(lambda pm, gens: {pm}))
    assert run() == branched


def test_edge_orbits_and_forced_cover_change_no_value(connected_n6, monkeypatch):
    """Value and status are the same with the automorphism generators
    removed (every edge its own orbit: the whole-stage enumeration) and
    with the forced-cover cut off, and every decomposition passes the
    check. ``pmd()`` settles K5-K9 and K_{a,b} with a + b <= 10 by the
    subgraph bound, so for these ``decide`` runs under each setting too:
    it refutes value - 1 parts and finds a split into value parts."""
    graphs = [*connected_n6, PETERSEN, CROWN_5]
    settled = [*map(complete, range(5, 10))]
    settled += [complete_bipartite(a, b) for a in range(1, 6) for b in range(a, 11 - a)]

    def solve_all():
        out = []
        for g in graphs + settled:
            r = pmd(g)
            assert verify_decomposition(g, r.decomposition), g
            out.append((r.value, r.status))
        decided = [(refute(g, value - 1)[0], refute(g, value)[0] is not None)
                   for g, (value, _) in zip(settled, out[len(graphs):])]
        return out, decided

    pruned = solve_all()
    assert all(status == "exact" for _, status in pruned[0])
    assert pruned[1] == [(None, True)] * len(settled)
    maximal_parts = _Solver._maximal_parts
    monkeypatch.setattr(_Solver, "_maximal_parts",
                        lambda self, host, nbr, first, banned, tight:
                        maximal_parts(self, host, nbr, first, banned, 0))
    assert solve_all() == pruned
    _count_labellings(monkeypatch, generators=False)
    assert solve_all() == pruned
    monkeypatch.setattr(_Solver, "_maximal_parts", maximal_parts)
    assert solve_all() == pruned


def test_edge_images_are_built_for_enumerated_stages_only(monkeypatch):
    """A stage whose canonical form ``memo_lo`` already refutes gets no edge
    image lists: in the refutation of 14 parts on K9 they are built once
    per enumeration, 235 times."""
    built, enumerated = [], []
    edge_images, maximal_parts = _Solver._edge_images, _Solver._maximal_parts

    def counted_images(self, host, gens, stage):
        built.append(stage)
        return edge_images(self, host, gens, stage)

    def counted_parts(self, host, nbr, first, banned, tight):
        if not banned:                      # an enumeration's first run
            enumerated.append(1)
        return maximal_parts(self, host, nbr, first, banned, tight)

    monkeypatch.setattr(_Solver, "_edge_images", counted_images)
    monkeypatch.setattr(_Solver, "_maximal_parts", counted_parts)
    assert refute(complete(9), 14) == (None, 4896)
    assert len(built) == len(enumerated) == 235


def test_orbit_branching_labels_fewer_stages(monkeypatch):
    """Skipped parts are never keyed: the refutation of 10 parts on K7
    labels 184 stages without orbit branching and fewer with it."""
    calls = _count_labellings(monkeypatch)
    assert refute(complete(7), 10) == (None, 223)
    branched = len(calls)
    calls = _count_labellings(monkeypatch, generators=False)
    assert refute(complete(7), 10)[0] is None
    assert len(calls) == 184
    assert 0 < branched < 184


@pytest.mark.parametrize("drop, edge", [(0, (3, 4)), (1, (2, 3))],
                         ids=["non-edge", "outside-stage"])
def test_orbit_rejects_a_map_that_is_no_automorphism(drop, edge):
    """Swapping vertices 1 and 3 of the paw sends its edge {3, 4} to the
    non-edge {1, 4}; on the triangle 2 3 4 alone it sends {2, 3} to
    {1, 2}, an edge of the graph but not of the stage. The edge image
    builder refuses both."""
    s = _Solver(EXAMPLE, 10 ** 6)
    stage = ((1 << s.m) - 1) & ~(drop << s.edges.index((0, 1)))
    host, _ = s._stage(stage)
    message = f"maps the edge {edge} outside the stage"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        s._edge_images(host, [(2, 1, 0, 3)], stage)


@pytest.mark.parametrize("budget", [0, -5, True])
def test_node_budget_below_one_is_rejected(budget):
    with pytest.raises(ValueError, match="node_budget must be a positive integer"):
        pmd(complete(5), node_budget=budget)


def test_complete_and_complete_bipartite_values():
    """K_n = 2n - 3 and K_{a,b} = a + b - 1. The solver takes both formulas
    as lower bounds (Conca-Welker), and its greedy seed meets them, so
    each is exact without a search node, K11, K12, K20 and K7,7 included;
    ``test_closed_forms_hold_by_exhaustion`` proves the formulas up to K9
    and a + b = 10 without them."""
    for n in [*range(2, 13), 20]:
        res = pmd(complete(n))
        assert (res.value, res.lower, res.status, res.nodes) == (2 * n - 3, 2 * n - 3, "exact", 0)
        assert verify_decomposition(complete(n), res.decomposition)
    for a, b in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (4, 4), (5, 5), (7, 7)]:
        g = complete_bipartite(a, b)
        res = pmd(g)
        assert (res.value, res.lower, res.status) == (a + b - 1, a + b - 1, "exact")
        assert verify_decomposition(g, res.decomposition)


def test_closed_forms_hold_by_exhaustion():
    """The search alone refutes 2n - 4 parts on K3-K9 and a + b - 2 parts on
    K_{a,b} with a + b <= 10, and the bound finds exactly 2n - 3 and
    a + b - 1 on them."""
    for n in range(3, 10):
        assert refute(complete(n), 2 * n - 4)[0] is None, n
        assert pmd_module._subgraph_bound(complete(n).masks()) == 2 * n - 3
    for a in range(1, 6):
        for b in range(a, 11 - a):
            g = complete_bipartite(a, b)
            assert refute(g, a + b - 2)[0] is None, (a, b)
            assert pmd_module._subgraph_bound(g.masks()) == a + b - 1


def test_subgraph_bound_never_exceeds_pmd(connected_n7):
    """The search refutes bound - 1 parts on every connected graph with
    n <= 7, so the bound never exceeds pmd there, by exhaustion and not by
    Lemma 3; each solve's ``lower`` equals its exact value."""
    above_degree = 0
    for g in connected_n7[1:]:             # the single vertex has no edge
        assert g.m
        bound = pmd_module._subgraph_bound(g.masks())
        assert bound >= max_degree(g)
        above_degree += bound > max_degree(g)
        assert refute(g, bound - 1)[0] is None, g
        res = pmd(g)
        assert res.status == "exact" and res.lower == res.value >= bound
    assert above_degree == 185


def test_a_bound_above_a_decomposition_is_a_bug(monkeypatch):
    """A bound above the seed's length raises; forests and graphs whose
    seed has max-degree many parts never compute the bound."""
    monkeypatch.setattr(pmd_module, "_subgraph_bound", lambda nbr: 12)
    message = "lower bound 12 exceeds a decomposition into 11 parts"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        pmd(complete(7))
    monkeypatch.setattr(pmd_module, "_subgraph_bound",
                        lambda nbr: pytest.fail("the bound was computed"))
    for g in (star(5), path(6), EXAMPLE, Graph(3, ())):
        res = pmd(g)
        assert (res.lower, res.status, res.nodes) == (res.value, "exact", 0)


def test_oracle_equivalence_on_connected_small(connected_n6):
    for g in connected_n6:
        if g.m <= 6:
            assert pmd(g).value == pmd_bruteforce(g)


def test_bounds_on_results(connected_n6):
    for g in connected_n6:
        res = pmd(g)
        assert res.status == "exact"
        assert res.value >= max_degree(g)
        if g.m:
            assert res.value <= min(2 * g.n - 3, g.m)
            if is_bipartite(g):
                assert res.value <= min(g.n - 1, g.m)


def test_subgraph_monotonicity(connected_n6):
    """Lemma 3 on single edges and single vertices: pmd(G - e) <= pmd(G)
    for every edge and pmd(G - v) <= pmd(G) for every vertex of every
    connected graph with n <= 6."""
    for g in connected_n6:
        full = pmd(g).value
        edges = g.edge_labels()
        for e in edges:
            sub = Graph.from_edges(g.n, [f for f in edges if f != e])
            assert pmd(sub).value <= full, (g, e)
        for v in range(1, g.n + 1):
            assert pmd(delete_vertex(g, v)).value <= full, (g, v)


def test_every_result_passes_verification(connected_n6):
    rng = random.Random(23)
    for g in rng.sample(connected_n6, 30):
        res = pmd(g)
        assert verify_decomposition(g, res.decomposition)


def test_result_json_shape():
    res = pmd(EXAMPLE)
    data = res.to_json()
    assert data["value"] == 3 and data["status"] == "exact"
    assert data["certificates"][0]["part"] == 1
    assert all(isinstance(v, str) for v in data["certificates"][0]["weights"].values())


def _labeled_trees(n):
    """Every labeled tree on 1..n, decoded from its Pruefer sequence."""
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        degree = [1] * (n + 1)
        for x in seq:
            degree[x] += 1
        edges = []
        for x in seq:
            leaf = min(v for v in range(1, n + 1) if degree[v] == 1)
            edges.append((leaf, x))
            degree[leaf] -= 1
            degree[x] -= 1
        edges.append(tuple(v for v in range(1, n + 1) if degree[v] == 1))
        yield Graph.from_edges(n, edges)


def test_forest_parts_detects_cycles_and_colours_trees(connected_n6):
    """forest_parts is None exactly on graphs with a cycle, and on every
    labeled tree with n <= 6 it is a proper edge colouring with max-degree
    many colours that covers every edge once."""
    forests = [Graph(5, ()), Graph.from_edges(7, [(1, 2), (2, 3), (5, 6)]),
               Graph.from_edges(8, [(2, 4), (4, 6), (4, 7), (1, 8)])]
    cyclic = [Graph.from_edges(7, [(1, 2), (2, 3), (1, 3), (5, 6)]),     # cycle first,
              Graph.from_edges(7, [(1, 2), (4, 5), (5, 6), (4, 6)])]     # or later
    for g in [*connected_n6, *map(cycle, range(3, 8)), *forests, *cyclic]:
        parts = _Solver(g, 10 ** 6).forest_parts()
        assert (parts is None) == (not is_forest(g)), g
    trees = [t for n in range(2, 7) for t in _labeled_trees(n)]
    assert len(trees) == sum(n ** (n - 2) for n in range(2, 7))
    for g in trees + forests:
        parts = _Solver(g, 10 ** 6).forest_parts()
        assert len(parts) == max_degree(g) and all(parts)
        assert sum(parts) == (1 << g.m) - 1          # disjoint and covering
        for pm in parts:
            ends = [v for i, e in enumerate(g.edges) if pm >> i & 1 for v in e]
            assert len(ends) == len(set(ends))


def test_slotted_results_pickle_and_copy():
    g = EXAMPLE
    res = pmd(g)
    cert = res.decomposition.certificates[0]
    for obj in (g, res, res.decomposition, cert):
        assert not hasattr(obj, "__dict__")
        for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert clone == obj and type(clone) is type(obj)
    assert pmd(g) == res
    assert verify_decomposition(g, pickle.loads(pickle.dumps(res)).decomposition)
