"""Solver, greedy bound, brute-force oracle, and decomposition checking."""

import random

import pytest

from lssrings.graphs import (complete, complete_bipartite, cycle, max_degree,
                             parse_edge_list, path, star, is_bipartite)
from lssrings.pmd import (PmdDecomposition, greedy_upper_bound, pmd,
                          pmd_bruteforce, verify_decomposition)
from lssrings.posmatch import WeightCertificate

EXAMPLE = parse_edge_list("4\n1 2\n2 3\n2 4\n3 4")


def test_example_graph_value_and_parts():
    res = pmd(EXAMPLE)
    assert res.value == 3 and res.status == "exact"
    assert res.decomposition.parts == (((1, 2), (3, 4)), ((2, 3),), ((2, 4),))
    assert verify_decomposition(EXAMPLE, res.decomposition)


def test_forest_equality():
    assert pmd(star(5)).value == 5
    assert pmd(path(6)).value == 2
    for g in (star(5), path(6), path(2)):
        res = pmd(g)
        assert res.status == "exact" and res.value == max_degree(g)
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
    res = pmd(complete(5), node_budget=3)
    assert res.status == "upper_bound_only"
    assert res.value >= 7                  # never better than the optimum
    assert verify_decomposition(complete(5), res.decomposition)


@pytest.mark.parametrize("budget", [0, -5])
def test_node_budget_below_one_is_rejected(budget):
    with pytest.raises(ValueError, match="node_budget must be a positive integer"):
        pmd(complete(5), node_budget=budget)


def test_complete_and_complete_bipartite_values():
    """K_n = 2n - 3 and K_{a,b} = a + b - 1 as expectations of the exact
    search; the solver uses neither formula. K8 and K5,5 are exact within
    the default node budget."""
    for n in range(2, 9):
        res = pmd(complete(n))
        assert (res.value, res.status) == (2 * n - 3, "exact")
        assert verify_decomposition(complete(n), res.decomposition)
    for a, b in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (4, 4), (5, 5)]:
        g = complete_bipartite(a, b)
        res = pmd(g)
        assert (res.value, res.status) == (a + b - 1, "exact")
        assert verify_decomposition(g, res.decomposition)


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


def test_subgraph_monotonicity(all_n5):
    rng = random.Random(17)
    for g in rng.sample(all_n5, 12):
        if g.m < 2:
            continue
        full = pmd(g).value
        edges = list(g.edge_labels())
        sub_edges = rng.sample(edges, g.m - 1)
        from lssrings.graphs import Graph
        sub = Graph.from_edges(g.n, sub_edges)
        assert pmd(sub).value <= full


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
