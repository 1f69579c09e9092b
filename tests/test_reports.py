"""Rule engine and the quotient suites."""

import pytest

from lssrings.graphs import cycle, parse_edge_list, path, star
from lssrings.pmd import pmd
from lssrings.reports import (GraphInvariants, invariants_of, properties_at,
                              threshold_table, verify_D_nonzero,
                              verify_path_suite, verify_star_suite, PROPERTIES)

EXAMPLE = parse_edge_list("4\n1 2\n2 3\n2 4\n3 4")
TWO_K3 = parse_edge_list("6\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6")


def _inv(g):
    return invariants_of(g)


def test_star3_thresholds():
    s = star(3)
    inv = _inv(s)
    assert (inv.delta, inv.k, inv.pmd_value) == (3, 1, 3)
    rep4 = properties_at(s, 4, inv)
    rep5 = properties_at(s, 5, inv)
    rep3 = properties_at(s, 3, inv)
    assert rep5.guaranteed("ufd")
    assert not rep4.guaranteed("ufd")
    assert rep4.guaranteed("strongly_f_regular")
    assert rep4.guaranteed("normal")
    assert not rep3.guaranteed("normal")
    # both threshold families are listed separately with their own rules
    table = threshold_table(s, inv)
    ci_rules = {rf.rule: rf.threshold for rf in table["complete_intersection"]}
    assert ci_rules == {"pmd-radical-ci": 3, "degree-degeneracy-ci": 3}
    freg = {rf.rule: rf.threshold for rf in table["strongly_f_regular"]}
    assert freg == {"pmd-degeneracy-f-regular": 4}
    assert {rf.rule: rf.threshold for rf in table["ufd"]} == {"pmd-degeneracy-ufd": 5}


def test_example_graph_thresholds():
    inv = _inv(EXAMPLE)
    assert (inv.pmd_value, inv.k) == (3, 2)
    rep5 = properties_at(EXAMPLE, 5, inv)
    assert rep5.guaranteed("strongly_f_regular")      # pmd + k = 5
    assert not rep5.guaranteed("ufd")                 # needs 6
    rep6 = properties_at(EXAMPLE, 6, inv)
    assert rep6.guaranteed("ufd")


def test_below_degree_nothing_fires():
    inv = _inv(EXAMPLE)
    rep = properties_at(EXAMPLE, 2, inv)              # d < delta = 3
    assert not any(rep.guaranteed(p) for p in PROPERTIES)


def test_edgeless_reports_polynomial_ring():
    g = parse_edge_list("3")
    rep = properties_at(g, 1, _inv(g))
    for p in PROPERTIES:
        assert rep.guaranteed(p)
        assert rep.fires(p)[0].rule == "polynomial-ring"


def test_unknown_pmd_disables_pmd_rules():
    inv = GraphInvariants(delta=3, k=2, pmd_value=None, pmd_status="unknown")
    rep = properties_at(EXAMPLE, 10, inv)
    assert rep.guaranteed("complete_intersection")    # Kapon route still fires
    assert rep.guaranteed("irreducible")
    assert not rep.guaranteed("ufd")
    assert not rep.guaranteed("prime")


def test_rule_monotonicity_in_d(connected_n6):
    import random
    rng = random.Random(41)
    for g in rng.sample(connected_n6, 15):
        inv = _inv(g)
        top = inv.pmd_value + inv.k + 3
        prev = {p: False for p in PROPERTIES}
        for d in range(1, top):
            rep = properties_at(g, d, inv)
            for p in PROPERTIES:
                assert not (prev[p] and not rep.guaranteed(p)), (g, d, p)
                prev[p] = rep.guaranteed(p)


def test_implication_chain(all_n5):
    for g in all_n5:
        inv = _inv(g)
        for d in range(1, inv.pmd_value + inv.k + 3):
            rep = properties_at(g, d, inv)
            if rep.guaranteed("ufd"):
                assert rep.guaranteed("strongly_f_regular")
            if rep.guaranteed("strongly_f_regular"):
                assert rep.guaranteed("prime")
                assert rep.guaranteed("normal")
            if rep.guaranteed("prime"):
                assert rep.guaranteed("radical")
                assert rep.guaranteed("complete_intersection")
                assert rep.guaranteed("irreducible")


def test_c6_knowledge_base_grant():
    c6 = cycle(6)
    inv = _inv(c6)
    rep3 = properties_at(c6, 3, inv)
    assert rep3.guaranteed("prime")
    rules = {rf.rule: rf.threshold for rf in rep3.fires("prime")}
    assert rules == {"six-cycle": 3}
    assert [rf.statement for rf in threshold_table(c6, inv)["prime"]
            if rf.rule == "six-cycle"] == [
        "the 6-cycle: not prime and not a complete intersection at d = 2, "
        "prime complete intersection from d = 3 on"]
    # the forest theorem is the forest-normal row, cited under normal
    p4 = path(4)
    assert [(rf.threshold, rf.statement)
            for rf in threshold_table(p4, _inv(p4))["normal"]
            if rf.rule == "forest-normal"] == [
        (3, "forests with d >= degree + 1 have a normal quotient ring")]
    rep2 = properties_at(c6, 2, inv)
    assert not rep2.guaranteed("prime")
    # two disjoint triangles are 2-regular on six vertices, not the 6-cycle
    rep = properties_at(TWO_K3, 3, _inv(TWO_K3))
    assert not rep.guaranteed("prime")
    assert all(rf.rule != "six-cycle"
               for p in PROPERTIES for rf in rep.fires(p))


def test_every_guarantee_cites_a_rule_that_fires(connected_n6):
    for g in [g for g in connected_n6 if g.m] + [cycle(6), TWO_K3]:
        inv = _inv(g)
        for d in range(1, inv.pmd_value + inv.k + 3):
            rep = properties_at(g, d, inv)
            for p in PROPERTIES:
                assert all(rf.threshold <= d for rf in rep.fires(p)), (g, d, p)


def test_no_conjecture_justifies_guarantee(connected_n6):
    import random
    rng = random.Random(43)
    for g in rng.sample(connected_n6, 10):
        inv = _inv(g)
        for d in (1, 3, inv.pmd_value + inv.k + 1):
            rep = properties_at(g, d, inv)
            for p in PROPERTIES:
                for rf in rep.fires(p):
                    assert "conjecture" not in rf.statement.lower()


def test_path_suite_n4():
    suite = verify_path_suite(4)
    assert suite.passed, [c for c in suite.checks if not c.passed]
    names = {c.name for c in suite.checks}
    assert "e(R/(x)) = 16" in names
    assert "e(R/P_2) = 2" in names and "e(R/Q_2) = 6" in names


def test_path_suite_n5_ledger():
    suite = verify_path_suite(5)
    assert suite.passed, [c for c in suite.checks if not c.passed]
    names = {c.name for c in suite.checks}
    assert "e(R/(x)) = 48" in names                   # (n-2) * 2^(n-1)
    assert "e(R/P_2) = 4" in names and "e(R/Q_2) = 12" in names


def test_path_suite_guard():
    from lssrings.groebner import DeskScaleExceeded
    with pytest.raises(DeskScaleExceeded):
        verify_path_suite(6)


def test_star_suite():
    suite = verify_star_suite(3)
    assert suite.passed, [c for c in suite.checks if not c.passed]
    from lssrings.groebner import DeskScaleExceeded
    with pytest.raises(DeskScaleExceeded):
        verify_star_suite(4)


def test_d_nonzero():
    assert verify_D_nonzero(path(3), 3, 2)
    assert verify_D_nonzero(star(2), 3, 2)
    from lssrings.graphs import Graph
    lonely = Graph.from_edges(3, [(1, 2)])
    assert verify_D_nonzero(lonely, 3, 2)             # isolated vertex: unit
