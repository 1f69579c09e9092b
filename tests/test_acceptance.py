"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success; stated runtime limits are
asserted with wall-clock checks.
"""

import time

from lssrings.graphs import (encode_graph6, gapped, is_bipartite,
                             parse_edge_list, path, star)
from lssrings.groebner import (MonomialIdeal, buchberger, dim_and_multiplicity,
                               initial_ideal, minimalize)
from lssrings.pmd import pmd, pmd_bruteforce, verify_decomposition
from lssrings.poly import (TermOrder, initial_form, lss_generators,
                           pairwise_coprime_squarefree, ring_for,
                           weight_from_pmd, yvar)
from lssrings.posmatch import check_certificate
from lssrings.reports import (invariants_of, properties_at, threshold_table,
                              verify_D_nonzero, verify_path_suite,
                              verify_star_suite)
from lssrings.scan import check_forest_pmd, scan_corpus, scan_graph

EXAMPLE = parse_edge_list("4\n1 2\n2 3\n2 4\n3 4")


def test_criterion_01_example_graph_pmd():
    t0 = time.monotonic()
    res = pmd(EXAMPLE)
    elapsed = time.monotonic() - t0
    assert res.value == 3 and res.status == "exact"
    assert len(res.decomposition.certificates) == 3
    remaining = set(EXAMPLE.edge_labels())
    for part, cert in zip(res.decomposition.parts, res.decomposition.certificates):
        assert check_certificate(remaining, set(part), cert)
        remaining -= set(part)
    assert verify_decomposition(EXAMPLE, res.decomposition)
    assert elapsed < 1.0
    print(f"PASS criterion 1: example graph pmd = 3 with validating "
          f"certificates in {elapsed:.3f}s")


def test_criterion_02_forest_theorem_trees_to_n7():
    t0 = time.monotonic()
    summary = check_forest_pmd(7)
    elapsed = time.monotonic() - t0
    assert summary["ok"], summary["failures"][:3]
    assert summary["checked"] == 1 + 1 + 3 + 16 + 125 + 1296 + 16807
    assert elapsed < 300.0
    print(f"PASS criterion 2: pmd = degree on all {summary['checked']} labeled "
          f"trees n <= 7 in {elapsed:.1f}s")


def test_criterion_03_bound_suite_connected_n6(connected_n6):
    for g in connected_n6:
        res = pmd(g)
        assert res.status == "exact", encode_graph6(g)
        if g.m:
            assert res.value <= min(2 * g.n - 3, g.m), encode_graph6(g)
            if is_bipartite(g):
                assert res.value <= min(g.n - 1, g.m), encode_graph6(g)
    print(f"PASS criterion 3: both pmd upper bounds hold on all "
          f"{len(connected_n6)} connected graphs n <= 6")


def test_criterion_04_oracle_equivalence(small_edge_classes):
    mismatches = []
    for g in small_edge_classes:
        bb = pmd(g).value
        bf = pmd_bruteforce(g)
        if bb != bf:
            mismatches.append((g.edge_labels(), bb, bf))
    assert not mismatches, mismatches[:3]
    print(f"PASS criterion 4: branch-and-bound equals brute force on all "
          f"{len(small_edge_classes)} graphs with <= 6 edges")


def test_criterion_05_conjecture_scan(connected_n6):
    lines = [encode_graph6(g) for g in connected_n6]
    rows, summary = scan_corpus(lines, stable_ms=True)
    assert summary.exact == len(lines)
    assert summary.violations == 0
    grow = scan_graph(gapped(4), "gapped4", stable_ms=True)
    assert (grow.delta, grow.k, grow.alpha, grow.pmd) == (5, 3, 7, 5)
    assert grow.gap == 2
    print(f"PASS criterion 5: zero pmd > alpha findings on {len(lines)} "
          f"connected graphs n <= 6; gapped family n = 4 gap = 2")


def test_criterion_06_term_order_conclusion(all_n5, connected_n6):
    checked = 0
    for g in (*all_n5, *connected_n6):
        if g.m == 0:
            continue
        res = pmd(g)
        d = res.value
        ring = ring_for(g.n, d)
        order = weight_from_pmd(res.decomposition, ring)
        part_of = {e: l for l, part in enumerate(res.decomposition.parts, start=1)
                   for e in part}
        monos = []
        for edge, f in lss_generators(g, d, ring):
            ini = initial_form(f, order)
            l = part_of[edge]
            assert ini == yvar(ring, edge[0], l) * yvar(ring, edge[1], l), (
                encode_graph6(g), edge)
            monos.append(next(iter(ini.terms)))
        assert pairwise_coprime_squarefree(monos), encode_graph6(g)
        checked += 1
    # the worked example's underlined monomials, exactly
    res = pmd(EXAMPLE)
    ring = ring_for(4, 3)
    order = weight_from_pmd(res.decomposition, ring)
    got = {e: initial_form(f, order) for e, f in lss_generators(EXAMPLE, 3, ring)}
    assert got[(1, 2)] == yvar(ring, 1, 1) * yvar(ring, 2, 1)
    assert got[(2, 3)] == yvar(ring, 2, 2) * yvar(ring, 3, 2)
    assert got[(2, 4)] == yvar(ring, 2, 3) * yvar(ring, 4, 3)
    assert got[(3, 4)] == yvar(ring, 3, 1) * yvar(ring, 4, 1)
    print(f"PASS criterion 6: leading-form conclusion holds on {checked} "
          f"graphs (all n <= 5, connected n <= 6) at d = pmd; "
          f"example monomials match exactly")


def test_criterion_07_dimension_and_multiplicity():
    # initial ideal of the 4-path at d = 3 via the decomposition weights
    g = path(4)
    res = pmd(g)
    ring = ring_for(4, 3)
    order = weight_from_pmd(res.decomposition, ring)
    lts = []
    for _, f in lss_generators(g, 3, ring):
        ini = initial_form(f, order)
        assert len(ini) == 1
        lts.append(next(iter(ini.terms)))
    mi = MonomialIdeal(tuple(minimalize(lts)), ring.nvars)
    dim, mult = dim_and_multiplicity(mi)
    assert dim == 9 and mult == 8
    # Herzog-type ideal: multiplicity 3
    r = ring_for(3, 2)
    y = lambda v, c: yvar(r, v, c)
    herzog = [y(1, 1) * y(2, 1) + y(1, 2) * y(2, 2),
              y(3, 1) * y(2, 1) + y(3, 2) * y(2, 2),
              y(1, 1) * y(3, 2) - y(1, 2) * y(3, 1)]
    gb = buchberger(herzog, TermOrder.grevlex(r))
    e = dim_and_multiplicity(initial_ideal(gb))[1]
    assert e == 3
    print("PASS criterion 7: path initial ideal has dim 9 and multiplicity 8; "
          "Herzog-type ideal has multiplicity 3")


def test_criterion_08_path_ledger_n4():
    t0 = time.monotonic()
    suite = verify_path_suite(4)
    elapsed = time.monotonic() - t0
    failed = [c.name for c in suite.checks if not c.passed]
    assert not failed, failed
    by_name = {c.name: c for c in suite.checks}
    for name in ("e(R/P_2) = 2", "e(R/P_3) = 2", "e(R/Q_2) = 6", "e(R/Q_3) = 6",
                 "e(R/(x)) = 16", "multiplicity ledger: sum of minimal primes"):
        assert by_name[name].passed
    for i in (2, 3):
        assert by_name[f"L subset P_{i}"].passed
        assert by_name[f"L subset Q_{i}"].passed
        assert by_name[f"x in P_{i}"].passed
        assert by_name[f"x in Q_{i}"].passed
    assert elapsed < 60.0
    print(f"PASS criterion 8: interior-prime ledger 2+2+6+6 = 16 with all "
          f"memberships verified in {elapsed:.2f}s")


def test_criterion_09_star_identity_n3():
    suite = verify_star_suite(3)
    failed = [c.name for c in suite.checks if not c.passed]
    assert not failed, failed
    print("PASS criterion 9: star intersection identity verified by mutual "
          "membership at n = 3")


def test_criterion_10_determinant_nonvanishing():
    assert verify_D_nonzero(path(3), 3, 2)        # t = 1
    assert verify_D_nonzero(star(2), 3, 2)        # t = 2
    print("PASS criterion 10: localization determinant has nonzero normal "
          "form in both small quotients")


def test_criterion_11_rule_engine(all_n5):
    s = star(3)
    inv = invariants_of(s)
    assert (inv.delta, inv.k, inv.pmd_value) == (3, 1, 3)
    for d, normal, ufd, freg in ((3, False, False, False),
                                 (4, True, False, True),
                                 (5, True, True, True),
                                 (6, True, True, True)):
        rep = properties_at(s, d, inv)
        assert rep.guaranteed("normal") == normal, d
        assert rep.guaranteed("ufd") == ufd, d
        assert rep.guaranteed("strongly_f_regular") == freg, d
    # both rule families report their own thresholds
    table = threshold_table(s, inv)
    assert {rf.rule: rf.threshold for rf in table["strongly_f_regular"]} == \
        {"pmd-degeneracy-f-regular": 4}
    assert {rf.rule: rf.threshold for rf in table["ufd"]} == \
        {"pmd-degeneracy-ufd": 5}
    assert {rf.rule: rf.threshold for rf in table["complete_intersection"]} == \
        {"pmd-radical-ci": 3, "degree-degeneracy-ci": 3}
    # implication chain across the full n <= 5 corpus
    for g in all_n5:
        ginv = invariants_of(g)
        for d in range(1, ginv.pmd_value + ginv.k + 3):
            rep = properties_at(g, d, ginv)
            if rep.guaranteed("ufd"):
                assert rep.guaranteed("strongly_f_regular")
            if rep.guaranteed("strongly_f_regular"):
                assert rep.guaranteed("prime")
                assert rep.guaranteed("normal")
            if rep.guaranteed("prime"):
                assert rep.guaranteed("radical")
                assert rep.guaranteed("complete_intersection")
                assert rep.guaranteed("irreducible")
    print("PASS criterion 11: star thresholds (normal 4, F-regular 4, UFD 5) "
          "and the implication chain over the n <= 5 corpus")
