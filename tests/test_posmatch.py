"""LP feasibility, Farkas witnesses, certificates, and the FM cross-oracle."""

import random

import pytest

from lssrings import posmatch
from lssrings.graphs import parse_edge_list
from lssrings.groebner import DeskScaleExceeded
from lssrings.posmatch import (LpResult, MatchingArgumentError,
                               WeightCertificate, check_certificate,
                               fourier_motzkin_feasible,
                               is_positive_matching, lp_feasible,
                               make_constraint, positive_matching_system,
                               solve_system, system)
from lssrings.rationals import QQ

EXAMPLE_EDGES = [(1, 2), (2, 3), (2, 4), (3, 4)]
C4_EDGES = [(1, 2), (2, 3), (3, 4), (1, 4)]


def test_lp_infeasible_interval():
    sys = system([make_constraint({"x": 1}, ">=", 1),
                  make_constraint({"x": 1}, "<=", -1)])
    res = solve_system(sys)
    assert res.point is None
    _check_farkas(sys, res.farkas)


def test_lp_feasible_halfplane():
    sys = system([make_constraint({"x": 1, "y": 1}, ">=", 1)])
    pt = lp_feasible(sys)
    assert pt is not None
    assert pt["x"] + pt["y"] >= 1


def test_lp_c4_perfect_matching_infeasible():
    sys = positive_matching_system(C4_EDGES, [(1, 2), (3, 4)])
    res = solve_system(sys)
    assert res.point is None
    _check_farkas(sys, res.farkas)


def _check_farkas(sys, lam):
    """lam >= 0, combines the >=-oriented rows to 0 . x >= positive."""
    assert lam is not None and all(l >= 0 for l in lam)
    combined = {}
    bound = QQ(0)
    for c, l in zip(sys.constraints, lam):
        coeffs, b = c.as_ge()
        for v, q in coeffs.items():
            combined[v] = combined.get(v, QQ(0)) + l * q
        bound += l * b
    assert all(q == 0 for q in combined.values())
    assert bound > 0


def test_certificate_from_worked_example_figure():
    # first-stage weights (3, -2, 1, 1) on vertices 1..4
    w1 = WeightCertificate.from_map({1: 3, 2: -2, 3: 1, 4: 1})
    assert check_certificate(EXAMPLE_EDGES, [(1, 2), (3, 4)], w1)
    # strictness: the all-zero map fails on any nonempty host
    zero = WeightCertificate.from_map({1: 0, 2: 0, 3: 0, 4: 0})
    assert not check_certificate(EXAMPLE_EDGES, [(1, 2), (3, 4)], zero)
    assert check_certificate([(1, 2)], [(1, 2)], WeightCertificate.from_map({1: 1, 2: 1}))


def test_is_positive_matching_example_first_stage():
    res = is_positive_matching(EXAMPLE_EDGES, [(1, 2), (3, 4)])
    assert res.is_positive
    assert check_certificate(EXAMPLE_EDGES, [(1, 2), (3, 4)], res.certificate)


def test_is_positive_matching_c4_obstruction():
    res = is_positive_matching(C4_EDGES, [(1, 2), (3, 4)])
    assert res.status == "infeasible" and res.certificate is None


def test_is_positive_matching_empty_cases():
    assert is_positive_matching([], []).is_positive
    # empty part on a nonempty host: all sums must be negative (w = -1 works)
    res = is_positive_matching(EXAMPLE_EDGES, [])
    assert res.is_positive
    assert check_certificate(EXAMPLE_EDGES, [], res.certificate)


def test_not_a_matching_is_distinct():
    res = is_positive_matching(EXAMPLE_EDGES, [(1, 2), (2, 3)])
    assert res.status == "not_a_matching" and res.certificate is None
    with pytest.raises(MatchingArgumentError):
        is_positive_matching(EXAMPLE_EDGES, [(1, 3)])


def test_certificates_scale_to_integers():
    res = is_positive_matching(EXAMPLE_EDGES, [(1, 2), (3, 4)], n=4)
    assert all(isinstance(w, int) for _, w in res.certificate.weights)
    assert len(res.certificate.weights) == 4


def test_normalized_solution_is_strict_and_scales():
    """Feasibility of the strict cone equals feasibility of the >=1/<=-1 system."""
    g = parse_edge_list("4\n1 2\n2 3\n2 4\n3 4")
    host = list(g.edge_labels())
    pt = lp_feasible(positive_matching_system(host, [(1, 2), (3, 4)]))
    # normalized solution satisfies the strict system outright
    for (i, j) in [(1, 2), (3, 4)]:
        assert pt[i] + pt[j] >= 1 > 0
    for (i, j) in [(2, 3), (2, 4)]:
        assert pt[i] + pt[j] <= -1 < 0
    # any strict solution scales into the normalized one
    strict = {1: QQ(3, 7), 2: QQ(-2, 7), 3: QQ(1, 7), 4: QQ(1, 7)}
    margins = [abs(strict[i] + strict[j]) for (i, j) in host]
    scale = max(QQ(1) / m for m in margins)
    scaled = {v: scale * w for v, w in strict.items()}
    for (i, j) in [(1, 2), (3, 4)]:
        assert scaled[i] + scaled[j] >= 1
    for (i, j) in [(2, 3), (2, 4)]:
        assert scaled[i] + scaled[j] <= -1


def _all_matchings(edges):
    edges = sorted(edges)
    out = [frozenset()]

    def rec(cur, used, start):
        for idx in range(start, len(edges)):
            i, j = edges[idx]
            if i in used or j in used:
                continue
            out.append(frozenset(cur | {(i, j)}))
            rec(cur | {(i, j)}, used | {i, j}, idx + 1)

    rec(set(), set(), 0)
    return out


def test_cross_oracle_simplex_vs_fourier_motzkin(connected_n6):
    """Same verdict on every positive-matching system from small graphs."""
    rng = random.Random(7)
    checked = 0
    for g in connected_n6:
        if g.n > 5 and rng.random() < 0.8:
            continue                      # keep the n=6 sample small
        host = list(g.edge_labels())
        matchings = _all_matchings(host)
        if len(matchings) > 12:
            matchings = rng.sample(matchings, 12)
        for m in matchings:
            sys = positive_matching_system(host, m)
            assert (lp_feasible(sys) is not None) == fourier_motzkin_feasible(sys)
            checked += 1
    assert checked > 100


def test_infeasibility_monotone_under_host_growth(connected_n6):
    """Adding host edges only adds constraints, so None stays None."""
    rng = random.Random(11)
    for g in [x for x in connected_n6 if 4 <= x.n <= 5][:12]:
        host = list(g.edge_labels())
        for m in _all_matchings(host):
            if not m or len(m) < 2:
                continue
            sub = [e for e in host if e in m or rng.random() < 0.5]
            if is_positive_matching(sub, m).status == "infeasible":
                assert is_positive_matching(host, m).status == "infeasible"


def test_farkas_witness_on_every_infeasible_system(connected_n6):
    rng = random.Random(13)
    for g in rng.sample([x for x in connected_n6 if x.n >= 4], 10):
        host = list(g.edge_labels())
        for m in _all_matchings(host)[:20]:
            sys = positive_matching_system(host, m)
            res = solve_system(sys)
            if res.point is None:
                _check_farkas(sys, res.farkas)


def test_fourier_motzkin_stops_at_its_row_cap():
    """A seeded system with 5 variables and 8 constraints grows to about
    880,000 rows without the cap (20 s); with it, the call stops at
    MAX_FM_ROWS. The simplex decides the same system at once."""
    rng = random.Random(4)
    cons = []
    for _ in range(8):
        coeffs = {f"x{i}": QQ(rng.randint(-3, 3)) for i in range(5)}
        coeffs = {k: v for k, v in coeffs.items() if v != 0} or {"x0": QQ(1)}
        cons.append(make_constraint(coeffs, rng.choice([">=", "<="]),
                                    QQ(rng.randint(-4, 4), rng.randint(1, 3))))
    sys_ = system(cons)
    with pytest.raises(DeskScaleExceeded, match="Fourier-Motzkin"):
        fourier_motzkin_feasible(sys_)
    assert solve_system(sys_).point is None


def test_simplex_fuzz_against_fourier_motzkin():
    """Seeded random general systems: identical verdicts, points satisfy
    every constraint exactly, witnesses certify every infeasibility."""
    rng = random.Random(12345)
    for _ in range(250):
        nv = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {f"x{i}": QQ(rng.randint(-3, 3))
                      for i in rng.sample(range(nv), rng.randint(1, nv))}
            coeffs = {k: v for k, v in coeffs.items() if v != 0} or {"x0": QQ(1)}
            cons.append(make_constraint(coeffs, rng.choice([">=", "<="]),
                                        QQ(rng.randint(-4, 4), rng.randint(1, 3))))
        sys_ = system(cons)
        res = solve_system(sys_)
        assert (res.point is not None) == fourier_motzkin_feasible(sys_)
        if res.point is not None:
            for c in cons:
                val = sum(q * res.point.get(v, QQ(0)) for v, q in c.coeffs)
                assert val >= c.bound if c.relation == ">=" else val <= c.bound
        else:
            _check_farkas(sys_, res.farkas)


def _reference_solve_system(sys):
    """The textbook rational tableau: Fraction rows, the price row rebuilt
    from the artificial-basic rows before every pivot. Kept as the
    reference that the fraction-free tableau must reproduce exactly."""
    variables = sys.variables()
    nv = len(variables)
    vindex = {repr(v): i for i, v in enumerate(variables)}
    m = len(sys.constraints)
    if m == 0:
        return LpResult({}, None)
    ncols = 2 * nv + 2 * m
    sigma, T = [], []
    for i, c in enumerate(sys.constraints):
        coeffs, bound = c.as_ge()
        sg = 1 if bound >= 0 else -1
        sigma.append(sg)
        row = [QQ(0)] * (ncols + 1)
        for v, q in coeffs.items():
            j = vindex[repr(v)]
            row[j], row[nv + j] = sg * q, -sg * q
        row[2 * nv + i] = QQ(-sg)
        row[2 * nv + m + i] = QQ(1)
        row[ncols] = sg * bound
        T.append(row)
    basis = [2 * nv + m + i for i in range(m)]
    art_lo = 2 * nv + m

    def price():
        p = [QQ(0)] * (ncols + 1)
        for i in range(m):
            if basis[i] >= art_lo:
                for j in range(ncols + 1):
                    p[j] += T[i][j]
        return p

    while True:
        p = price()
        enter = next((j for j in range(art_lo) if p[j] > 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][ncols] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [a - f * b for a, b in zip(T[i], T[leave])]
        basis[leave] = enter
    if sum(T[i][ncols] for i in range(m) if basis[i] >= art_lo) == 0:
        point = {repr(v): QQ(0) for v in variables}
        for i, b in enumerate(basis):
            if b < nv:
                point[repr(variables[b])] += T[i][ncols]
            elif b < 2 * nv:
                point[repr(variables[b - nv])] -= T[i][ncols]
        return LpResult({v: point[repr(v)] for v in variables}, None)
    p = price()
    return LpResult(None, tuple(sigma[i] * p[art_lo + i] for i in range(m)))


def _assert_same_as_reference(sys):
    res, ref = solve_system(sys), _reference_solve_system(sys)
    assert repr(res) == repr(ref)       # same point or Farkas tuple, same types
    return res.feasible


def test_fraction_free_tableau_matches_rational_reference(all_n5):
    """Positivity systems have integer data, so the fraction-free pivots
    are the rational ones: same point, same Farkas witness, byte for byte."""
    verdicts = set()
    for g in all_n5:
        host = list(g.edge_labels())
        for m in _all_matchings(host):
            verdicts.add(_assert_same_as_reference(positive_matching_system(host, m)))
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(6, 7)
        host = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if rng.random() < 0.5]
        used, part = set(), []
        for i, j in rng.sample(host, len(host)):
            if not {i, j} & used and rng.random() < 0.6:
                part.append((i, j))
                used |= {i, j}
        verdicts.add(_assert_same_as_reference(positive_matching_system(host, part)))
    assert verdicts == {True, False}


def test_solve_system_rejects_a_wrong_answer(monkeypatch):
    """The self-check raises on a point or witness that does not hold."""
    sys_ = system([make_constraint({"x": 1}, ">=", 1)])
    with pytest.raises(RuntimeError, match="violates"):
        posmatch._check_lp_result(sys_, LpResult({"x": QQ(1, 2)}, None))
    with pytest.raises(RuntimeError, match="Farkas"):
        posmatch._check_lp_result(sys_, LpResult(None, (QQ(1),)))
