"""Buchberger engine, normal forms, monomial invariants, intersections."""

import hashlib
import random
from fractions import Fraction
from fractions import Fraction as QQ
from itertools import combinations

import pytest

from lssrings.graphs import (complete, complete_bipartite, cycle,
                             parse_edge_list, path, star)
from lssrings.groebner import (DeskScaleExceeded, MonomialIdeal, buchberger,
                               ci_multiplicity, dim_and_multiplicity,
                               hilbert_numerator, ideal_intersection,
                               ideal_member, initial_ideal, minimalize,
                               normal_form, spoly)
from lssrings.pmd import pmd
from lssrings.poly import (Polynomial, Ring, TermOrder, initial_form,
                           leading_monomial, lss_generators, matrix_D, ring_for,
                           weight_from_pmd, yvar)
from lssrings.reports import verify_D_nonzero

EXAMPLE = parse_edge_list("4\n1 2\n2 3\n2 4\n3 4")


def _herzog_ideal(r):
    y = lambda v, c: yvar(r, v, c)
    return [y(1, 1) * y(2, 1) + y(1, 2) * y(2, 2),
            y(3, 1) * y(2, 1) + y(3, 2) * y(2, 2),
            y(1, 1) * y(3, 2) - y(1, 2) * y(3, 1)]


def test_normal_form_self_is_zero():
    r = ring_for(2, 2)
    order = TermOrder.grevlex(r)
    f = yvar(r, 1, 1) * yvar(r, 2, 1) + yvar(r, 1, 2) * yvar(r, 2, 2)
    assert normal_form(f, [f], order).is_zero()


def test_normal_form_of_one_in_proper_ideal():
    r = ring_for(2, 2)
    order = TermOrder.grevlex(r)
    gens = [f for _, f in lss_generators(parse_edge_list("2\n1 2"), 2, r)]
    gb = buchberger(gens, order)
    assert normal_form(r.one(), gb.generators, order) == r.one()


def test_normal_form_of_determinant_nonzero():
    r = ring_for(3, 2)
    order = TermOrder.grevlex(r)
    gb = buchberger([f for _, f in lss_generators(path(3), 2, r)], order)
    det = matrix_D(path(3), 3, 2, r)
    assert det == yvar(r, 2, 2)
    assert not normal_form(det, gb.generators, order).is_zero()


def test_buchberger_principal_and_k2():
    r = ring_for(2, 2)
    order = TermOrder.grevlex(r)
    f = (yvar(r, 1, 1) * yvar(r, 2, 1)).scale(QQ(3)) + yvar(r, 1, 2) * yvar(r, 2, 2)
    gb = buchberger([f], order)
    assert len(gb.generators) == 1
    lead = gb.generators[0]
    assert lead == f.scale(QQ(1, 3))        # monic normalization
    assert gb.divisors[0][1] == leading_monomial(f, order)
    k2 = buchberger([x for _, x in lss_generators(parse_edge_list("2\n1 2"), 2, r)], order)
    assert len(k2.generators) == 1


def test_buchberger_herzog_ideal_multiplicity_three():
    r = ring_for(3, 2)
    gb = buchberger(_herzog_ideal(r), TermOrder.grevlex(r))
    assert dim_and_multiplicity(initial_ideal(gb)) == (4, 3)


def test_spolys_of_basis_reduce_to_zero():
    rng = random.Random(31)
    r = ring_for(3, 2)
    order = TermOrder.grevlex(r)
    cases = [
        _herzog_ideal(r),
        [f for _, f in lss_generators(star(2), 2, r)],
    ]
    for gens in cases:
        gb = buchberger(gens, order)
        for i in range(len(gb.generators)):
            for j in range(i + 1, len(gb.generators)):
                s = spoly(gb.generators[i], gb.generators[j], order)
                assert normal_form(s, gb.generators, order).is_zero()


def test_ideal_member_edge_quadrics_and_x_product():
    d = 3
    r = ring_for(4, d)
    order = TermOrder.grevlex(r)
    gens = dict(lss_generators(path(4), d, r))
    gb = buchberger(list(gens.values()), order)
    for f in gens.values():
        assert ideal_member(f, gb)
    # interior-vertex ideal catches the column product through its variable
    p2 = buchberger([yvar(r, 2, 1), yvar(r, 2, 2), yvar(r, 2, 3), gens[(3, 4)]], order)
    x = yvar(r, 2, 3) * yvar(r, 3, 2)
    assert ideal_member(x, p2)
    det = matrix_D(path(3), 3, 2)
    r32 = ring_for(3, 2)
    gb32 = buchberger([f for _, f in lss_generators(path(3), 2, r32)],
                      TermOrder.grevlex(r32))
    assert not ideal_member(det, gb32)


def test_ideal_member_agrees_with_hand_built_cofactors():
    r = ring_for(3, 2)
    order = TermOrder.grevlex(r)
    gens = _herzog_ideal(r)
    gb = buchberger(gens, order)
    # explicit combination a*g1 + b*g2 with hand-picked cofactors
    a = yvar(r, 3, 1) * yvar(r, 3, 2) + r.one().scale(QQ(5))
    b = yvar(r, 1, 1) - yvar(r, 2, 2)
    combo = a * gens[0] + b * gens[1]
    assert ideal_member(combo, gb)
    # perturbing by a unit leaves the ideal
    assert not ideal_member(combo + r.one(), gb)


def test_initial_ideal_coprime_quadrics_all_n4(all_n5):
    """At d = pmd and pmd + 1 the weighted initial ideal is squarefree
    pairwise-coprime quadrics; dimension and multiplicity follow."""
    for g in [x for x in all_n5 if x.n <= 4 and x.m >= 1]:
        res = pmd(g)
        for d in (res.value, res.value + 1):
            ring = ring_for(g.n, d)
            order = weight_from_pmd(res.decomposition, ring)
            gb = buchberger([f for _, f in lss_generators(g, d, ring)], order)
            mi = initial_ideal(gb)
            assert len(mi.gens) == g.m
            assert all(sum(m) == 2 and max(m) == 1 for m in mi.gens)
            from lssrings.poly import pairwise_coprime_squarefree
            assert pairwise_coprime_squarefree(mi.gens)
            assert dim_and_multiplicity(mi) == (g.n * d - g.m, 2 ** g.m)


def test_initial_ideal_under_pmd_weights_needs_no_reduction():
    for g in (EXAMPLE, path(4)):
        res = pmd(g)
        d = res.value
        ring = ring_for(g.n, d)
        order = weight_from_pmd(res.decomposition, ring)
        gens = [f for _, f in lss_generators(g, d, ring)]
        gb = buchberger(gens, order)
        mi = initial_ideal(gb)
        # squarefree pairwise-coprime quadrics, one per edge
        assert len(mi.gens) == g.m
        assert all(sum(m) == 2 and max(m) == 1 for m in mi.gens)
        monos = [initial_form(f, order) for f in gens]
        assert sorted(next(iter(p.terms)) for p in monos) == sorted(mi.gens)


def _bases_under_three_kinds_of_order():
    """(kind, basis, order) under grevlex, a weight_from_pmd order and an
    elimination order, on LSS ideals and the Herzog ideal."""
    for g, d in ((complete(4), 3), (cycle(5), 3), (complete_bipartite(2, 3), 3),
                 (EXAMPLE, 3), (path(5), 3)):
        ring = ring_for(g.n, d)
        gens = [f for _, f in lss_generators(g, d, ring)]
        orders = [("grevlex", TermOrder.grevlex(ring)),
                  ("elimination", TermOrder.elimination(ring, ("y", 1, 1)))]
        res = pmd(g)
        if d >= res.value:
            orders.append(("pmd", weight_from_pmd(res.decomposition, ring)))
        for kind, order in orders:
            yield kind, buchberger(gens, order), order
    r = ring_for(3, 2)
    for kind, order in (("grevlex", TermOrder.grevlex(r)),
                        ("elimination", TermOrder.elimination(r, ("y", 2, 1)))):
        yield kind, buchberger(_herzog_ideal(r), order), order


def test_held_leads_are_the_leading_monomials():
    """Each basis element carries its own lead and support mask, and is
    monic there; the initial ideal read from the held leads is the one
    recomputed from the generators."""
    kinds = set()
    for kind, gb, order in _bases_under_three_kinds_of_order():
        kinds.add(kind)
        for g, lm, mask in gb.divisors:
            assert lm == leading_monomial(g, order) and g.terms[lm] == 1
            assert mask == sum(1 << i for i, e in enumerate(lm) if e)
        recomputed = MonomialIdeal(
            tuple(minimalize([leading_monomial(g, order) for g in gb.generators])),
            gb.ring.nvars)
        assert initial_ideal(gb) == recomputed
    assert kinds == {"grevlex", "pmd", "elimination"}


def test_membership_and_initial_ideal_read_the_held_leads(monkeypatch):
    import lssrings.groebner as groebner
    r = ring_for(3, 2)
    order = TermOrder.grevlex(r)
    gens = _herzog_ideal(r)
    gb = buchberger(gens, order)
    expect = initial_ideal(gb)

    def refuse(*_):
        raise AssertionError("leading monomial recomputed")
    monkeypatch.setattr(groebner, "leading_monomial", refuse)
    assert all(ideal_member(f, gb) for f in gens)
    assert not ideal_member(r.one(), gb)
    assert initial_ideal(gb) == expect


def test_spoly_normalises_non_monic_arguments():
    """spoly(f, g) = (lcm / lt(f)) f - (lcm / lt(g)) g for any nonzero f, g,
    with lt the leading term, coefficient included."""
    r = ring_for(3, 2)
    order = TermOrder.grevlex(r)
    f, g, _ = _herzog_ideal(r)
    for a, b in ((QQ(3), QQ(-2, 5)), (QQ(1), QQ(7)), (QQ(-1, 4), QQ(1))):
        fs, gs = f.scale(a), g.scale(b)
        flm, glm = leading_monomial(fs, order), leading_monomial(gs, order)
        lcm = tuple(map(max, flm, glm))
        ref = (fs.mul_monomial(tuple(x - y for x, y in zip(lcm, flm)), QQ(1) / fs.terms[flm])
               - gs.mul_monomial(tuple(x - y for x, y in zip(lcm, glm)), QQ(1) / gs.terms[glm]))
        assert spoly(fs, gs, order) == ref == spoly(f, g, order)


def test_initial_ideal_trivial_cases():
    r = ring_for(2, 2)
    order = TermOrder.grevlex(r)
    f = yvar(r, 1, 1) * yvar(r, 2, 1) + yvar(r, 1, 2) * yvar(r, 2, 2)
    principal = buchberger([f], order)
    mi = initial_ideal(principal)
    assert len(mi.gens) == 1
    mono = buchberger([yvar(r, 1, 1) * yvar(r, 1, 2)], order)
    assert initial_ideal(mono).gens == tuple(mono.generators[0].terms)


def test_monomial_dim_cases():
    two = MonomialIdeal(((1, 1),), 2)           # (y1*y2) in 2 variables
    assert dim_and_multiplicity(two) == (1, 2)
    unit = MonomialIdeal(((0, 0),), 2)
    assert dim_and_multiplicity(unit) == (-1, 0)
    zero = MonomialIdeal((), 3)
    assert dim_and_multiplicity(zero) == (3, 1)


def test_monomial_multiplicity_cases():
    quad = MonomialIdeal(((1, 1, 0),), 3)
    assert dim_and_multiplicity(quad) == (2, 2)
    # three pairwise-coprime quadrics in 12 variables: 2^3
    gens = []
    for k in range(3):
        m = [0] * 12
        m[4 * k] = m[4 * k + 1] = 1
        gens.append(tuple(m))
    mi = MonomialIdeal(tuple(minimalize(gens)), 12)
    assert dim_and_multiplicity(mi) == (9, 8)


def test_ideal_intersection_basics():
    r = ring_for(2, 2)
    order = TermOrder.grevlex(r)
    x, y = yvar(r, 1, 1), yvar(r, 2, 2)
    inter = ideal_intersection([x], [y], order)
    assert [str(p) for p in inter.generators] == ["y[1,1]*y[2,2]"]
    inter2 = ideal_intersection([x], [x, y], order)
    assert [str(p) for p in inter2.generators] == ["y[1,1]"]


def test_intersection_contains_products(all_n5):
    rng = random.Random(37)
    r = ring_for(2, 3)
    order = TermOrder.grevlex(r)
    vars_ = [yvar(r, v, c) for v in (1, 2) for c in (1, 2, 3)]
    for _ in range(6):
        gi = [rng.choice(vars_) * rng.choice(vars_) + rng.choice(vars_)]
        gj = [rng.choice(vars_) * rng.choice(vars_)]
        inter = ideal_intersection(gi, gj, order)
        for f in gi:
            for g in gj:
                assert ideal_member(f * g, inter)


def test_desk_scale_guard():
    big = Ring(tuple(("y", 1, c) for c in range(1, 42)))
    with pytest.raises(DeskScaleExceeded):
        buchberger([big.var(("y", 1, 1))], TermOrder.grevlex(big))


def test_ci_multiplicity():
    assert ci_multiplicity([2, 2, 2]) == 8
    assert ci_multiplicity([]) == 1
    assert ci_multiplicity([1, 2]) == 2


def _reference_dim(mi):
    """nvars minus the size of a least vertex cover of the generator
    supports, found by trying every subset of the support variables in
    order of size; -1 for the unit ideal."""
    if mi.is_unit:
        return -1
    supports = [{i for i, e in enumerate(m) if e} for m in mi.gens]
    universe = sorted(set().union(*supports))
    for size in range(len(universe) + 1):
        for cover in combinations(universe, size):
            if all(s.intersection(cover) for s in supports):
                return mi.nvars - size


def test_hilbert_numerator_matches_direct_counting():
    """Seeded random monomial ideals, zero, unit and non-squarefree ones
    included: the series expansion of the numerator over (1-t)^n
    reproduces the count of standard monomials per degree, and the
    dimension read off the numerator equals the least vertex cover's.
    Hand-made ideals, given unminimalized, add the recursion's edge
    cases."""
    from itertools import combinations_with_replacement
    from math import comb
    rng = random.Random(999)

    def direct(gens, nvars, deg):
        cnt = 0
        for combo in combinations_with_replacement(range(nvars), deg):
            mono = [0] * nvars
            for i in combo:
                mono[i] += 1
            if not any(all(g[i] <= mono[i] for i in range(nvars)) for g in gens):
                cnt += 1
        return cnt

    ideals = []
    for k in range(200):
        nvars = rng.randint(1, 6)
        gens = []
        for _ in range(rng.randint(1, 6)):
            m = [0] * nvars
            for i in rng.sample(range(nvars), rng.randint(1, nvars)):
                m[i] = rng.randint(1, 3)
            gens.append(tuple(m))
        if k % 25 == 0:
            gens.append((0,) * nvars)
        elif k % 25 == 1:
            gens = []
        ideals.append(MonomialIdeal(tuple(minimalize(gens)), nvars))
    ideals += [MonomialIdeal(gens, 3) for gens in (
        # y0 among its multiples: I : y0 would contain 1 had the entry not
        # minimalized, and the unit ideal given with other generators
        ((0, 1, 1), (1, 1, 0), (1, 0, 0), (2, 0, 2)),
        ((1, 1, 0), (0, 0, 0), (0, 2, 1)),
        # the pivot is y0 (y0*y2 and y0*y1 come first and share it), and
        # in I : y0 the lowered y1 divides y1^2*y2, which is free of y0
        ((1, 1, 0), (1, 0, 1), (0, 2, 1)),
        ((2, 1, 0), (1, 0, 2), (0, 1, 1), (1, 2, 1)),
    )]
    kinds = {"zero": 0, "unit": 0, "non-squarefree": 0, "height >= 3": 0}
    for mi in ideals:
        nvars = mi.nvars
        num = hilbert_numerator(mi)
        series = [0] * 7
        for i, c in enumerate(num):
            if c and i <= 6:
                for j in range(7 - i):
                    series[i + j] += c * comb(nvars - 1 + j, j)
        assert series == [direct(mi.gens, nvars, d) for d in range(7)], mi
        dim, e = dim_and_multiplicity(mi)
        assert dim == _reference_dim(mi), mi
        assert e > 0 or mi.is_unit
        kinds["zero"] += not mi.gens
        kinds["unit"] += mi.is_unit
        kinds["non-squarefree"] += any(e > 1 for m in mi.gens for e in m)
        kinds["height >= 3"] += dim <= nvars - 3
    assert min(kinds.values()) >= 5, kinds


def test_hilbert_numerator_past_the_support_bit_table():
    """Support masks stay exact past the MAX_VARS variables of their bit
    table: the pivot of (y0*z, y1*z) is z, the 45th variable, and the
    numerator is N((z)) + t * N((y0, y1)) = 1 - 2t^2 + t^3."""
    z = (0,) * 44 + (1,)
    gens = (z[:1] + (1,) + z[2:], (1,) + z[1:])
    assert hilbert_numerator(MonomialIdeal(gens, 45)) == [1, 0, -2, 1]


def test_groebner_entry_points_refuse_another_ring():
    """A polynomial from another ring than the term order's raises, as in
    `initial_form`; the two rings here differ in their number of variables."""
    r2, r3 = ring_for(2, 2), ring_for(3, 2)
    order = TermOrder.grevlex(r2)
    f2 = yvar(r2, 1, 1) * yvar(r2, 2, 1)
    f3 = yvar(r3, 1, 1) * yvar(r3, 3, 1)
    gb = buchberger([f2], order)
    for call in (lambda: buchberger([f2, f3], order),
                 lambda: buchberger([f2, r3.zero()], order),
                 lambda: normal_form(f3, [f2], order),
                 lambda: normal_form(f2, [f3], order),
                 lambda: ideal_member(f3, gb),
                 lambda: spoly(f2, f3, order),
                 lambda: ideal_intersection([f2], [f3], order)):
        with pytest.raises(ValueError, match="another ring"):
            call()
    assert ideal_member(f2, gb) and normal_form(f2, [f2], order).is_zero()


def test_oracle_agreement_on_dense_small_graphs(all_n5):
    """Solver equals brute force on the 7..10-edge graphs inside the guard."""
    from lssrings.pmd import pmd, pmd_bruteforce
    for g in all_n5:
        if 7 <= g.m <= 10:
            assert pmd(g).value == pmd_bruteforce(g), g.edge_labels()


def _to_sympy(f, syms):
    import sympy as sp
    expr = sp.Integer(0)
    for mono, c in f.terms.items():
        t = sp.Rational(int(c.numerator), int(c.denominator))
        for i, e in enumerate(mono):
            if e:
                t *= syms[i] ** e
        expr += t
    return expr


def _from_sympy(e, ring, syms):
    import sympy as sp
    from sympy.polys.orderings import grevlex as sp_grevlex
    p = sp.Poly(e, *syms)
    terms = sorted(p.terms(), key=lambda t: sp_grevlex(t[0]), reverse=True)
    lc = sp.Rational(terms[0][1])
    out = {}
    for mono, coeff in terms:
        q = sp.Rational(coeff) / lc
        out[tuple(mono)] = QQ(int(q.p), int(q.q))
    return Polynomial(ring, out)


def test_reduced_bases_match_sympy_on_random_ideals():
    """Reduced Groebner bases are unique, so an independent engine must
    reproduce them exactly."""
    import sympy as sp
    rng = random.Random(77)
    agree = 0
    for _ in range(25):
        n, d = rng.choice([(2, 2), (3, 2), (2, 3)])
        ring = ring_for(n, d)
        syms = [sp.Symbol(f"y_{t[1]}_{t[2]}") for t in ring.tokens]
        order = TermOrder.grevlex(ring)
        gens = []
        for _ in range(rng.randint(2, 4)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.choices([0, 1, 2], weights=[6, 3, 1], k=ring.nvars))
                terms[mono] = QQ(rng.randint(-3, 3))
            f = Polynomial(ring, terms)
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        mine = sorted(buchberger(gens, order).generators,
                      key=lambda f: sorted(f.terms))
        gb = sp.groebner([_to_sympy(f, syms) for f in gens], *syms, order="grevlex")
        theirs = sorted((_from_sympy(e, ring, syms) for e in gb.exprs),
                        key=lambda f: sorted(f.terms))
        assert len(mine) == len(theirs)
        assert all(a == b for a, b in zip(mine, theirs))
        agree += 1
    assert agree >= 15


def test_edge_quadric_bases_match_sympy():
    import sympy as sp
    for g, d in ((path(4), 3), (star(3), 4), (complete(4), 3)):
        ring = ring_for(g.n, d)
        syms = [sp.Symbol(f"y_{t[1]}_{t[2]}") for t in ring.tokens]
        gens = [f for _, f in lss_generators(g, d, ring)]
        mine = sorted(buchberger(gens, TermOrder.grevlex(ring)).generators,
                      key=lambda f: sorted(f.terms))
        gb = sp.groebner([_to_sympy(f, syms) for f in gens], *syms, order="grevlex")
        theirs = sorted((_from_sympy(e, ring, syms) for e in gb.exprs),
                        key=lambda f: sorted(f.terms))
        assert len(mine) == len(theirs)
        assert all(a == b for a, b in zip(mine, theirs))


def test_weighted_basis_is_invariant_under_scaling():
    """The weight_from_pmd weights are integers; the same weights times 7
    give the same order and the same basis."""
    d = 3
    ring = ring_for(EXAMPLE.n, d)
    order = weight_from_pmd(pmd(EXAMPLE).decomposition, ring)
    scaled = TermOrder(ring, tuple(7 * w for w in order.weights))
    for o in (order, scaled):
        assert all(type(w) is int for w in o.weights)
        assert type(o.key((1,) * ring.nvars)[0]) is int
    gens = [f for _, f in lss_generators(EXAMPLE, d, ring)]
    assert buchberger(gens, order).generators == buchberger(gens, scaled).generators


def test_intersection_generators_lie_in_both_ideals():
    rng = random.Random(53)
    r = ring_for(2, 3)
    order = TermOrder.grevlex(r)
    vars_ = [yvar(r, v, c) for v in (1, 2) for c in (1, 2, 3)]
    for _ in range(8):
        gi = [rng.choice(vars_) * rng.choice(vars_) + rng.choice(vars_),
              rng.choice(vars_)]
        gj = [rng.choice(vars_) * rng.choice(vars_) - rng.choice(vars_)]
        inter = ideal_intersection(gi, gj, order)
        gb_i = buchberger(gi, order)
        gb_j = buchberger(gj, order)
        for f in inter.generators:
            assert ideal_member(f, gb_i)
            assert ideal_member(f, gb_j)


# ---------------------------------------------------------------------------
# reference division: the textbook loop, kept as an oracle for normal_form

def _reference_normal_form(f, basis, order):
    """Divide the leading term of the whole working polynomial, one
    Polynomial per step, by the first divisor whose lead divides it."""
    from lssrings.poly import leading_monomial
    divisors = [(g, leading_monomial(g, order)) for g in basis if not g.is_zero()]
    rem = {}
    work = f
    while not work.is_zero():
        m = leading_monomial(work, order)
        c = work.terms[m]
        for g, glm in divisors:
            diff = tuple(a - b for a, b in zip(m, glm))
            if all(e >= 0 for e in diff):
                work = work - g.mul_monomial(diff, QQ(c) / g.terms[glm])
                break
        else:
            rem[m] = c
            work = Polynomial(work.ring, {k: v for k, v in work.terms.items() if k != m})
    return Polynomial(f.ring, rem)


def _random_poly(rng, ring, terms, weights=(8, 3, 1)):
    return Polynomial(ring, {
        tuple(rng.choices([0, 1, 2], weights=weights, k=ring.nvars)):
        QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(terms)})


def _three_orders(ring, g, d):
    """grevlex, the weight_from_pmd order of g at d, and an elimination order."""
    return (TermOrder.grevlex(ring), weight_from_pmd(pmd(g).decomposition, ring),
            TermOrder.elimination(ring, ring.tokens[-1]))


def test_heap_key_reverses_the_term_order():
    rng = random.Random(5)
    ring = ring_for(EXAMPLE.n, 3)
    for order in _three_orders(ring, EXAMPLE, 3):
        monos = [tuple(rng.choices([0, 1, 2], k=ring.nvars)) for _ in range(40)]
        assert (sorted(monos, key=order.heap_key)
                == sorted(monos, key=order.key, reverse=True))


def test_normal_form_matches_reference_division():
    """Divisor lists that are not Groebner bases make divisor order
    matter; the remainders must agree term for term under each order."""
    rng = random.Random(2024)
    ring = ring_for(EXAMPLE.n, 3)
    divided = order_matters = 0
    for order in _three_orders(ring, EXAMPLE, 3):
        for _ in range(40):
            divs = [_random_poly(rng, ring, rng.randint(1, 3), weights=(16, 3, 1))
                    for _ in range(rng.randint(2, 4))]
            f = _random_poly(rng, ring, rng.randint(0, 3))
            for h in divs:
                f = f + _random_poly(rng, ring, rng.randint(1, 2), weights=(12, 2, 0)) * h
            mine = normal_form(f, divs, order)
            ref = _reference_normal_form(f, divs, order)
            assert mine == ref
            assert list(mine.terms) == list(ref.terms)
            divided += ref != f
            order_matters += ref != _reference_normal_form(f, divs[::-1], order)
    assert divided >= 100 and order_matters >= 15


def test_reduced_basis_under_weighted_and_elimination_orders():
    """Without sympy: the inputs reduce to 0, every S-polynomial reduces
    to 0, generators are monic, and no term of a generator is divisible
    by another generator's leading monomial."""
    from lssrings.poly import leading_monomial
    rng = random.Random(88)
    g = path(3)
    for d in (2, 3):
        ring = ring_for(g.n, d)
        for order in _three_orders(ring, g, d)[1:]:
            for _ in range(6):
                gens = [f for f in (_random_poly(rng, ring, rng.randint(1, 3), (6, 3, 1))
                                    for _ in range(rng.randint(2, 4))) if not f.is_zero()]
                basis = buchberger(gens, order).generators
                lms = [leading_monomial(h, order) for h in basis]
                for f in gens:
                    assert _reference_normal_form(f, basis, order).is_zero()
                for i, j in ((i, j) for i in range(len(basis)) for j in range(i)):
                    s = spoly(basis[i], basis[j], order)
                    assert _reference_normal_form(s, basis, order).is_zero()
                for i, h in enumerate(basis):
                    assert h.terms[lms[i]] == 1
                    assert not any(k != i and all(a <= b for a, b in zip(lms[k], m))
                                   for m in h.terms for k in range(len(basis)))


def _basis_digest(gens) -> str:
    """SHA-256 of the sorted per-generator (monomial, numerator,
    denominator) rows: the values of a basis, not its representation."""
    rows = sorted(tuple(sorted((m, c.numerator, c.denominator) for m, c in g.terms.items()))
                  for g in gens)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _canonical_coefficients(polys) -> bool:
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for f in polys for c in f.terms.values())


def _grevlex_basis(g, d):
    ring = ring_for(g.n, d)
    return buchberger([f for _, f in lss_generators(g, d, ring)], TermOrder.grevlex(ring))


# `_basis_digest` of the grevlex bases of K_n at d, as Fraction-only
# arithmetic computed them
BASIS_DIGESTS = {
    (4, 5): "7ae824f0e7c9a86026a9b77e992e85b425f49d11a53456cbb2964a8d3d86ad6a",
    (5, 3): "94e51ad3ad00f108af3041cafdf715817e5f844983a24f293e75e74919b885dd",
}


# multiplicity of the grevlex initial ideal of K_n at d
MULTIPLICITIES = {(4, 5): 64, (5, 3): 50}


@pytest.mark.parametrize("n, d, size, dim", [(4, 5, 37, 14), (5, 3, 135, 7)])
def test_complete_graph_ring_pins(n, d, size, dim):
    """K4 is a complete intersection at d = 5 (dim = nd - m, e = 2^m); K5
    is not at d = 3 (dim 7, nd - m = 5). The bases are pinned by value,
    and every coefficient of both is an int."""
    gb = _grevlex_basis(complete(n), d)
    assert len(gb.generators) == size
    mi = initial_ideal(gb)
    assert dim_and_multiplicity(mi) == (dim, MULTIPLICITIES[n, d])
    assert _reference_dim(mi) == dim
    assert _basis_digest(gb.generators) == BASIS_DIGESTS[n, d]
    assert all(type(c) is int for f in gb.generators for c in f.terms.values())


@pytest.mark.parametrize("g, dim, e", [(complete(4), 6, 64),
                                      (complete_bipartite(2, 3), 10, 12),
                                      (cycle(5), 10, 32)])
def test_grevlex_initial_ideal_pins_at_d3(g, dim, e):
    """(dim, e) of the grevlex initial ideal at d = 3: K4 and C5 are
    complete intersections there (dim = nd - m, e = 2^m), K2,3 is not
    (dim 10 against nd - m = 9)."""
    mi = initial_ideal(_grevlex_basis(g, 3))
    assert dim_and_multiplicity(mi) == (dim, e)
    assert _reference_dim(mi) == dim


# Hilbert numerators of grevlex initial ideals; K4 and C5 are the complete
# intersection ones, (1 - t^2)^6 and (1 - t^2)^5
NUMERATORS = {
    ("K4", 3): [1, 0, -6, 0, 15, 0, -20, 0, 15, 0, -6, 0, 1],
    ("K4", 4): [1, 0, -6, 0, 15, 0, -20, 0, 15, 0, -6, 0, 1],
    ("K4", 5): [1, 0, -6, 0, 15, 0, -20, 0, 15, 0, -6, 0, 1],
    ("K5", 3): [1, 0, -10, 0, 45, 29, -285, 320, 95, -410, 224, 60, -85, 5, 15, -4],
    ("K2,3", 3): [1, 0, -6, 0, 15, 6, -45, 36, 0, -10, 3],
    ("C5", 3): [1, 0, -5, 0, 10, 0, -10, 0, 5, 0, -1],
}
GRAPHS = {"K4": complete(4), "K5": complete(5), "K2,3": complete_bipartite(2, 3),
          "C5": cycle(5)}


@pytest.mark.parametrize("name, d", sorted(NUMERATORS))
def test_grevlex_hilbert_numerator_pins(name, d):
    mi = initial_ideal(_grevlex_basis(GRAPHS[name], d))
    assert hilbert_numerator(mi) == NUMERATORS[name, d]


def test_integer_data_keeps_int_coefficients():
    """Edge quadrics and determinants have integer coefficients, and so do
    the K4 basis at d = 3 and the normal forms behind `verify D`."""
    gb = _grevlex_basis(complete(4), 3)
    assert len(gb.generators) == 37
    assert all(type(c) is int for f in gb.generators for c in f.terms.values())
    for g, v, d in ((path(3), 3, 2), (star(2), 3, 2), (complete(4), 1, 3)):
        ring = ring_for(g.n, d)
        det = matrix_D(g, v, d, ring)
        rem = normal_form(det, _grevlex_basis(g, d).generators, TermOrder.grevlex(ring))
        assert verify_D_nonzero(g, v, d) and not rem.is_zero()
        assert all(type(c) is int for f in (det, rem) for c in f.terms.values())


@pytest.mark.parametrize("lead", [3, -2])
def test_non_unit_leads_give_exact_fractions(lead):
    """A leading coefficient other than +-1 makes Fractions, exactly the
    ones sympy finds, and no integral Fraction is left behind."""
    import sympy as sp
    r = ring_for(3, 2)
    y = lambda v, c: yvar(r, v, c)
    gens = [(y(1, 1) * y(2, 1)).scale(lead) + y(1, 2) * y(2, 2),
            (y(3, 1) * y(2, 1)).scale(lead + 1) + y(3, 2) * y(2, 2),
            y(1, 1) * y(3, 2) - y(1, 2) * y(3, 1)]
    order = TermOrder.grevlex(r)
    gb = buchberger(gens, order)
    assert _canonical_coefficients(gb.generators)
    assert any(type(c) is Fraction for f in gb.generators for c in f.terms.values())
    assert all(normal_form(f, gb.generators, order).is_zero() for f in gens)
    syms = [sp.Symbol(f"y_{t[1]}_{t[2]}") for t in r.tokens]
    ref = sp.groebner([_to_sympy(f, syms) for f in gens], *syms, order="grevlex")
    theirs = [_from_sympy(e, r, syms) for e in ref.exprs]
    assert _basis_digest(gb.generators) == _basis_digest(theirs)


def test_basis_size_guard(monkeypatch):
    import lssrings.groebner as groebner
    monkeypatch.setattr(groebner, "MAX_BASIS", 10)
    ring = ring_for(4, 3)
    with pytest.raises(DeskScaleExceeded, match="basis exceeded 10"):
        buchberger([f for _, f in lss_generators(complete(4), 3, ring)],
                   TermOrder.grevlex(ring))
