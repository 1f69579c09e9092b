"""Polynomials, term orders, the edge quadrics, and the weight construction."""

import random
from fractions import Fraction as QQ

import pytest

from lssrings.graphs import parse_edge_list, path, star
from lssrings.pmd import pmd
from lssrings.poly import (Polynomial, TermOrder, initial_form,
                           leading_monomial, lss_generators, matrix_D,
                           pairwise_coprime_squarefree, ring_for,
                           weight_from_pmd, yvar)

EXAMPLE = parse_edge_list("4\n1 2\n2 3\n2 4\n3 4")


def test_arithmetic_basics():
    r = ring_for(2, 2)
    x, y = yvar(r, 1, 1), yvar(r, 2, 2)
    f = x + y
    assert f + r.zero() == f
    assert (f * r.one()) == f
    sq = f * f
    assert len(sq) == 3
    assert sq == x * x + (x * y).scale(QQ(2)) + y * y
    assert (f - f).is_zero()


def test_lss_generators_k2():
    r = ring_for(2, 2)
    gens = lss_generators(parse_edge_list("2\n1 2"), 2, r)
    assert len(gens) == 1
    (edge, f) = gens[0]
    assert edge == (1, 2)
    assert f == yvar(r, 1, 1) * yvar(r, 2, 1) + yvar(r, 1, 2) * yvar(r, 2, 2)


def test_lss_generators_example_graph_displayed_form():
    d = 3
    r = ring_for(4, d)
    gens = dict(lss_generators(EXAMPLE, d, r))
    assert set(gens) == {(1, 2), (2, 3), (2, 4), (3, 4)}
    for (i, j), f in gens.items():
        assert len(f) == d
        assert all(c == 1 for c in f.terms.values())
        expected = r.zero()
        for c in range(1, d + 1):
            expected = expected + yvar(r, i, c) * yvar(r, j, c)
        assert f == expected
    assert lss_generators(parse_edge_list("3"), 2) == []


def test_initial_form_basics():
    r = ring_for(1, 2)
    x, y = yvar(r, 1, 1), yvar(r, 1, 2)
    f = x + y
    assert initial_form(f, TermOrder(r, (1, 0))) == x
    assert initial_form(f, TermOrder.grevlex(r)) == f
    # weights are positional: an order on another ring is refused
    with pytest.raises(ValueError, match="another ring"):
        initial_form(f, TermOrder.grevlex(ring_for(2, 2)))
    with pytest.raises(ValueError, match="another ring"):
        initial_form(x, weight_from_pmd(pmd(EXAMPLE).decomposition, ring_for(4, 3)))


def test_weight_from_pmd_example_underlined_terms():
    res = pmd(EXAMPLE)
    d = 3
    r = ring_for(4, d)
    order = weight_from_pmd(res.decomposition, r)
    expected = {(1, 2): ((1, 1), (2, 1)), (3, 4): ((3, 1), (4, 1)),
                (2, 3): ((2, 2), (3, 2)), (2, 4): ((2, 3), (4, 3))}
    monos = []
    for edge, f in lss_generators(EXAMPLE, d, r):
        ini = initial_form(f, order)
        a, b = expected[edge]
        assert ini == yvar(r, *a) * yvar(r, *b)
        monos.append(next(iter(ini.terms)))
    assert pairwise_coprime_squarefree(monos)


def test_weight_from_pmd_single_edge_and_star():
    g = parse_edge_list("2\n1 2")
    res = pmd(g)
    (edge, f) = lss_generators(g, 1)[0]
    order = weight_from_pmd(res.decomposition, f.ring)
    assert initial_form(f, order) == f     # one column: f is its own form
    s = star(3)
    rs = pmd(s)
    d = 3
    ring = ring_for(4, d)
    order = weight_from_pmd(rs.decomposition, ring)
    for edge, f in lss_generators(s, d, ring):
        ini = initial_form(f, order)
        assert len(ini) == 1
        l = next(l for l, part in enumerate(rs.decomposition.parts, start=1)
                 if edge in part)
        assert ini == yvar(ring, edge[0], l) * yvar(ring, edge[1], l)


def test_weight_from_pmd_rejects_small_d():
    res = pmd(EXAMPLE)
    with pytest.raises(ValueError, match="need d >="):
        weight_from_pmd(res.decomposition, ring_for(4, 2))


def _rational_weights(dec):
    """The rational construction the integer weights replace, as a reference:
    1 + w_l(v)/B^l on y[v,l] for the certified and covered vertices, l <= p,
    with B above every |edge sum| and every |w_l(v)|."""
    all_edges = [e for part in dec.parts for e in part]
    vertices = ({v for c in dec.certificates for v, _ in c.weights}
                | {v for e in all_edges for v in e})
    big = 1
    for cert in dec.certificates:
        w = dict(cert.weights)
        for (i, j) in all_edges:
            big = max(big, abs(w.get(i, 0) + w.get(j, 0)))
        big = max([big] + [abs(x) for x in w.values()])
    big += 1
    weights = {}
    for l, cert in enumerate(dec.certificates, start=1):
        w = dict(cert.weights)
        for v in vertices:
            weights[("y", v, l)] = QQ(1) + QQ(w.get(v, 0)) * QQ(1, big ** l)
    return weights, big


def test_integer_weights_are_the_rational_ones_times_b_to_the_p(connected_n6):
    """Entry for entry, the integer weights equal B^p times the rational
    weights 1 + w_l(v)/B^l (0 on absent tokens), at d = pmd and pmd + 1.
    TermOrder refuses a negative weight, which a B bounding only the edge
    sums gave on two of these graphs (one is the path 5-1-2-3-4)."""
    checked = 0
    for g in connected_n6:
        if g.m == 0:
            continue
        dec = pmd(g).decomposition
        p = len(dec.parts)
        for d in (p, p + 1):
            ring = ring_for(g.n, d)
            rational, big = _rational_weights(dec)
            want = tuple(rational.get(t, QQ(0)) * big ** p for t in ring.tokens)
            order = weight_from_pmd(dec, ring)
            assert all(type(w) is int for w in order.weights)
            assert order.weights == want
            checked += 1
    assert checked == 2 * 142
    # a ring with a vertex off the decomposition: its variables weigh 0
    dec = pmd(EXAMPLE).decomposition
    ring = ring_for(5, 3)
    rational, big = _rational_weights(dec)
    order = weight_from_pmd(dec, ring)
    assert order.weights == tuple(rational.get(t, QQ(0)) * big ** 3 for t in ring.tokens)
    assert order.weights[-3:] == (0, 0, 0)


def test_leading_monomial_grevlex_ties():
    r = ring_for(2, 2)
    order = TermOrder.grevlex(r)
    # same degree: the monomial avoiding the least significant variable wins
    a = yvar(r, 1, 1) * yvar(r, 1, 2)
    b = yvar(r, 1, 1) * yvar(r, 2, 2)
    f = a + b
    assert leading_monomial(f, order) == next(iter(a.terms))
    with pytest.raises(ValueError):
        leading_monomial(r.zero(), order)


def test_pairwise_coprime_squarefree():
    r = ring_for(4, 3)
    m = lambda *vs: next(iter(_prod(r, vs).terms))
    assert pairwise_coprime_squarefree([m((1, 1), (2, 1)), m((2, 2), (3, 2))])
    assert not pairwise_coprime_squarefree([m((1, 1), (2, 1)), m((1, 1), (3, 1))])
    assert not pairwise_coprime_squarefree([m((1, 1), (1, 1))])


def _prod(r, vs):
    out = r.one()
    for v in vs:
        out = out * yvar(r, *v)
    return out


def test_matrix_d_leaf_case():
    d2 = matrix_D(path(3), 3, 2)
    r = ring_for(3, 2)
    assert d2 == yvar(r, 2, 2)


def test_matrix_d_two_by_two():
    s = star(2)                             # center vertex 3
    det = matrix_D(s, 3, 2)
    r = ring_for(3, 2)
    expected = yvar(r, 1, 1) * yvar(r, 2, 2) - yvar(r, 1, 2) * yvar(r, 2, 1)
    assert det == expected


def test_matrix_d_term_structure():
    # t! terms, coefficients +-1, every term uses t distinct columns
    for t, terms in ((3, 6), (6, 720)):
        s = star(t)                         # center vertex t + 1, d = t
        det = matrix_D(s, t + 1, t)
        assert len(det) == terms
        assert all(c in (QQ(1), QQ(-1)) for c in det.terms.values())
        r = ring_for(t + 1, t)
        for mono in det.terms:
            cols = [r.tokens[i][2] for i, e in enumerate(mono) if e]
            assert len(cols) == t and len(set(cols)) == t


def test_matrix_d_errors_and_empty():
    with pytest.raises(ValueError, match="exceeds"):
        matrix_D(star(3), 4, 2)             # deg 3 > d = 2
    from lssrings.graphs import Graph
    lonely = Graph.from_edges(3, [(1, 2)])  # vertex 3 isolated: 0x0 block
    assert matrix_D(lonely, 3, 1) == ring_for(3, 1).one()


def test_term_order_axioms_random():
    rng = random.Random(19)
    r = ring_for(3, 2)
    one = (0,) * r.nvars
    for _ in range(40):
        w = tuple(rng.randint(0, 5) for _ in range(r.nvars))
        order = TermOrder(r, w)
        monos = [tuple(rng.randint(0, 3) for _ in range(r.nvars)) for _ in range(6)]
        for m in monos:
            if m != one:
                assert order.key(one) < order.key(m)
        ga = tuple(rng.randint(0, 2) for _ in range(r.nvars))
        for a in monos:
            for b in monos:
                if order.key(a) < order.key(b):
                    at = tuple(x + y for x, y in zip(a, ga))
                    bt = tuple(x + y for x, y in zip(b, ga))
                    assert order.key(at) < order.key(bt)


def test_term_order_refuses_invalid_weights():
    """One weight per variable, each an int >= 0: a short vector would be
    truncated, and a negative weight ranks y[1,1]^2 below 1."""
    r = ring_for(2, 2)
    with pytest.raises(ValueError, match="need 4 weights, got 1"):
        TermOrder(r, (1,))
    with pytest.raises(ValueError, match="ints >= 0"):
        TermOrder(r, (-1, 0, 0, 0))
    with pytest.raises(ValueError, match="ints >= 0"):
        TermOrder(r, (QQ(1, 2), 0, 0, 0))
    assert TermOrder(r, (2, 0, 1, 0)).weight((1, 1, 1, 1)) == 3


def test_initial_form_multiplicative():
    rng = random.Random(29)
    r = ring_for(2, 3)
    for _ in range(25):
        w = TermOrder(r, tuple(rng.randint(0, 4) for _ in r.tokens))
        f = _random_poly(r, rng)
        g = _random_poly(r, rng)
        if f.is_zero() or g.is_zero():
            continue
        assert initial_form(f * g, w) == initial_form(f, w) * initial_form(g, w)


def _random_poly(r, rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, 2) for _ in range(r.nvars))
        terms[mono] = QQ(rng.randint(-3, 3))
    return Polynomial(r, terms)


def test_render_and_json_stable():
    r = ring_for(2, 2)
    f = yvar(r, 1, 1) * yvar(r, 2, 1) + yvar(r, 1, 2) * yvar(r, 2, 2).scale(QQ(-2))
    s = str(f)
    assert s == "y[1,1]*y[2,1] - 2*y[1,2]*y[2,2]"
