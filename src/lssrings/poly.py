"""Sparse multivariate polynomials over exact rationals in y[v,c] variables.

A coefficient is a plain ``int`` when it is integral and a
``fractions.Fraction`` only otherwise. The sources (variables,
the unit, edge quadrics, determinants) build ints, Python keeps
int-by-int arithmetic in ``int``, and ``Polynomial.scale``, the one
place that divides, turns every integral result back into an ``int``;
so one code path serves both kinds, with no type test.

A Ring fixes the variable order (vertex-major, column-minor, so y[1,1]
is the most significant variable); monomials are dense exponent tuples
over that order. Term comparison is an integer weight vector refined by
graded reverse lexicographic order, which is also how elimination
orders are expressed (weight 1 on the variable to eliminate). Weights
are integers >= 0 throughout; ``weight_from_pmd`` builds them straight from
the integer stage certificates of a decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg

from .graphs import Graph


class Ring:
    """Ordered list of variable tokens, most significant first."""

    __slots__ = ("tokens", "index", "nvars")

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self.nvars = len(self.tokens)
        if len(self.index) != self.nvars:
            raise ValueError("duplicate variable token")

    def var(self, token) -> "Polynomial":
        expo = [0] * self.nvars
        expo[self.index[token]] = 1
        return Polynomial(self, {tuple(expo): 1})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: 1})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def monomial_str(self, mono) -> str:
        factors = []
        for i, e in enumerate(mono):
            if e:
                t = self.tokens[i]
                name = f"y[{t[1]},{t[2]}]" if t[0] == "y" else str(t[0])
                factors.append(name if e == 1 else f"{name}^{e}")
        return "*".join(factors) if factors else "1"

    def __eq__(self, other):
        return isinstance(other, Ring) and self.tokens == other.tokens

    def __repr__(self):
        return f"Ring({self.nvars} vars)"


def ring_for(n: int, d: int) -> Ring:
    """Polynomial ring on y[v,c] for v in 1..n, c in 1..d."""
    if d < 1:
        raise ValueError("need d >= 1")
    return Ring(tuple(("y", v, c) for v in range(1, n + 1) for c in range(1, d + 1)))


def yvar(ring: Ring, v: int, c: int) -> "Polynomial":
    return ring.var(("y", v, c))


def grevlex_key(mono):
    return (sum(mono), tuple(map(neg, reversed(mono))))


@dataclass(frozen=True)
class TermOrder:
    """Integer weight vector refined by grevlex; zero weights give plain grevlex."""

    ring: Ring
    weights: tuple[int, ...]

    def __post_init__(self):
        # a negative weight ranks some monomial below 1, which is not a
        # well-order, so division need not terminate
        if len(self.weights) != self.ring.nvars:
            raise ValueError(f"need {self.ring.nvars} weights, got {len(self.weights)}")
        if not all(isinstance(w, int) and w >= 0 for w in self.weights):
            raise ValueError(f"weights must be ints >= 0, got {self.weights}")

    @staticmethod
    def grevlex(ring: Ring) -> "TermOrder":
        return TermOrder(ring, (0,) * ring.nvars)

    @staticmethod
    def elimination(ring: Ring, token) -> "TermOrder":
        """Block order eliminating one variable (weight 1 there, 0 elsewhere)."""
        w = [0] * ring.nvars
        w[ring.index[token]] = 1
        return TermOrder(ring, tuple(w))

    def weight(self, mono) -> int:
        return sum(map(mul, self.weights, mono))

    def key(self, mono):
        return (self.weight(mono),) + grevlex_key(mono)

    def heap_key(self, mono):
        """key(mono) negated entry by entry: heapq's smallest is the largest term."""
        return (-self.weight(mono), -sum(mono), mono[::-1])


class Polynomial:
    """Immutable-by-convention map monomial -> nonzero coefficient (int or Fraction)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                s = out.get(m, 0) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    def scale(self, q) -> "Polynomial":
        """Every coefficient times q, exactly; integral products become ints."""
        q = Fraction(q)
        out = {}
        for m, c in self.terms.items():
            x = c * q
            out[m] = x.numerator if x.denominator == 1 else x
        return Polynomial(self.ring, out)

    def mul_monomial(self, mono, coeff) -> "Polynomial":
        return Polynomial(self.ring, {
            tuple(map(add, m, mono)): c * coeff for m, c in self.terms.items()
        })

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            ms = self.ring.monomial_str(m)
            if ms == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = ms
            else:
                body = f"{abs(c)}*{ms}"
            if not chunks:
                chunks.append(("-" if c < 0 else "") + body)
            else:
                chunks.append(("- " if c < 0 else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# leading terms and initial forms

def initial_form(f: Polynomial, order: TermOrder) -> Polynomial:
    """Sum of the terms of f attaining the maximal weight under ``order``."""
    if order.ring != f.ring:
        raise ValueError("term order is built on another ring")
    if f.is_zero():
        return f
    weight = {m: order.weight(m) for m in f.terms}
    top = max(weight.values())
    return Polynomial(f.ring, {m: c for m, c in f.terms.items() if weight[m] == top})


def leading_monomial(f: Polynomial, order: TermOrder):
    """The order-maximal monomial of f, as an exponent tuple."""
    if f.is_zero():
        raise ValueError("leading monomial of the zero polynomial")
    return max(f.terms, key=order.key)


def pairwise_coprime_squarefree(monomials) -> bool:
    """True iff every monomial is squarefree and supports are pairwise disjoint."""
    seen: set[int] = set()
    for m in monomials:
        for i, e in enumerate(m):
            if e > 1 or (e == 1 and i in seen):
                return False
            if e:
                seen.add(i)
    return True


# ---------------------------------------------------------------------------
# edge quadrics

def lss_generators(g: Graph, d: int, ring: Ring | None = None):
    """One quadric per edge: the sum over columns of the endpoint products."""
    if d < 1:
        raise ValueError("need d >= 1")
    ring = ring or ring_for(g.n, d)
    out = []
    for (i, j) in g.edge_labels():
        terms = {}
        for c in range(1, d + 1):
            expo = [0] * ring.nvars
            expo[ring.index[("y", i, c)]] += 1
            expo[ring.index[("y", j, c)]] += 1
            terms[tuple(expo)] = 1
        out.append(((i, j), Polynomial(ring, terms)))
    return out


def weight_from_pmd(dec, ring: Ring) -> TermOrder:
    """Integer weights making the column-l quadric term lead for every part-l edge.

    With p parts, integer stage certificates w_l and B exceeding every
    |edge sum| and every |w_l(v)|, y[v,l] weighs B^p + w_l(v)*B^(p-l)
    for l <= p, which is above B^p - B^(p-l+1) >= 0; columns past the
    part count and vertices off the decomposition weigh 0. For
    an edge {i,j} of the l-th part, the column-c term weighs
    2*B^p + (w_c(i) + w_c(j))*B^(p-c). The edge sum is >= 1 at c = l, so
    that column weighs at least 2*B^p + B^(p-l); it is <= -1 at earlier
    columns (weight below 2*B^p) and at most B - 1 at later ones (weight
    below 2*B^p + B^(p-c+1) <= 2*B^p + B^(p-l)); truncated columns weigh
    0. The conclusion is machine-checked by the callers rather than
    trusted.
    """
    p = len(dec.parts)
    if max((t[2] for t in ring.tokens), default=0) < p:
        raise ValueError(f"need d >= number of parts ({p})")
    certs = [dict(cert.weights) for cert in dec.certificates]
    edges = [e for part in dec.parts for e in part]
    vertices = {v for w in certs for v in w} | {v for e in edges for v in e}
    big = 1 + max([1] + [abs(w.get(i, 0) + w.get(j, 0)) for w in certs for (i, j) in edges]
                  + [abs(x) for w in certs for x in w.values()])
    return TermOrder(ring, tuple(
        big ** p + certs[l - 1].get(v, 0) * big ** (p - l)
        if l <= p and v in vertices else 0
        for _, v, l in ring.tokens))


# ---------------------------------------------------------------------------
# the localization determinant

def matrix_D(g: Graph, v: int, d: int, ring: Ring | None = None) -> Polynomial:
    """Determinant of the generic t x t block on v's neighbors and the last
    t columns, where t = deg(v). Neighbors are taken in sorted order as
    the rows; columns run d-t+1..d. The 0 x 0 case is the unit.
    """
    nb = g.neighbors_of(v)
    t = len(nb)
    if t > d:
        raise ValueError(f"deg({v}) = {t} exceeds d = {d}")
    ring = ring or ring_for(g.n, d)
    if t == 0:
        return ring.one()
    rows = [[yvar(ring, nb[r], d - t + 1 + c) for c in range(t)] for r in range(t)]
    return _det_laplace(ring, rows)


def _det_laplace(ring: Ring, rows) -> Polynomial:
    t = len(rows)
    if t == 1:
        return rows[0][0]
    out = ring.zero()
    for c in range(t):
        minor = [[rows[r][cc] for cc in range(t) if cc != c] for r in range(1, t)]
        term = rows[0][c] * _det_laplace(ring, minor)
        out = out + (term if c % 2 == 0 else -term)
    return out
