"""Desk-scale Buchberger engine with monomial-ideal dimension and
multiplicity, ideal intersection by elimination, and membership tests.

Each basis element is made monic once, by `_monic`, into the triple
(monic polynomial, leading monomial, support bitmask of that monomial);
Buchberger keeps the triples, in its result too, so membership tests
and initial ideals read the leads. All division goes through one loop,
`_reduce`, which never divides since its divisors are monic; it keeps
the working terms in one dict and takes them largest first from a heap.
Buchberger keeps its pending pairs in a heap on the lcm key. The
selection strategy (normal: smallest lcm key first) and the coprime and
chain criteria are the textbook ones; the heaps only avoid rescanning
the pairs and the working polynomial at each step.

Coefficients are ints unless they are not integral (see `lssrings.poly`).
The LSS generators have coefficient 1, so the division loop and the
S-polynomials run on int arithmetic; a `Fraction` enters only where
`_monic` divides by a leading coefficient other than 1 or -1, and the
same code then carries it.

Sizes are deliberately capped: past roughly forty variables or a few
thousand basis elements the computation aborts with a desk-scale error
instead of thrashing.

One helper says each monomial fact: `_divides` and `_lcm` on exponent
tuples, and `_support`, whose bitmasks screen divisibility (a divisor's
support lies inside the multiple's) and coprimality (disjoint supports)
before any tuple is read.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations, compress
from operator import add, le, sub

from .poly import (Polynomial, Ring, TermOrder, grevlex_key,
                   leading_monomial)

MAX_VARS = 40
MAX_BASIS = 4000


class DeskScaleExceeded(RuntimeError):
    """The instance is outside the intended desk scale."""


# ---------------------------------------------------------------------------
# division

def normal_form(f: Polynomial, basis, order: TermOrder) -> Polynomial:
    """Remainder of f under multivariate division by the basis.

    No term of the result is divisible by any basis leading monomial;
    when the basis is a Groebner basis this is the canonical normal form
    and vanishes exactly on ideal members. Each step divides the largest
    remaining term by the first basis element whose leading monomial
    divides it. Each element is made monic once, which leaves every
    division step and so the remainder unchanged; `_reduce` divides.
    """
    basis = list(basis)
    _same_ring([f, *basis], order)
    return _reduce(f, [_monic(g, leading_monomial(g, order))
                       for g in basis if not g.is_zero()], order)


def _same_ring(polys, order: TermOrder) -> None:
    if any(f.ring != order.ring for f in polys):
        raise ValueError("term order is built on another ring")


_BITS = tuple(1 << i for i in range(MAX_VARS))


def _support(mono) -> int:
    """The bitmask of the variables in mono: one pass over the bit table,
    or bit by bit past its MAX_VARS variables, where it would stop short."""
    if len(mono) > MAX_VARS:
        return sum(1 << i for i, e in enumerate(mono) if e)
    return sum(compress(_BITS, mono))


def _divides(a, b) -> bool:
    """Whether the monomial a divides the monomial b."""
    return all(map(le, a, b))


def _lcm(a, b) -> tuple:
    return tuple(map(max, a, b))


def _monic(g: Polynomial, lm) -> tuple:
    """(g over its leading coefficient, its leading monomial lm, the
    support bitmask of lm): the divisor triple that `_reduce` takes."""
    lc = g.terms[lm]
    return (g if lc == 1 else g.scale(Fraction(1, lc))), lm, _support(lm)


def _reduce(f: Polynomial, divisors, order: TermOrder) -> Polynomial:
    """The division loop: remainder of f by the monic `_monic` triples, in order.

    The working terms live in one dict, updated in place, and a heap on
    `order.heap_key` yields them largest first; a monomial's key is
    computed when it enters the heap. A term that cancels stays in the
    heap and is skipped when popped. Subtracting a multiple of a divisor
    only adds terms below the current one, so the popped terms strictly
    decrease and the steps are those of textbook division.
    """
    work = dict(f.terms)
    heap = [(order.heap_key(m), m) for m in work]
    heapify(heap)
    rem = {}
    while heap:
        m = heappop(heap)[1]
        c = work.get(m)
        if c is None:
            continue
        support = _support(m)
        for g, glm, mask in divisors:
            if not mask & ~support and _divides(glm, m):
                break
        else:
            rem[m] = work.pop(m)
            continue
        # work -= c * x^diff * g; g is monic, so the term at m cancels exactly
        diff = tuple(map(sub, m, glm))
        for gm, gc in g.terms.items():
            nm = tuple(map(add, gm, diff))
            t = c * gc
            old = work.get(nm)
            if old is None:
                work[nm] = -t
                heappush(heap, (order.heap_key(nm), nm))
            elif old == t:
                del work[nm]
            else:
                work[nm] = old - t
    return Polynomial(f.ring, rem)


def spoly(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """S-polynomial of f and g; makes both monic for `_spoly`."""
    _same_ring([f, g], order)
    return _spoly(_monic(f, leading_monomial(f, order)),
                  _monic(g, leading_monomial(g, order)))


def _spoly(a, b) -> Polynomial:
    """S-polynomial of the monic `_monic` triples a and b: f shifted up to
    the lcm of the leads, minus g shifted there, subtracted in place."""
    (f, flm, _), (g, glm, _) = a, b
    lcm = _lcm(flm, glm)
    fshift, gshift = tuple(map(sub, lcm, flm)), tuple(map(sub, lcm, glm))
    out = {tuple(map(add, m, fshift)): c for m, c in f.terms.items()}
    for m, c in g.terms.items():
        nm = tuple(map(add, m, gshift))
        old = out.get(nm)
        if old is None:
            out[nm] = -c
        elif old == c:
            del out[nm]
        else:
            out[nm] = old - c
    return Polynomial(f.ring, out)


# ---------------------------------------------------------------------------
# Buchberger

@dataclass
class IdealBasis:
    """A reduced Groebner basis as `_monic` triples, by decreasing lead."""

    divisors: list
    order: TermOrder

    @property
    def generators(self) -> list:
        return [g for g, _, _ in self.divisors]

    @property
    def ring(self) -> Ring:
        return self.order.ring


def buchberger(gens, order: TermOrder) -> IdealBasis:
    """Reduced Groebner basis by Buchberger's algorithm.

    Normal selection strategy (the pair with the smallest lcm key first)
    with the coprime and chain criteria for pair elimination; the result
    is monic, auto reduced, and sorted by decreasing leading monomial.
    Pending pairs sit in a heap of (lcm key, pair) entries, which are
    unique, so pairs are taken in exactly smallest-key order; a set of
    the pending pairs answers the chain criterion. Each element enters as
    a `_monic` triple, kept as it is into the result.
    """
    gens = list(gens)
    _same_ring(gens, order)
    ring = order.ring
    if ring.nvars > MAX_VARS:
        raise DeskScaleExceeded(f"{ring.nvars} variables exceeds the desk-scale cap {MAX_VARS}")
    divisors = [_monic(f, leading_monomial(f, order)) for f in gens if not f.is_zero()]
    lms = [lm for _, lm, _ in divisors]

    def entry(i, j):
        # selection key of the pair, computed once when the pair is made
        return order.key(_lcm(lms[i], lms[j])), (i, j)

    queue = [entry(i, j) for i in range(len(lms)) for j in range(i + 1, len(lms))]
    heapify(queue)
    pending = {pair for _, pair in queue}

    while queue:
        _, (i, j) = heappop(queue)
        pending.remove((i, j))
        if not divisors[i][2] & divisors[j][2]:     # coprime leads
            continue
        lij = _lcm(lms[i], lms[j])
        # chain criterion: some k with lm_k | lcm and both pairs already handled
        support = _support(lij)
        if any(not divisors[k][2] & ~support and _divides(lms[k], lij)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(lms)) if k not in (i, j)):
            continue
        h = _reduce(_spoly(divisors[i], divisors[j]), divisors, order)
        if h.is_zero():
            continue
        divisors.append(_monic(h, leading_monomial(h, order)))
        lms.append(divisors[-1][1])
        if len(lms) > MAX_BASIS:
            raise DeskScaleExceeded(f"basis exceeded {MAX_BASIS} elements")
        new = len(lms) - 1
        for k in range(new):
            heappush(queue, entry(k, new))
            pending.add((k, new))

    # minimal basis: the first element with each minimal lead
    keep = [next(d for d in divisors if d[1] == lm) for lm in minimalize(lms)]
    # tail-reduce each element against the others, by decreasing lead; no
    # other kept lead divides an element's monic lead term, so it stays,
    # and with it the element's lead and mask
    keep.sort(key=lambda d: order.key(d[1]), reverse=True)
    return IdealBasis([(_reduce(g, keep[:i] + keep[i + 1:], order), lm, mask)
                       for i, (g, lm, mask) in enumerate(keep)], order)


def ideal_member(f: Polynomial, basis: IdealBasis) -> bool:
    _same_ring([f], basis.order)
    return _reduce(f, basis.divisors, basis.order).is_zero()


# ---------------------------------------------------------------------------
# monomial ideals

@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generating monomials (exponent tuples) in nvars variables."""

    gens: tuple
    nvars: int

    @property
    def is_unit(self) -> bool:
        return any(not any(m) for m in self.gens)


def minimalize(monos) -> list:
    """The minimal generators of the ideal the monomials generate, in
    grevlex order."""
    return [m for m, _ in _minimal({(m, _support(m)) for m in monos})]


def _minimal(pairs) -> list:
    """``minimalize`` on (monomial, support mask) pairs, kept as pairs.
    Sorted by degree first, a monomial is never divided by a later one,
    so one pass keeps each that no kept monomial divides. As in
    `_reduce`, a kept monomial whose support mask is not inside the
    candidate's cannot divide it, and the exponents are compared only
    when the masks allow."""
    kept: list = []
    for m, support in sorted(pairs, key=_lead_key):
        if not any(not mask & ~support and _divides(g, m) for g, mask in kept):
            kept.append((m, support))
    return kept


def _lead_key(pair):
    return grevlex_key(pair[0])


def initial_ideal(basis: IdealBasis) -> MonomialIdeal:
    """Monomial ideal of the basis leading terms (a Groebner basis gives
    the true initial ideal). The leads of a reduced basis are minimal, so
    they are only put in grevlex order."""
    return MonomialIdeal(tuple(sorted((lm for _, lm, _ in basis.divisors), key=grevlex_key)),
                         basis.ring.nvars)


def hilbert_numerator(mi: MonomialIdeal) -> list:
    """Numerator of the Hilbert series over (1-t)^nvars as a coefficient list.

    The pivot recursion of Bayer and Stillman: for a variable x that two
    generators share, N(I) = N(I + (x)) + t * N(I : x); pairwise-coprime
    generators close the recursion with the product of (1 - t^deg). The
    pivot is the first variable of the first pair, in grevlex order, that
    shares one. The generators are minimalized once, at entry, and the
    lists stay minimal and in grevlex order: I + (x) is the generators
    free of x with x put in place, and only I : x is minimalized. Each
    generator carries its support mask down the recursion, and I : x
    clears bit x only where it takes the last x. Since x
    divides two minimal generators, x is not one of them and I : x never
    contains 1; only the unit ideal itself has numerator 0.
    """
    def rec(gens):
        masks = [mask for _, mask in gens]
        shared = next((a & b for a, b in combinations(masks, 2) if a & b), 0)
        if not shared:
            out = [1]
            for m, _ in gens:   # out *= 1 - t^d: subtract out shifted up by d
                d = sum(m)
                out = list(map(sub, out + [0] * d, [0] * d + out))
            return out
        bit = shared & -shared
        x = bit.bit_length() - 1
        plus = [g for g in gens if not g[1] & bit]
        insort(plus, (tuple(int(i == x) for i in range(mi.nvars)), bit), key=_lead_key)
        a = rec(plus)
        b = rec(_minimal((m[:x] + (m[x] - 1,) + m[x + 1:], mask if m[x] > 1 else mask ^ bit)
                         if mask & bit else (m, mask) for m, mask in gens))
        out = a + [0] * (len(b) + 1 - len(a))
        for i, v in enumerate(b, 1):
            out[i] += v
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    gens = _minimal({(m, _support(m)) for m in mi.gens})
    return [0] if any(not mask for _, mask in gens) else rec(gens)


def dim_and_multiplicity(mi: MonomialIdeal) -> tuple:
    """(Krull dimension, multiplicity) of the quotient, read off the
    Hilbert numerator N.

    The Hilbert series of S/I is N(t)/(1-t)^nvars. Writing
    N = (1-t)^h * Q with Q(1) != 0, the series is Q(t)/(1-t)^(nvars-h):
    its pole order at t = 1 is the Krull dimension nvars - h, and Q(1)
    is the multiplicity (Hilbert-Serre). So N is divided by (1-t) while
    it vanishes at 1. Each division is exact by the factor theorem and
    keeps the constant term, so the loop ends once N(0) != 0 is known.
    N(0) = 1 since degree 0 of S/I is the field, and Q(1) > 0 since it
    sums the lengths of the top-dimensional components; a numerator that
    breaks either raises. The unit ideal (N = 0) reports -1 and 0.
    Pairwise-coprime squarefree quadrics give 2^(number of generators).
    """
    if mi.is_unit:
        return -1, 0
    num = hilbert_numerator(mi)
    if num[0] != 1:
        raise ArithmeticError("Hilbert numerator must be 1 at t = 0")
    height = 0
    while sum(num) == 0:
        num = list(accumulate(num[:-1]))    # exact division by (1 - t)
        height += 1
    e = sum(num)
    if e <= 0:
        raise ArithmeticError("multiplicity must be positive")
    return mi.nvars - height, e


# ---------------------------------------------------------------------------
# intersections and complete intersections

def ideal_intersection(gens_i, gens_j, order: TermOrder) -> IdealBasis:
    """Groebner basis of I cap J: eliminate the homogenizing variable t
    from t*I + (1-t)*J under a block order with t first."""
    gens_i, gens_j = list(gens_i), list(gens_j)
    _same_ring(gens_i + gens_j, order)
    ring = order.ring
    aux = ("t", 0)
    ext = Ring((aux,) + ring.tokens)
    elim = TermOrder.elimination(ext, aux)

    def lift(f: Polynomial, tpow_one: bool) -> list:
        # returns [t*f] or [(1-t)*f] in the extended ring
        base = {(0,) + m: c for m, c in f.terms.items()}
        tshift = {(m[0] + 1,) + m[1:]: c for m, c in base.items()}
        if tpow_one:
            return Polynomial(ext, tshift)
        out = dict(base)
        for m, c in tshift.items():
            out[m] = out.get(m, 0) - c
        return Polynomial(ext, out)

    lifted = [lift(f, True) for f in gens_i] + [lift(f, False) for f in gens_j]
    gb = buchberger(lifted, elim)
    kept = [Polynomial(ring, {m[1:]: c for m, c in g.terms.items()})
            for g in gb.generators if all(m[0] == 0 for m in g.terms)]
    return buchberger(kept, order)


def ci_multiplicity(degrees) -> int:
    """Product of generator degrees (multiplicity of a complete intersection)."""
    out = 1
    for d in degrees:
        out *= int(d)
    return out
