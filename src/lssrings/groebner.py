"""Desk-scale Buchberger engine with monomial-ideal dimension and
multiplicity, ideal intersection by elimination, and membership tests.

All division goes through one loop, `_reduce`, which takes each divisor
with its leading monomial (computed once) and the support bitmask of
that monomial, keeps the working terms in one dict and takes them
largest first from a heap. Buchberger keeps its pending pairs in a heap
on the lcm key. The selection strategy (normal: smallest lcm key first)
and the coprime and chain criteria are the textbook ones; the heaps
only avoid rescanning the pairs and the working polynomial at each step.

Sizes are deliberately capped: past roughly forty variables or a few
thousand basis elements the computation aborts with a desk-scale error
instead of thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import add, ge, le, sub

from .poly import (Polynomial, Ring, TermOrder, grevlex_key,
                   leading_monomial)
from .rationals import QQ

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
    divides it; the leading monomials are found once, then `_reduce`
    does the division.
    """
    return _reduce(f, [_divisor(g, leading_monomial(g, order))
                       for g in basis if not g.is_zero()], order)


def _support(mono) -> int:
    return sum(1 << i for i, e in enumerate(mono) if e)


def _divisor(g: Polynomial, lm) -> tuple:
    """g with its leading monomial and that monomial's support bitmask."""
    return g, lm, _support(lm)


def _reduce(f: Polynomial, divisors, order: TermOrder) -> Polynomial:
    """The division loop: remainder of f by the `_divisor` triples, in order.

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
            if not mask & ~support and all(map(ge, m, glm)):
                break
        else:
            rem[m] = work.pop(m)
            continue
        # work -= q * x^diff * g; the term at m cancels exactly
        diff = tuple(map(sub, m, glm))
        q = c / g.terms[glm]
        for gm, gc in g.terms.items():
            nm = tuple(map(add, gm, diff))
            t = q * gc
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
    """S-polynomial of f and g; finds the leading monomials for `_spoly`."""
    return _spoly(f, leading_monomial(f, order), g, leading_monomial(g, order))


def _spoly(f: Polynomial, flm, g: Polynomial, glm) -> Polynomial:
    """S-polynomial of f and g with leading monomials flm and glm."""
    lcm = tuple(max(a, b) for a, b in zip(flm, glm))
    fm = tuple(a - b for a, b in zip(lcm, flm))
    gm = tuple(a - b for a, b in zip(lcm, glm))
    return f.mul_monomial(fm, QQ(1) / f.terms[flm]) - g.mul_monomial(gm, QQ(1) / g.terms[glm])


# ---------------------------------------------------------------------------
# Buchberger

@dataclass
class IdealBasis:
    generators: list
    order: TermOrder
    reduced: bool

    @property
    def ring(self) -> Ring:
        return self.order.ring

    def to_json(self) -> dict:
        return {"reduced": self.reduced,
                "generators": [g.to_json_terms() for g in self.generators]}


def buchberger(gens, order: TermOrder) -> IdealBasis:
    """Reduced Groebner basis by Buchberger's algorithm.

    Normal selection strategy (the pair with the smallest lcm key first)
    with the coprime and chain criteria for pair elimination; the result
    is monic, auto reduced, and sorted by decreasing leading monomial.
    Pending pairs sit in a heap of (lcm key, pair) entries, which are
    unique, so pairs are taken in exactly smallest-key order; a set of
    the pending pairs answers the chain criterion. Every reduction goes
    through `_reduce` with the leading monomials kept here.
    """
    ring = order.ring
    if ring.nvars > MAX_VARS:
        raise DeskScaleExceeded(f"{ring.nvars} variables exceeds the desk-scale cap {MAX_VARS}")
    basis, lms = [], []
    for f in gens:
        if not f.is_zero():
            lm = leading_monomial(f, order)
            basis.append(f.scale(QQ(1) / f.terms[lm]))
            lms.append(lm)
    if not basis:
        return IdealBasis([], order, True)

    divisors = [_divisor(g, lm) for g, lm in zip(basis, lms)]

    def lcm(a, b):
        return tuple(map(max, a, b))

    def entry(i, j):
        # selection key of the pair, computed once when the pair is made
        return order.key(lcm(lms[i], lms[j])), (i, j)

    queue = [entry(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    heapify(queue)
    pending = {pair for _, pair in queue}

    def coprime(a, b):
        return all(x == 0 or y == 0 for x, y in zip(a, b))

    def divides(a, b):
        return all(map(le, a, b))

    while queue:
        _, (i, j) = heappop(queue)
        pending.remove((i, j))
        lij = lcm(lms[i], lms[j])
        if coprime(lms[i], lms[j]):
            continue
        # chain criterion: some k with lm_k | lcm and both pairs already handled
        support = _support(lij)
        if any(not divisors[k][2] & ~support and divides(lms[k], lij)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(basis)) if k not in (i, j)):
            continue
        h = _reduce(_spoly(basis[i], lms[i], basis[j], lms[j]), divisors, order)
        if h.is_zero():
            continue
        lm = leading_monomial(h, order)
        h = h.scale(QQ(1) / h.terms[lm])
        basis.append(h)
        lms.append(lm)
        divisors.append(_divisor(h, lm))
        if len(basis) > MAX_BASIS:
            raise DeskScaleExceeded(f"basis exceeded {MAX_BASIS} elements")
        new = len(basis) - 1
        for k in range(new):
            heappush(queue, entry(k, new))
            pending.add((k, new))

    # minimalize: drop elements whose lead is divisible by another lead
    keep = [divisors[i] for i in range(len(basis))
            if not any(k != i and divides(lms[k], lms[i])
                       and (lms[k] != lms[i] or k < i) for k in range(len(basis)))]
    # tail-reduce each element against the others, by decreasing lead; no
    # other kept lead divides an element's monic lead term, so it stays
    keep.sort(key=lambda d: order.key(d[1]), reverse=True)
    reduced = [_reduce(g, keep[:i] + keep[i + 1:], order) for i, (g, _, _) in enumerate(keep)]
    return IdealBasis(reduced, order, True)


def ideal_member(f: Polynomial, basis: IdealBasis) -> bool:
    return normal_form(f, basis.generators, basis.order).is_zero()


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

    @property
    def is_zero(self) -> bool:
        return not self.gens


def minimalize(monos) -> list:
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    out: list = []
    for m in sorted(set(monos), key=grevlex_key):
        if not any(divides(g, m) for g in out):
            out = [g for g in out if not divides(m, g)]
            out.append(m)
    return sorted(out, key=grevlex_key)


def initial_ideal(basis: IdealBasis) -> MonomialIdeal:
    """Monomial ideal of the basis leading terms (a Groebner basis gives
    the true initial ideal)."""
    lms = [leading_monomial(g, basis.order) for g in basis.generators if not g.is_zero()]
    return MonomialIdeal(tuple(minimalize(lms)), basis.ring.nvars)


def monomial_dim(mi: MonomialIdeal, num_vars: int) -> int:
    """Krull dimension of the quotient: num_vars minus the least number of
    variables covering every generator support. The unit ideal reports -1."""
    if mi.is_unit:
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in mi.gens]
    if not supports:
        return num_vars
    universe = sorted(set().union(*supports))
    for size in range(0, len(universe) + 1):
        for cover in combinations(universe, size):
            cset = set(cover)
            if all(s & cset for s in supports):
                return num_vars - size
    return num_vars - len(universe)


def hilbert_numerator(mi: MonomialIdeal) -> list:
    """Numerator of the Hilbert series over (1-t)^nvars as a coefficient list.

    Recursive pivot splitting: for a variable x,
    N(I) = N(I + (x)) + t * N(I : x); pairwise-coprime generators close
    the recursion with a product of (1 - t^deg).
    """
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return out

    def rec(gens):
        gens = minimalize(gens)
        if any(not any(m) for m in gens):
            return [0]
        shared = None
        for a, b in combinations(gens, 2):
            common = next((i for i, (x, y) in enumerate(zip(a, b)) if x and y), None)
            if common is not None:
                shared = common
                break
        if shared is None:
            out = [1]
            for m in gens:
                d = sum(m)
                factor = [1] + [0] * (d - 1) + [-1]
                out = poly_mul(out, factor)
            return out
        x = shared
        plus = [m for m in gens] + [tuple(1 if i == x else 0 for i in range(mi.nvars))]
        colon = [tuple(e - 1 if i == x and e else e for i, e in enumerate(m)) for m in gens]
        a = rec(plus)
        b = rec(colon)
        out = [0] * max(len(a), len(b) + 1)
        for i, v in enumerate(a):
            out[i] += v
        for i, v in enumerate(b):
            out[i + 1] += v
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    return rec(list(mi.gens))


def monomial_multiplicity(mi: MonomialIdeal, num_vars: int) -> int:
    """Multiplicity of the quotient from the Hilbert numerator at t = 1.

    The numerator is divided by (1-t) once per unit of height; each
    division must be exact. Pairwise-coprime squarefree quadrics give
    2^(number of generators). The unit ideal reports 0.
    """
    if mi.is_unit:
        return 0
    if mi.is_zero:
        return 1
    num = hilbert_numerator(mi)
    height = num_vars - monomial_dim(mi, num_vars)
    for _ in range(height):
        if sum(num) != 0:
            raise ArithmeticError("Hilbert numerator not divisible by (1-t)")
        # divide by (1 - t): synthetic division
        out = [0] * (len(num) - 1)
        acc = 0
        for i in range(len(num) - 1):
            acc += num[i]
            out[i] = acc
        num = out if out else [0]
    e = sum(num)
    if e <= 0:
        raise ArithmeticError("multiplicity must be positive")
    return e


# ---------------------------------------------------------------------------
# intersections and complete intersections

def ideal_intersection(gens_i, gens_j, order: TermOrder) -> IdealBasis:
    """Groebner basis of I cap J: eliminate the homogenizing variable t
    from t*I + (1-t)*J under a block order with t first."""
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
            out[m] = out.get(m, QQ(0)) - c
        return Polynomial(ext, out)

    lifted = [lift(f, True) for f in gens_i] + [lift(f, False) for f in gens_j]
    gb = buchberger(lifted, elim)
    kept = []
    for g in gb.generators:
        if all(m[0] == 0 for m in g.terms):
            kept.append(Polynomial(ring, {m[1:]: c for m, c in g.terms.items()}))
    result = buchberger(kept, order)
    return result


def ci_multiplicity(degrees) -> int:
    """Product of generator degrees (multiplicity of a complete intersection)."""
    out = 1
    for d in degrees:
        out *= int(d)
    return out
