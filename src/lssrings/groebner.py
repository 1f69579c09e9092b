"""Desk-scale Buchberger engine with monomial-ideal dimension and
multiplicity, ideal intersection by elimination, and membership tests.

Sizes are deliberately capped: past roughly forty variables or a few
thousand basis elements the computation aborts with a desk-scale error
instead of thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
    and vanishes exactly on ideal members.
    """
    divisors = [(g, leading_monomial(g, order)) for g in basis if not g.is_zero()]
    rem_terms: dict = {}
    work = f
    while not work.is_zero():
        m = leading_monomial(work, order)
        c = work.terms[m]
        hit = None
        for g, glm in divisors:
            diff = tuple(a - b for a, b in zip(m, glm))
            if all(e >= 0 for e in diff):
                hit = (g, glm, diff)
                break
        if hit is None:
            rem_terms[m] = c
            work = Polynomial(work.ring, {mm: cc for mm, cc in work.terms.items() if mm != m})
        else:
            g, glm, diff = hit
            work = work - g.mul_monomial(diff, c / g.terms[glm])
    return Polynomial(f.ring, rem_terms)


def spoly(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    flm, glm = leading_monomial(f, order), leading_monomial(g, order)
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

    Normal selection strategy (smallest lcm first) with the coprime and
    chain criteria for pair elimination; the result is monic, auto
    reduced, and sorted by decreasing leading monomial.
    """
    ring = order.ring
    if ring.nvars > MAX_VARS:
        raise DeskScaleExceeded(f"{ring.nvars} variables exceeds the desk-scale cap {MAX_VARS}")
    basis = []
    for f in gens:
        if not f.is_zero():
            basis.append(f.scale(QQ(1) / f.terms[leading_monomial(f, order)]))
    if not basis:
        return IdealBasis([], order, True)

    lms = [leading_monomial(g, order) for g in basis]

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def entry(i, j):
        # selection key of the pair, computed once when the pair is made
        return order.key(lcm(lms[i], lms[j])), (i, j)

    pairs = {(i, j): entry(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def coprime(a, b):
        return all(x == 0 or y == 0 for x, y in zip(a, b))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    while pairs:
        _, (i, j) = min(pairs.values())
        del pairs[i, j]
        lij = lcm(lms[i], lms[j])
        if coprime(lms[i], lms[j]):
            continue
        # chain criterion: some k with lm_k | lcm and both pairs already handled
        if any(divides(lms[k], lij) and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(basis)) if k not in (i, j)):
            continue
        h = normal_form(spoly(basis[i], basis[j], order), basis, order)
        if h.is_zero():
            continue
        h = h.scale(QQ(1) / h.terms[leading_monomial(h, order)])
        basis.append(h)
        lms.append(leading_monomial(h, order))
        if len(basis) > MAX_BASIS:
            raise DeskScaleExceeded(f"basis exceeded {MAX_BASIS} elements")
        new = len(basis) - 1
        pairs.update(((k, new), entry(k, new)) for k in range(new))

    # minimalize: drop elements whose lead is divisible by another lead
    keep = []
    for i, g in enumerate(basis):
        if not any(k != i and divides(lms[k], lms[i])
                   and (lms[k] != lms[i] or k < i) for k in range(len(basis))):
            keep.append(g)
    # tail-reduce each element against the others
    reduced = []
    for i, g in enumerate(keep):
        others = [h for j, h in enumerate(keep) if j != i]
        r = normal_form(g, others, order) if others else g
        if not r.is_zero():
            reduced.append(r.scale(QQ(1) / r.terms[leading_monomial(r, order)]))
    reduced.sort(key=lambda g: order.key(leading_monomial(g, order)), reverse=True)
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
