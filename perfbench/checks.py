"""Output checks written without the program's own checkers.

Decompositions are re-checked from the definition (disjoint matchings
covering E, integer weights meeting the strict inequalities against the
remaining edges) instead of through ``verify_decomposition`` or
``check_certificate``; Groebner bases and normal forms are recomputed
with sympy. Every function returns a list of error strings.
"""

from __future__ import annotations


def pmd_bounds(n: int, edges) -> tuple[int, int]:
    """Delta <= pmd <= min(2n - 3, m); both ends are 0 without edges."""
    if not edges:
        return 0, 0
    deg = [0] * (n + 1)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return max(deg), min(2 * n - 3, len(edges))


def check_result(gid: str, n: int, edges, res, expected: int | None) -> list[str]:
    """Status, value bounds, expected value and the whole decomposition."""
    errs = []
    lo, hi = pmd_bounds(n, edges)
    if res.status != "exact":
        errs.append(f"{gid}: status {res.status}")
    if not lo <= res.value <= hi:
        errs.append(f"{gid}: pmd {res.value} outside [{lo}, {hi}]")
    if expected is not None and res.value != expected:
        errs.append(f"{gid}: pmd {res.value}, expected {expected}")
    parts = res.decomposition.parts
    certs = res.decomposition.certificates
    if not len(parts) == len(certs) == res.value:
        errs.append(f"{gid}: {len(parts)} parts, {len(certs)} certificates, value {res.value}")
        return errs
    all_edges = {(min(i, j), max(i, j)) for i, j in edges}
    remaining = set(all_edges)
    for l, (part, cert) in enumerate(zip(parts, certs), start=1):
        pset = set(part)
        if not part or len(pset) != len(part) or not pset <= remaining:
            errs.append(f"{gid}: part {l} is empty, repeats an edge or leaves E")
            return errs
        ends = [v for e in part for v in e]
        if len(set(ends)) != len(ends) or any(i >= j for i, j in part):
            errs.append(f"{gid}: part {l} is not a matching")
        w = dict(cert.weights)
        if not all(type(x) is int for x in w.values()):
            errs.append(f"{gid}: part {l} has non-integer weights")
        for i, j in remaining:
            s = w.get(i, 0) + w.get(j, 0)
            if ((i, j) in pset and s <= 0) or ((i, j) not in pset and s >= 0):
                errs.append(f"{gid}: part {l} weights fail on edge ({i},{j})")
                break
        remaining -= pset
    if remaining:
        errs.append(f"{gid}: {len(remaining)} edges in no part")
    return errs


# ---------------------------------------------------------------------------
# Groebner cross-checks against sympy (imported here only: it is large, and
# the pmd workloads report their peak memory without it)

def _key(poly_dict) -> frozenset:
    return frozenset((m, (int(c.numerator), int(c.denominator)))
                     for m, c in poly_dict.items() if c != 0)


def check_groebner(bases, normal_forms) -> list[str]:
    """bases: (generators in, order, IdealBasis out) per buchberger call;
    normal_forms: (f, basis generators, order, remainder) per call."""
    import sympy

    def symbols(order):
        if any(order.weights):
            raise ValueError("order is not plain grevlex")
        return sympy.symbols([f"y_{v}_{c}" for _, v, c in order.ring.tokens])

    def to_sympy(poly, syms):
        terms = {m: sympy.Rational(int(c.numerator), int(c.denominator))
                 for m, c in poly.terms.items()}
        return sympy.Poly.from_dict(terms, *syms, domain=sympy.QQ).as_expr()

    def reference_basis(gens, syms):
        return sympy.groebner([to_sympy(f, syms) for f in gens if f.terms], *syms,
                              order="grevlex", domain=sympy.QQ)

    errs = []
    for k, (gens, order, out) in enumerate(bases):
        syms = symbols(order)
        ref = reference_basis(gens, syms)
        want = {_key(p.as_dict()) for p in ref.polys}
        got = {_key(g.terms) for g in out.generators}
        if want != got or len(out.generators) != len(ref.polys):
            errs.append(f"buchberger call {k}: {len(out.generators)} elements, "
                        f"sympy's reduced basis has {len(ref.polys)} and differs")
    for k, (f, basis, order, rem) in enumerate(normal_forms):
        syms = symbols(order)
        ref_rem = reference_basis(basis, syms).reduce(to_sympy(f, syms))[1]
        want = _key(sympy.Poly(ref_rem, *syms, domain=sympy.QQ).as_dict())
        if want != _key(rem.terms):
            errs.append(f"normal_form call {k}: remainder differs from sympy's")
    return errs
