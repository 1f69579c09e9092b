"""Threshold rule engine and the desk-scale verification suites for the
quotient-ring identities (``VERIFY_SUITES``: star, path, D and the worked
example).

Every guarantee comes from one rule table, ``_RULES``, and cites the
rows whose threshold is at most d; rules derived from the pmd bound and
rules derived from the degree/degeneracy bound are kept separate, and
no conjecture is a rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (Graph, degeneracy, example, is_cycle_graph, is_forest,
                     max_degree, path as path_graph, star as star_graph)
from .groebner import (DeskScaleExceeded, buchberger, ci_multiplicity,
                       dim_and_multiplicity, ideal_intersection, ideal_member,
                       initial_ideal, normal_form)
from .pmd import pmd as solve_pmd, verify_decomposition
from .poly import (TermOrder, initial_form, lss_generators, matrix_D,
                   pairwise_coprime_squarefree, ring_for, weight_from_pmd, yvar)

PROPERTIES = ("radical", "complete_intersection", "prime", "irreducible",
              "strongly_f_regular", "ufd", "normal")


@dataclass(frozen=True)
class GraphInvariants:
    delta: int
    k: int
    pmd_value: int | None
    pmd_status: str            # "exact" | "upper_bound_only" | "unknown"

    @property
    def alpha(self) -> int:
        return self.delta + self.k - 1

    @property
    def pmd_exact(self) -> bool:
        return self.pmd_status == "exact" and self.pmd_value is not None


def invariants_of(g: Graph, node_budget: int | None = None) -> GraphInvariants:
    k, _ = degeneracy(g)
    res = solve_pmd(g, node_budget=node_budget)
    return GraphInvariants(max_degree(g), k, res.value, res.status)


@dataclass(frozen=True)
class RuleFiring:
    rule: str
    threshold: int | None
    statement: str
    source: str = ""


@dataclass(frozen=True)
class PropertyReport:
    n: int
    m: int
    d: int
    invariants: GraphInvariants
    table: dict      # the graph's threshold_table

    def fires(self, prop: str) -> tuple[RuleFiring, ...]:
        """The rows of ``prop`` whose threshold is at most d (None: any d)."""
        return tuple(rf for rf in self.table[prop]
                     if rf.threshold is None or rf.threshold <= self.d)

    def needs(self, prop: str) -> tuple[RuleFiring, ...]:
        """The rows of ``prop`` that fire only above d."""
        return tuple(rf for rf in self.table[prop]
                     if rf.threshold is not None and rf.threshold > self.d)

    def guaranteed(self, prop: str) -> bool:
        return bool(self.fires(prop))

    def to_json(self) -> dict:
        return {
            "n": self.n, "m": self.m, "d": self.d,
            "delta": self.invariants.delta, "k": self.invariants.k,
            "alpha": self.invariants.alpha, "pmd": self.invariants.pmd_value,
            "pmd_status": self.invariants.pmd_status,
            "verdicts": {
                prop: {
                    "verdict": "guaranteed" if self.guaranteed(prop) else "unknown",
                    "rules": [{"rule": r.rule, "threshold": r.threshold,
                               "citation": r.statement, "source": r.source}
                              for r in self.fires(prop)],
                }
                for prop in self.table
            },
        }


# Rule table, the only source of guarantees. Each entry: (rule id, least
# firing d as a function of the graph and its invariants, or None when the
# rule does not apply; granted properties; statement; source attribution
# for results that predate this toolkit). A rule that grants prime also
# grants irreducible: a prime ideal has an irreducible variety.
_RULES = (
    ("pmd-radical-ci", lambda g, i: i.pmd_value if i.pmd_exact else None,
     ("radical", "complete_intersection"),
     "d >= pmd: the edge-quadric ideal is a radical complete intersection",
     "Conca-Welker 2019"),
    ("pmd-prime", lambda g, i: i.pmd_value + 1 if i.pmd_exact else None,
     ("prime", "irreducible"),
     "d >= pmd + 1: the edge-quadric ideal is prime",
     "Conca-Welker 2019"),
    ("degree-degeneracy-ci", lambda g, i: i.alpha,
     ("complete_intersection",),
     "d >= degree + degeneracy - 1: complete intersection",
     "Kapon 2019"),
    ("degree-degeneracy-irreducible", lambda g, i: i.alpha + 1,
     ("irreducible",),
     "d >= degree + degeneracy: the variety is irreducible",
     "Kapon 2019"),
    ("pmd-degeneracy-f-regular",
     lambda g, i: i.pmd_value + i.k if i.pmd_exact else None,
     ("strongly_f_regular", "normal"),
     "d >= pmd + degeneracy: strongly F-regular in positive characteristic, "
     "rational singularities (hence normal) in characteristic zero",
     ""),
    ("pmd-degeneracy-ufd",
     lambda g, i: i.pmd_value + i.k + 1 if i.pmd_exact else None,
     ("ufd",),
     "d >= pmd + degeneracy + 1: unique factorization domain",
     ""),
    ("forest-normal", lambda g, i: i.delta + 1 if is_forest(g) else None,
     ("normal",), "forests with d >= degree + 1 have a normal quotient ring",
     ""),
    ("six-cycle", lambda g, i: 3 if g.n == 6 and is_cycle_graph(g) else None,
     ("prime", "irreducible", "complete_intersection", "radical"),
     "the 6-cycle: not prime and not a complete intersection at d = 2, "
     "prime complete intersection from d = 3 on",
     "Conca-Welker 2019"),
)


def properties_at(g: Graph, d: int, inv: GraphInvariants) -> PropertyReport:
    """The report at d on the graph's threshold table: a rule fires when
    its threshold is at most d."""
    return PropertyReport(g.n, g.m, d, inv, threshold_table(g, inv))


def threshold_table(g: Graph, inv: GraphInvariants) -> dict:
    """Per property, every applicable rule with its minimal firing d; an
    edgeless graph has the one row polynomial-ring, which fires at any d."""
    if g.m == 0:
        rf = RuleFiring("polynomial-ring", None,
                        "no edges: the quotient is the polynomial ring itself")
        return {p: [rf] for p in PROPERTIES}
    table: dict[str, list[RuleFiring]] = {p: [] for p in PROPERTIES}
    for rule, thresh, grants, stmt, src in _RULES:
        t = thresh(g, inv)
        if t is not None:
            for prop in grants:
                table[prop].append(RuleFiring(rule, t, stmt, src))
    return table


# ---------------------------------------------------------------------------
# verification suites

@dataclass(frozen=True)
class SuiteCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SectionSuite:
    name: str
    checks: tuple[SuiteCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"suite": self.name, "passed": self.passed,
                "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                           for c in self.checks]}


def _col(i: int) -> int:
    """Second matrix column for interior path vertex i (parity bookkeeping)."""
    return 2 if i % 2 == 0 else 3


def _colhat(i: int) -> int:
    return 3 if i % 2 == 0 else 2


def verify_path_suite(n: int) -> SectionSuite:
    """Interior-vertex prime ideals of the path at d = 3: memberships and
    the multiplicity ledger against the product of the two families."""
    if not 4 <= n <= 5:
        raise DeskScaleExceeded("path suite is desk-scaled to 4 <= n <= 5")
    d = 3
    ring = ring_for(n, d)
    order = TermOrder.grevlex(ring)
    g = path_graph(n)
    gens = dict(lss_generators(g, d, ring))
    checks: list[SuiteCheck] = []

    # x = product over interior vertices of y[i, colhat(i)]
    x = ring.one()
    for i in range(2, n):
        x = x * yvar(ring, i, _colhat(i))

    def edge_poly(i, j):
        return gens[(min(i, j), max(i, j))]

    e_sum = 0
    for i in range(2, n):
        k = _col(i)
        khat = _colhat(i)
        f_i = [edge_poly(a, a + 1) for a in range(1, n) if a not in (i - 1, i)]
        p_gens = [yvar(ring, i, 1), yvar(ring, i, 2), yvar(ring, i, 3)] + f_i
        q_gens = [
            yvar(ring, i - 1, 1) * yvar(ring, i, 1) + yvar(ring, i - 1, k) * yvar(ring, i, k),
            yvar(ring, i + 1, 1) * yvar(ring, i, 1) + yvar(ring, i + 1, k) * yvar(ring, i, k),
            yvar(ring, i - 1, 1) * yvar(ring, i + 1, k) - yvar(ring, i - 1, k) * yvar(ring, i + 1, 1),
            yvar(ring, i, khat),
        ] + f_i
        gb_p = buchberger(p_gens, order)
        gb_q = buchberger(q_gens, order)
        e = {}
        for label, gb in (("P", gb_p), ("Q", gb_q)):
            member_all = all(ideal_member(f, gb) for f in gens.values())
            checks.append(SuiteCheck(f"L subset {label}_{i}", member_all))
            checks.append(SuiteCheck(f"x in {label}_{i}", ideal_member(x, gb)))
            dim, e[label] = dim_and_multiplicity(initial_ideal(gb))
            checks.append(SuiteCheck(
                f"dim S/{label}_{i} = {3 * n - n}", dim == 3 * n - n,
                f"got {dim}"))
        e_p, e_q = e["P"], e["Q"]
        checks.append(SuiteCheck(f"e(R/P_{i}) = {2 ** (n - 3)}",
                                 e_p == 2 ** (n - 3), f"got {e_p}"))
        checks.append(SuiteCheck(f"e(R/Q_{i}) = {3 * 2 ** (n - 3)}",
                                 e_q == 3 * 2 ** (n - 3), f"got {e_q}"))
        e_sum += e_p + e_q

    gb_lx = buchberger(list(gens.values()) + [x], order)
    e_x = dim_and_multiplicity(initial_ideal(gb_lx))[1]
    expect = (n - 2) * 2 ** (n - 1)
    checks.append(SuiteCheck(f"e(R/(x)) = {expect}", e_x == expect, f"got {e_x}"))
    cross = ci_multiplicity([2] * (n - 1)) * (n - 2)
    checks.append(SuiteCheck("complete-intersection cross-check",
                             cross == expect, f"product route gives {cross}"))
    checks.append(SuiteCheck("multiplicity ledger: sum of minimal primes",
                             e_sum == e_x, f"{e_sum} vs {e_x}"))
    return SectionSuite(f"path n={n} d=3", tuple(checks))


def verify_star_suite(n: int) -> SectionSuite:
    """Star at d = n - 1: the edge ideal equals the intersection of the
    center-column ideal with (det W) + itself, checked by mutual membership."""
    if n != 3:
        raise DeskScaleExceeded("star suite is desk-scaled to n = 3")
    d = n - 1
    ring = ring_for(n, d)
    order = TermOrder.grevlex(ring)
    g = star_graph(n - 1)          # center is vertex n
    gens = [f for _, f in lss_generators(g, d, ring)]
    xs = [yvar(ring, n, c) for c in range(1, d + 1)]
    det_w = matrix_D(g, n, d, ring)
    checks: list[SuiteCheck] = []

    gb_l = buchberger(gens, order)
    gb_x = buchberger(xs, order)
    checks.append(SuiteCheck("L subset (x)",
                             all(ideal_member(f, gb_x) for f in gens)))
    checks.append(SuiteCheck("det W not in (x)",
                             not normal_form(det_w, gb_x.generators, order).is_zero()))
    inter = ideal_intersection(xs, [det_w] + gens, order)
    checks.append(SuiteCheck("(x) cap (det W, L) subset L",
                             all(ideal_member(f, gb_l) for f in inter.generators)))
    checks.append(SuiteCheck("L subset (x) cap (det W, L)",
                             all(ideal_member(f, inter) for f in gens)))
    return SectionSuite(f"star n={n} d={d}", tuple(checks))


def verify_D_nonzero(g: Graph, v: int, d: int) -> bool:
    """Nonvanishing of the localization determinant in the quotient ring."""
    t = g.degree_of(v)
    if t == 0:
        return True           # empty determinant is the unit
    ring = ring_for(g.n, d)
    order = TermOrder.grevlex(ring)
    det = matrix_D(g, v, d, ring)
    gb = buchberger([f for _, f in lss_generators(g, d, ring)], order)
    return not normal_form(det, gb.generators, order).is_zero()


def verify_D_suite() -> SectionSuite:
    """The determinant D survives in the quotient on two small cases."""
    return SectionSuite("D nonzero d=2", (
        SuiteCheck("determinant nonzero: path on 3, remove vertex 3, d=2",
                   verify_D_nonzero(path_graph(3), 3, 2)),
        SuiteCheck("determinant nonzero: 2-leaf star, remove center, d=2",
                   verify_D_nonzero(star_graph(2), 3, 2)),
    ))


def verify_example_suite() -> SectionSuite:
    """End-to-end run of the worked four-vertex example."""
    g = example()
    res = solve_pmd(g)
    checks = [
        SuiteCheck("pmd(example) = 3", res.value == 3 and res.status == "exact",
                   f"got {res.value}, {res.status}"),
        SuiteCheck("decomposition verifies", verify_decomposition(g, res.decomposition)),
    ]
    d = 3
    ring = ring_for(g.n, d)
    order = weight_from_pmd(res.decomposition, ring)
    monos = []
    for (edge, f) in lss_generators(g, d, ring):
        ini = initial_form(f, order)
        monos.append(next(iter(ini.terms)))
        checks.append(SuiteCheck(f"leading form of edge {edge} is a monomial",
                                 len(ini) == 1, str(ini)))
    checks.append(SuiteCheck("leading monomials pairwise coprime and squarefree",
                             pairwise_coprime_squarefree(monos)))
    return SectionSuite(f"example d={d}", tuple(checks))


# verify target -> (suite, its default size, or None for a suite without one)
VERIFY_SUITES = {
    "star": (verify_star_suite, 3),
    "path": (verify_path_suite, 4),
    "D": (verify_D_suite, None),
    "example": (verify_example_suite, None),
}
