"""Positive matchings decided by exact rational LP feasibility.

A candidate part M inside a host edge set E' is positive when some
vertex weighting gives every M-edge a strictly positive endpoint sum and
every other host edge a strictly negative one. The strict system is
homogeneous, so it is feasible exactly when the normalized system with
bounds >= 1 and <= -1 is; that normalized system is decided by a
phase-1 simplex over exact rationals with Bland's rule. A
Fourier-Motzkin eliminator is kept alongside as an independent test
oracle for small systems.

The solver does not use the LP: ``walk_certificate`` decides the same
question combinatorially and builds integer weights from a topological
order of the alternating-walk digraph. The LP and Fourier-Motzkin stay
as independent oracles for tests and for pmd_bruteforce.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .rationals import QQ, ZERO, scale_to_integers


class MatchingArgumentError(ValueError):
    """Raised when M is not a subset of the host edge set."""


# ---------------------------------------------------------------------------
# linear systems

@dataclass(frozen=True)
class Constraint:
    """coeffs . x  (>=|<=)  bound, all data exact rationals."""

    coeffs: tuple[tuple[object, object], ...]   # ((var, coefficient), ...)
    relation: str
    bound: object

    def as_ge(self):
        """Return (coeff dict, bound) with the constraint oriented as >=."""
        if self.relation == ">=":
            return dict(self.coeffs), self.bound
        return {v: -c for v, c in self.coeffs}, -self.bound


def make_constraint(coeffs: dict, relation: str, bound) -> Constraint:
    if relation not in (">=", "<="):
        raise ValueError(f"relation must be >= or <=, got {relation!r}")
    items = tuple(sorted(((v, QQ(c)) for v, c in coeffs.items()), key=lambda t: repr(t[0])))
    return Constraint(items, relation, QQ(bound))


@dataclass(frozen=True)
class LinearSystem:
    constraints: tuple[Constraint, ...]

    def variables(self) -> list:
        seen = {}
        for c in self.constraints:
            for v, _ in c.coeffs:
                seen.setdefault(repr(v), v)
        return [seen[k] for k in sorted(seen)]


def system(constraints) -> LinearSystem:
    return LinearSystem(tuple(constraints))


# ---------------------------------------------------------------------------
# phase-1 simplex, exact arithmetic, Bland's rule

@dataclass(frozen=True)
class LpResult:
    """Feasible point, or the Farkas multipliers of the >=-oriented rows."""

    point: dict | None
    farkas: tuple | None

    @property
    def feasible(self) -> bool:
        return self.point is not None


def solve_system(sys: LinearSystem) -> LpResult:
    """Decide exact feasibility; infeasible systems carry a Farkas witness.

    The witness is a tuple of nonnegative rationals, one per constraint,
    such that the >=-oriented rows combine to 0 . x >= positive.
    """
    variables = sys.variables()
    nv = len(variables)
    vindex = {repr(v): i for i, v in enumerate(variables)}
    m = len(sys.constraints)
    if m == 0:
        return LpResult({}, None)

    # >=-oriented data
    rows = []
    for c in sys.constraints:
        coeffs, bound = c.as_ge()
        dense = [ZERO] * nv
        for v, q in coeffs.items():
            dense[vindex[repr(v)]] = q
        rows.append((dense, bound))

    # Tableau columns: u (nv) | v (nv) | s (m) | r (m) | rhs.
    # Row i encodes sigma*(a.x) - sigma*s_i + r_i = sigma*b_i with rhs >= 0.
    ncols = 2 * nv + 2 * m
    sigma = []
    T = []
    for i, (dense, bound) in enumerate(rows):
        sg = 1 if bound >= 0 else -1
        sigma.append(sg)
        row = [ZERO] * (ncols + 1)
        for j, q in enumerate(dense):
            if q:
                row[j] = sg * q
                row[nv + j] = -sg * q
        row[2 * nv + i] = QQ(-sg)
        row[2 * nv + m + i] = QQ(1)
        row[ncols] = sg * bound
        T.append(row)

    basis = [2 * nv + m + i for i in range(m)]
    art_lo = 2 * nv + m

    def price():
        """Sum of rows whose basic variable is artificial (= c - reduced cost)."""
        p = [ZERO] * (ncols + 1)
        for i in range(m):
            if basis[i] >= art_lo:
                row = T[i]
                for j in range(ncols + 1):
                    if row[j]:
                        p[j] += row[j]
        return p

    max_iters = 10000 + 200 * (m + nv)
    for _ in range(max_iters):
        p = price()
        enter = -1
        for j in range(art_lo):          # artificials never re-enter
            if p[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        # ratio test, Bland tie-break on the leaving basic variable
        leave, best = -1, None
        for i in range(m):
            tij = T[i][enter]
            if tij > 0:
                ratio = T[i][ncols] / tij
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; input invariant broken")
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        prow = T[leave]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [a - f * b for a, b in zip(T[i], prow)]
        basis[leave] = enter
    else:
        raise RuntimeError("phase-1 simplex failed to terminate")

    value = sum(T[i][ncols] for i in range(m) if basis[i] >= art_lo)
    if value == 0:
        point = {repr(v): ZERO for v in variables}
        for i in range(m):
            b = basis[i]
            if b < nv:
                point[repr(variables[b])] += T[i][ncols]
            elif b < 2 * nv:
                point[repr(variables[b - nv])] -= T[i][ncols]
        return LpResult({v: point[repr(v)] for v in variables}, None)

    # infeasible: dual values live in the price row under the artificial columns
    p = price()
    lam = tuple(sigma[i] * p[art_lo + i] for i in range(m))
    if any(l < 0 for l in lam):
        raise RuntimeError("Farkas multipliers have a negative entry")
    return LpResult(None, lam)


def lp_feasible(sys: LinearSystem) -> dict | None:
    """Exact feasible point for the system, or None."""
    return solve_system(sys).point


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination (independent oracle, small systems only)

def fourier_motzkin_feasible(sys: LinearSystem) -> bool:
    """Eliminate every variable; feasible iff no contradiction 0 >= positive."""
    variables = [repr(v) for v in sys.variables()]
    rows = []
    for c in sys.constraints:
        coeffs, bound = c.as_ge()
        rows.append(({repr(v): q for v, q in coeffs.items() if q != 0}, bound))
    for var in variables:
        pos, neg, rest = [], [], []
        for coeffs, bound in rows:
            q = coeffs.get(var, ZERO)
            if q > 0:
                pos.append((coeffs, bound))
            elif q < 0:
                neg.append((coeffs, bound))
            else:
                rest.append((coeffs, bound))
        new_rows = rest
        for pc, pb in pos:
            a = pc[var]
            for nc, nb in neg:
                b = -nc[var]
                comb = {}
                for k, q in pc.items():
                    comb[k] = comb.get(k, ZERO) + b * q
                for k, q in nc.items():
                    comb[k] = comb.get(k, ZERO) + a * q
                comb = {k: q for k, q in comb.items() if q != 0}
                new_rows.append((comb, b * pb + a * nb))
        rows = new_rows
    return all(bound <= 0 for coeffs, bound in rows if not coeffs)


# ---------------------------------------------------------------------------
# positive matchings

@dataclass(frozen=True)
class WeightCertificate:
    """Integer vertex weights (1-based keys) witnessing a positive matching."""

    weights: tuple[tuple[int, int], ...]

    @staticmethod
    def from_map(weights: dict) -> "WeightCertificate":
        return WeightCertificate(tuple(sorted((int(v), int(w)) for v, w in weights.items())))

    def as_map(self) -> dict[int, int]:
        return dict(self.weights)

    def to_json(self, part: int | None = None) -> dict:
        d = {str(v): str(w) for v, w in self.weights}
        return {"part": part, "weights": d} if part is not None else {"weights": d}


@dataclass(frozen=True)
class PositiveMatchingResult:
    status: str                                 # "positive" | "infeasible" | "not_a_matching"
    certificate: WeightCertificate | None

    @property
    def is_positive(self) -> bool:
        return self.status == "positive"


def _normalize_edges(edges):
    out = {(i, j) if i < j else (j, i) for i, j in edges}
    for i, j in out:
        if i == j:
            raise MatchingArgumentError(f"self-loop ({i},{j})")
    return out


def positive_matching_system(host_edges, part) -> LinearSystem:
    """Normalized system: part sums >= 1, remaining host sums <= -1."""
    host = _normalize_edges(host_edges)
    m = _normalize_edges(part)
    cons = []
    for i, j in sorted(m):
        cons.append(make_constraint({i: 1, j: 1}, ">=", 1))
    for i, j in sorted(host - m):
        cons.append(make_constraint({i: 1, j: 1}, "<=", -1))
    return system(cons)


def is_positive_matching(host_edges, part, n: int | None = None) -> PositiveMatchingResult:
    """Decide whether ``part`` is a positive matching of the host edge set.

    Edges are 1-based vertex pairs. Returns a certificate scaled to
    integers, the infeasible verdict, or the distinct not-a-matching
    status when the part's edges share a vertex. M must be a subset of
    the host edges.
    """
    host = _normalize_edges(host_edges)
    m = _normalize_edges(part)
    if not m <= host:
        raise MatchingArgumentError("part is not a subset of the host edge set")
    used = set()
    for i, j in m:
        if i in used or j in used:
            return PositiveMatchingResult("not_a_matching", None)
        used.update((i, j))
    point = lp_feasible(positive_matching_system(host, m))
    if point is None:
        return PositiveMatchingResult("infeasible", None)
    vertices = {v for e in host for v in e}
    if n is not None:
        vertices.update(range(1, n + 1))
    weights = {v: point.get(v, ZERO) for v in vertices}
    cert = WeightCertificate.from_map(scale_to_integers(weights))
    if not check_certificate(host, m, cert):
        raise RuntimeError("LP point does not certify the matching")
    return PositiveMatchingResult("positive", cert)


def check_certificate(host_edges, part, cert: WeightCertificate) -> bool:
    """Exact strict check of every inequality in the definition."""
    host = _normalize_edges(host_edges)
    m = _normalize_edges(part)
    w = cert.as_map()
    for i, j in m:
        if w.get(i, 0) + w.get(j, 0) <= 0:
            return False
    for i, j in host - m:
        if w.get(i, 0) + w.get(j, 0) >= 0:
            return False
    return True


def walk_certificate(n: int, host_edges, part) -> WeightCertificate | None:
    """Integer certificate from the alternating-walk order, or None.

    The digraph has an arc x -> mate(y) for every non-part host edge
    {x, y} with both ends matched. A directed cycle makes a sum of part
    edge sums equal a sum of non-part edge sums, so no weighting exists
    and the result is None. Otherwise let r(v) be the length of the
    longest path ending at v (the Kahn level) and set

        w(v) = 2 (r(v) - r(mate v)) + 1      on matched vertices,
        w(v) = -(max |w| + 1)                everywhere else.

    Every part edge then sums to 2. A non-part edge with both ends
    matched sums to 2 (r(x) - r(mate y)) + 2 (r(y) - r(mate x)) + 2 <= -2,
    and one with an unmatched end sums to at most -1. Vertices 1..n all
    get a weight. Deterministic: the levels do not depend on visiting
    order. A part that is not a matching returns None.
    """
    host = _normalize_edges(host_edges)
    m = _normalize_edges(part)
    if not m <= host:
        raise MatchingArgumentError("part is not a subset of the host edge set")
    mate: dict[int, int] = {}
    for i, j in m:
        if i in mate or j in mate:
            return None
        mate[i], mate[j] = j, i
    succ: dict[int, list[int]] = {}
    indeg = dict.fromkeys(mate, 0)
    for x, y in host - m:
        mx, my = mate.get(x), mate.get(y)
        if mx is not None and my is not None:
            succ.setdefault(x, []).append(my)
            indeg[my] += 1
            succ.setdefault(y, []).append(mx)
            indeg[mx] += 1
    rank: dict[int, int] = {}
    level = [v for v, d in indeg.items() if d == 0]
    r = 0
    while level:
        nxt = []
        for v in level:
            rank[v] = r
            for t in succ.get(v, ()):
                indeg[t] -= 1
                if indeg[t] == 0:
                    nxt.append(t)
        level = nxt
        r += 1
    if len(rank) < len(mate):
        return None
    matched = {v: 2 * (rank[v] - rank[mate[v]]) + 1 for v in mate}
    low = -(max(map(abs, matched.values()), default=0) + 1)
    w = dict.fromkeys(chain(range(1, n + 1), chain.from_iterable(host)), low)
    w.update(matched)
    return WeightCertificate(tuple(sorted(w.items())))
