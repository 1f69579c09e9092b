"""Positive matchings decided by exact rational LP feasibility.

A candidate part M inside a host edge set E' is positive when some
vertex weighting gives every M-edge a strictly positive endpoint sum and
every other host edge a strictly negative one. The strict system is
homogeneous, so it is feasible exactly when the normalized system with
bounds >= 1 and <= -1 is; that normalized system is decided by a
phase-1 simplex with Bland's rule on a fraction-free integer tableau
(Bareiss-style pivots; Fractions appear only in the returned point or
Farkas witness, which are re-checked exactly). A Fourier-Motzkin
eliminator is kept alongside as an independent test oracle for small
systems.

The solver does not use the LP. It decides the same question with the
incremental alternating-walk screen at the end of this module
(``_closes_cycle`` and ``_extend``), which carries the reach set of
every vertex; ``walk_weights`` turns the final reach sets into integer
weights, and ``walk_certificate`` is the same on edge tuples. The LP and
Fourier-Motzkin stay as independent oracles for tests and for
pmd_bruteforce.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import DeskScaleExceeded
from .rationals import QQ, ZERO, common_denominator, scale_to_integers


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
# phase-1 simplex, Bland's rule, on a fraction-free integer tableau
#
# Every row holds D times its rational row, D the last pivot (1 at the
# start), so entries stay integers (Bareiss). A pivot on the entry piv
# keeps the pivot row, maps every other row, the objective row included,
# to (piv*a - f*b) // D with f the row's entry in the pivot column (the
# division is exact), and sets D = piv. D > 0, so ratios cross-multiply.

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
    such that the >=-oriented rows combine to 0 . x >= positive. Either
    answer is re-checked against the constraints before it is returned.
    """
    variables = sys.variables()
    nv = len(variables)
    vindex = {repr(v): i for i, v in enumerate(variables)}
    m = len(sys.constraints)
    if m == 0:
        return LpResult({}, None)

    # Tableau columns: u (nv) | v (nv) | s (m) | r (m) | rhs. Row i encodes
    # k*(a.x) - sign(k)*s_i + r_i = k*b for the >=-row a.x >= b: |k| clears
    # its denominators and the sign of k makes the rhs >= 0. Row m is the
    # phase-1 objective z, the sum of the rows with an artificial basic.
    ncols = 2 * nv + 2 * m
    art_lo = 2 * nv + m
    factor, T = [], []
    for i, c in enumerate(sys.constraints):
        coeffs, bound = c.as_ge()
        k = common_denominator([*coeffs.values(), bound]) * (1 if bound >= 0 else -1)
        row = [0] * (ncols + 1)
        for v, q in coeffs.items():
            j = vindex[repr(v)]
            row[j] = q.numerator * k // q.denominator
            row[nv + j] = -row[j]
        row[2 * nv + i] = -1 if k > 0 else 1
        row[art_lo + i] = 1
        row[ncols] = bound.numerator * k // bound.denominator
        factor.append(k)
        T.append(row)
    z = [sum(col) for col in zip(*T)]
    T.append(z)

    basis = [art_lo + i for i in range(m)]
    D = 1
    for _ in range(10000 + 200 * (m + nv)):
        enter = next((j for j in range(art_lo) if z[j] > 0), -1)  # artificials never re-enter
        if enter < 0:
            break
        # ratio test, Bland tie-break on the leaving basic variable
        leave = -1
        for i in range(m):
            t = T[i][enter]
            if t > 0 and (leave < 0 or (T[i][ncols] * T[leave][enter], basis[i])
                          < (T[leave][ncols] * t, basis[leave])):
                leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; input invariant broken")
        prow = T[leave]
        piv = prow[enter]
        for i, row in enumerate(T):
            if i != leave:
                f = row[enter]
                row[:] = [(piv * a - f * b) // D for a, b in zip(row, prow)]
        D = piv
        basis[leave] = enter
    else:
        raise RuntimeError("phase-1 simplex failed to terminate")

    if z[ncols] == 0:
        point = [0] * nv
        for i, b in enumerate(basis):
            if b < nv:
                point[b] += T[i][ncols]
            elif b < 2 * nv:
                point[b - nv] -= T[i][ncols]
        res = LpResult({v: QQ(x, D) for v, x in zip(variables, point)}, None)
    else:
        # dual values live in z under the artificial columns
        res = LpResult(None, tuple(QQ(z[art_lo + i] * k, D) for i, k in enumerate(factor)))
    _check_lp_result(sys, res)
    return res


def _check_lp_result(sys: LinearSystem, res: LpResult) -> None:
    """Raise unless the point satisfies every constraint exactly, or the
    witness is >= 0 and combines the >=-rows to 0 . x >= positive."""
    rows = [c.as_ge() for c in sys.constraints]
    if res.point is not None:
        x = {repr(v): q for v, q in res.point.items()}
        if any(sum(q * x[repr(v)] for v, q in a.items()) < b for a, b in rows):
            raise RuntimeError("LP point violates a constraint")
        return
    lam, combined = res.farkas, {}
    for l, (a, _) in zip(lam, rows):
        for v, q in a.items():
            combined[repr(v)] = combined.get(repr(v), 0) + l * q
    if min(lam) < 0 or any(combined.values()) or sum(l * b for l, (_, b) in zip(lam, rows)) <= 0:
        raise RuntimeError("Farkas multipliers do not certify infeasibility")


def lp_feasible(sys: LinearSystem) -> dict | None:
    """Exact feasible point for the system, or None."""
    return solve_system(sys).point


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination (independent oracle, small systems only)

MAX_FM_ROWS = 10_000


def fourier_motzkin_feasible(sys: LinearSystem) -> bool:
    """Eliminate every variable; feasible iff no contradiction 0 >= positive.

    No redundant row is dropped, so the row count can grow doubly
    exponentially with the variables. Once the working rows pass
    ``MAX_FM_ROWS`` the call raises ``DeskScaleExceeded``. The cap is far
    above what the oracle tests need: their largest working set is 52
    rows (positive-matching systems of graphs with n <= 6, and random
    systems with at most 4 variables and 6 constraints)."""
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
                if len(new_rows) > MAX_FM_ROWS:
                    raise DeskScaleExceeded(f"Fourier-Motzkin passed {MAX_FM_ROWS} rows")
        rows = new_rows
    return all(bound <= 0 for coeffs, bound in rows if not coeffs)


# ---------------------------------------------------------------------------
# positive matchings

@dataclass(frozen=True, slots=True)
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


# ---------------------------------------------------------------------------
# the alternating-walk screen
#
# M is positive exactly when its alternating-walk digraph is acyclic: one
# arc x -> mate(y) for every non-part host edge {x, y} with both ends
# matched. A directed cycle makes a sum of part edge sums equal a sum of
# non-part edge sums, so no weighting exists; an acyclic digraph yields
# the weights of ``walk_weights``.
#
# The screen grows M one edge at a time. Adding {a, b} with both ends
# unmatched adds arcs only at a and b: y -> b and a -> mate(y) for every
# matched host neighbour y of a, and y -> a and b -> mate(y) for every
# matched host neighbour y of b, so a new cycle must pass through a or b.
#
# Vertex sets are bitmasks: nbr[v] holds v's neighbours in the host
# graph and used the matched vertices. reach[v] is, for a matched v, the
# matched vertices reachable from v (v included); for an unmatched v, the
# union of reach[mate y] over v's matched neighbours y, which is where v
# would walk once matched. The digraph of the current matching is
# acyclic on entry.

def _closes_cycle(nbr: list[int], used: int, reach: list[int], a: int, b: int) -> bool:
    """Would adding the edge {a, b} (both ends unmatched) close a cycle?

    The new arcs are y -> b and a -> mate(y) for y in into_b, and y -> a
    and b -> mate(y) for y in into_a; so a walks on to reach[a] and b to
    reach[b]. A cycle returns to a alone, to b alone, or passes both."""
    into_b = nbr[a] & used
    into_a = nbr[b] & used
    ra, rb = reach[a], reach[b]
    return bool(ra & into_a or rb & into_b or (ra & into_b and rb & into_a))


def _extend(nbr: list[int], used: int, reach: list[int], a: int, b: int) -> list[int]:
    """reach after adding {a, b}, which must not close a cycle; one pass."""
    into_b = nbr[a] & used
    into_a = nbr[b] & used
    bit_a, bit_b = 1 << a, 1 << b
    ra = bit_a | reach[a]
    rb = bit_b | reach[b]
    # at most one of a ~> b and b ~> a holds, or there would be a cycle
    if ra & into_b:
        ra |= rb
    elif rb & into_a:
        rb |= ra
    # a walk into into_b continues through b, one into into_a through a;
    # an unmatched neighbour of a walks to mate(a) = b, one of b to a
    reach = [r | (rb if r & into_b or nv & bit_a else 0)
             | (ra if r & into_a or nv & bit_b else 0)
             for r, nv in zip(reach, nbr)]
    reach[a], reach[b] = ra, rb
    return reach


def walk_weights(nbr: list[int], pairs: list[tuple[int, int]]) -> list[int] | None:
    """Integer weights for the part ``pairs`` of the host ``nbr``, or None.

    Vertices are 0-based indices into ``nbr``, and every pair must be a
    host edge. The pairs are added one at a time with ``_extend``; the
    result is None when a pair touches a matched vertex or
    ``_closes_cycle`` fires. Otherwise, with |reach[v]| the popcount of
    the final reach set,

        w(v) = 2 (|reach[mate v]| - |reach[v]|) + 1    on matched vertices,
        w(v) = -(max |w| + 1)                          everywhere else.

    For a matched v, reach[v] is v plus every vertex v reaches, so an arc
    v -> u gives reach[v] a strict superset of reach[u] (u cannot reach v
    back), and -|reach| is a strict rank. Every part edge then sums to 2.
    A non-part edge {x, y} with both ends matched has arcs x -> mate(y)
    and y -> mate(x), so it sums to
    2 (|reach[mate x]| - |reach[y]|) + 2 (|reach[mate y]| - |reach[x]|) + 2
    <= -2, and one with an unmatched end sums to at most -1. The final
    reach sets depend only on the part and the host, not on the order in
    which the pairs were added, and neither do the weights.
    """
    used = 0
    reach = [0] * len(nbr)
    for a, b in pairs:
        ends = 1 << a | 1 << b
        if used & ends or _closes_cycle(nbr, used, reach, a, b):
            return None
        reach = _extend(nbr, used, reach, a, b)
        used |= ends
    w = [0] * len(nbr)
    top = 0                                   # the largest |w| so far
    for a, b in pairs:
        d = 2 * (reach[b].bit_count() - reach[a].bit_count())
        w[a] = d + 1
        w[b] = 1 - d
        top = max(top, abs(d) + 1)
    low = -(top + 1)
    return [x if used >> v & 1 else low for v, x in enumerate(w)]


def walk_certificate(n: int, host_edges, part) -> WeightCertificate | None:
    """``walk_weights`` on 1-based edge tuples: a certificate, or None.

    None means the part is not a matching or its alternating-walk digraph
    has a cycle. Vertices 1..n and every host vertex get a weight. The
    part must be a subset of the host.
    """
    host = _normalize_edges(host_edges)
    m = _normalize_edges(part)
    if not m <= host:
        raise MatchingArgumentError("part is not a subset of the host edge set")
    labels = sorted(set(range(1, n + 1)).union(*host))
    index = {v: k for k, v in enumerate(labels)}
    nbr = [0] * len(labels)
    for i, j in host:
        nbr[index[i]] |= 1 << index[j]
        nbr[index[j]] |= 1 << index[i]
    w = walk_weights(nbr, [(index[i], index[j]) for i, j in m])
    if w is None:
        return None
    return WeightCertificate(tuple(zip(labels, w)))
