"""Positive matchings decided by exact rational LP feasibility.

A candidate part M inside a host edge set E' is positive when some
vertex weighting gives every M-edge a strictly positive endpoint sum and
every other host edge a strictly negative one. The strict system is
homogeneous, so it is feasible exactly when the normalized system with
bounds >= 1 and <= -1 is; that normalized system is decided by a
phase-1 simplex with Bland's rule on a fraction-free integer tableau
(Bareiss-style pivots; Fractions appear only in the returned point or
Farkas witness, which are re-checked exactly). The tests cross-check it
against a Fourier-Motzkin eliminator of their own.

The solver does not use the LP. It decides the same question with the
incremental alternating-walk screen at the end of this module
(``_closes_cycle`` and ``_extend``), which carries the reach set of
every vertex; ``walk_weights`` turns the final reach sets into integer
weights, and ``walk_certificate`` is the same on edge tuples. The LP
stays as an independent oracle for tests and for pmd_bruteforce.
``_stage_fault`` is the one check of integer weights against the
definition: ``check_certificate`` runs it on one stage of edge tuples,
and ``pmd.verify_decomposition`` on each stage of a decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


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
    items = tuple(sorted(((v, Fraction(c)) for v, c in coeffs.items()),
                         key=lambda t: repr(t[0])))
    return Constraint(items, relation, Fraction(bound))


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
        k = (math.lcm(*(q.denominator for q in (*coeffs.values(), bound)))
             * (1 if bound >= 0 else -1))
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
        res = LpResult({v: Fraction(x, D) for v, x in zip(variables, point)}, None)
    else:
        # dual values live in z under the artificial columns
        res = LpResult(None, tuple(Fraction(z[art_lo + i] * k, D) for i, k in enumerate(factor)))
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
# positive matchings

@dataclass(frozen=True, slots=True)
class WeightCertificate:
    """Integer vertex weights (1-based keys) witnessing a positive matching."""

    weights: tuple[tuple[int, int], ...]

    @staticmethod
    def from_map(weights: dict) -> "WeightCertificate":
        """The weights as given, by vertex; the stage check refuses any
        that is not an ``int``."""
        return WeightCertificate(tuple(sorted(weights.items())))

    def to_json(self, part: int) -> dict:
        return {"part": part, "weights": {str(v): str(w) for v, w in self.weights}}


def _stage_fault(labels, index, remaining: int, stage: int, part,
                 cert: WeightCertificate | None) -> tuple[str | None, int]:
    """The one stage check of the definition, on masks over ``labels``, the
    1-based edges (``index`` maps each back to its bit). In this order: each
    edge of ``part`` lies in ``remaining`` and does not repeat, the part is a
    matching, ``cert`` is present, every weight is an ``int``, and every edge
    of ``remaining`` sums > 0 in the part and < 0 outside it. Returns the
    first fault as a message or None, and the mask of the edges the part
    leaves. Every check is an explicit return, so it runs under -O."""
    left, verts = remaining, 0
    for e in part:
        i = index.get(e)
        if i is None or not left >> i & 1:
            return f"stage {stage} is empty, repeats an edge or lies outside the graph", left
        left ^= 1 << i
        verts |= 1 << e[0] | 1 << e[1]
    if verts.bit_count() < 2 * len(part):
        return f"stage {stage} is not a matching", left
    if cert is None:
        return f"stage part {part} is not a positive matching", left
    w = dict(cert.weights)
    if not {int}.issuperset(map(type, w.values())):
        return f"certificate for stage part {part} has a weight that is not an int", left
    rest = remaining
    while rest:
        low = rest & -rest
        rest ^= low
        u, v = labels[low.bit_length() - 1]
        total = w.get(u, 0) + w.get(v, 0)
        if (total >= 0) if left & low else (total <= 0):
            return f"walk certificate for stage part {part} fails its check", left
    return None, left


@dataclass(frozen=True)
class PositiveMatchingResult:
    status: str                                 # "positive" | "infeasible" | "not_a_matching"
    certificate: WeightCertificate | None

    @property
    def is_positive(self) -> bool:
        return self.status == "positive"


def _edge_sets(host_edges, part) -> tuple[set, set]:
    """The tuple front end: the host and the part as sets of pairs (i, j)
    with i < j. A self-loop, or a part edge outside the host, raises
    MatchingArgumentError."""
    host, m = ({(i, j) if i < j else (j, i) for i, j in es} for es in (host_edges, part))
    for i, j in host | m:
        if i == j:
            raise MatchingArgumentError(f"self-loop ({i},{j})")
    if not m <= host:
        raise MatchingArgumentError("part is not a subset of the host edge set")
    return host, m


def positive_matching_system(host_edges, part) -> LinearSystem:
    """Normalized system: part sums >= 1, remaining host sums <= -1."""
    host, m = _edge_sets(host_edges, part)
    return system([make_constraint({i: 1, j: 1}, ">=", 1) for i, j in sorted(m)]
                  + [make_constraint({i: 1, j: 1}, "<=", -1) for i, j in sorted(host - m)])


def is_positive_matching(host_edges, part, n: int | None = None) -> PositiveMatchingResult:
    """Decide whether ``part`` is a positive matching of the host edge set.

    Edges are 1-based vertex pairs. Returns a certificate scaled to
    integers, the infeasible verdict, or the distinct not-a-matching
    status when the part's edges share a vertex. M must be a subset of
    the host edges.
    """
    host, m = _edge_sets(host_edges, part)
    if len({v for e in m for v in e}) < 2 * len(m):
        return PositiveMatchingResult("not_a_matching", None)
    point = lp_feasible(positive_matching_system(host, m))
    if point is None:
        return PositiveMatchingResult("infeasible", None)
    vertices = {v for e in host for v in e}
    if n is not None:
        vertices.update(range(1, n + 1))
    weights = {v: point.get(v, 0) for v in vertices}
    den = math.lcm(*(q.denominator for q in weights.values()))
    cert = WeightCertificate.from_map(
        {v: q.numerator * (den // q.denominator) for v, q in weights.items()})
    if not check_certificate(host, m, cert):
        raise RuntimeError("LP point does not certify the matching")
    return PositiveMatchingResult("positive", cert)


def check_certificate(host_edges, part, cert: WeightCertificate) -> bool:
    """Whether ``cert`` certifies the part as a positive matching of the
    host: ``_stage_fault`` on the one-stage decomposition (host, part).
    A part that is not a matching, or a weight that is not an ``int``,
    fails; a part outside the host raises MatchingArgumentError."""
    host, m = _edge_sets(host_edges, part)
    labels = sorted(host)
    index = {e: i for i, e in enumerate(labels)}
    return _stage_fault(labels, index, (1 << len(labels)) - 1, 1, sorted(m), cert)[0] is None


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
    host, m = _edge_sets(host_edges, part)
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
