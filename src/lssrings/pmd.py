"""Exact positive matching decomposition numbers by branch and bound.

The search works stage by stage: a decomposition of the remaining edge
set R starts with an inclusion-maximal positive matching of (V, R) and
continues on what is left. Restricting to maximal first parts is safe:
any valid decomposition stays valid after growing its first part and
shrinking the later ones, because removing host edges only removes
negativity constraints.

A matching M of the stage graph is positive exactly when its
alternating-walk digraph is acyclic (posmatch.py explains why). Parts
are grown one edge at a time, and each branch carries the reach sets of
posmatch's incremental screen: ``_closes_cycle`` decides a candidate
edge with a few mask operations, without building the digraph, and
``_extend`` updates the sets in one pass for the branches the search
enters.

Stages are pruned whenever the residual max degree exceeds the
remaining part budget. A success is memoized on the remaining edge set
(``memo_part``), so ``_reconstruct`` can replay its first part. A
refutation is memoized on ``graphs.canonical_form`` of the residual
graph (``memo_lo``): whether a graph splits into q positive matchings
depends neither on its labels nor on its isolated vertices, so one
refutation serves every labeling, and the lower bound is exhaustion up
to isomorphism. ``_Solver.certify`` only builds the certificate of each
reported stage, from the same screen: ``posmatch.walk_weights`` folds
``_extend`` over the part's edges and turns the final reach sets into
integer weights. ``verify_decomposition`` is the one re-check, and every
result passes it before it is returned. It re-derives edge masks from
the reported 1-based parts and checks, stage by stage, that each part is
a non-empty matching of the edges left, then every strict inequality of
the definition on those edges; at the end no edge may be left. A forest
skips the search: one traversal in ``forest_parts`` finds no cycle and
colours the edges properly with max-degree many colours. The exact LP
is not on this path; it serves only as the independent oracle in
pmd_bruteforce.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .graphs import Graph, canonical_form, max_degree
from .posmatch import (WeightCertificate, _closes_cycle, _extend,
                       is_positive_matching, walk_weights)
# Not called here since _fault checks on masks; perfbench/tracing.py wraps
# lssrings.pmd.check_certificate, so the name stays bound.
from .posmatch import check_certificate  # noqa: F401

DEFAULT_NODE_BUDGET = 10 ** 6
DEFAULT_TIME_BUDGET = 60.0


class BudgetExhausted(Exception):
    """Internal signal: search stopped by the node or time budget."""


@dataclass(frozen=True, slots=True)
class PmdDecomposition:
    """Ordered edge partition with one weight certificate per part.

    Parts hold 1-based edges; certificate l validates part l against the
    graph on the full vertex set with parts 1..l-1 removed.
    """

    parts: tuple[tuple[tuple[int, int], ...], ...]
    certificates: tuple[WeightCertificate, ...]

    def __len__(self) -> int:
        return len(self.parts)

    def to_json(self) -> dict:
        return {
            "parts": [[list(e) for e in part] for part in self.parts],
            "certificates": [c.to_json(part=l + 1) for l, c in enumerate(self.certificates)],
        }


@dataclass(frozen=True, slots=True)
class PmdResult:
    value: int
    decomposition: PmdDecomposition
    status: str                  # "exact" | "upper_bound_only"
    nodes: int
    ms: float

    def to_json(self) -> dict:
        out = {"value": self.value, "status": self.status, "nodes": self.nodes}
        out.update(self.decomposition.to_json())
        return out


def default_node_budget() -> int:
    env = os.environ.get("LSS_BUDGET_NODES", "").strip()
    if not env:
        return DEFAULT_NODE_BUDGET
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"LSS_BUDGET_NODES must be a positive integer, got {env!r}")
    return int(env)


def check_node_budget(nb) -> int:
    """``nb`` itself when it is an integer of at least 1, else ValueError."""
    if not isinstance(nb, int) or nb < 1:
        raise ValueError(f"node_budget must be a positive integer, got {nb!r}")
    return nb


# ---------------------------------------------------------------------------
# the solver

class _Solver:
    def __init__(self, g: Graph, node_budget: int, time_budget: float):
        self.g = g
        self.edges = list(g.edges)             # 0-based, sorted
        self.m = len(self.edges)
        self.node_budget = node_budget
        self.deadline = time.monotonic() + time_budget
        self.nodes = 0
        self.vmask = [0] * g.n
        for i, (u, v) in enumerate(self.edges):
            self.vmask[u] |= 1 << i
            self.vmask[v] |= 1 << i
        self.memo_lo: dict[tuple[int, ...], int] = {}     # canonical form -> lower bound
        self.memo_part: dict[int, tuple[int, int]] = {}   # mask -> (length, first part)

    # -- bookkeeping

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExhausted
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            raise BudgetExhausted

    def _maxdeg(self, mask: int) -> int:
        return max(((vm & mask).bit_count() for vm in self.vmask), default=0)

    # -- stage enumeration

    def _stage(self, host_mask: int) -> tuple[list[tuple[int, int, int, int]], list[int]]:
        """The stage's edges as (index, u, v, {u, v}) and its neighbour masks."""
        host = []
        nbr = [0] * self.g.n
        hm = host_mask
        while hm:
            b = hm & -hm
            i = b.bit_length() - 1
            u, v = self.edges[i]
            host.append((i, u, v, 1 << u | 1 << v))
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            hm ^= b
        return host, nbr

    def _maximal_parts(self, host: list[tuple[int, int, int, int]],
                       nbr: list[int]) -> list[int]:
        """Inclusion-maximal positive matchings of the stage ``(host, nbr)``
        that ``_stage`` built, largest first."""
        out = []

        def rec(cur_mask: int, used: int, reach: list[int], start: int):
            self._tick()
            extendable = False
            branches = []
            for i, u, v, ends in host:
                if used & ends:
                    continue
                if i < start and extendable:
                    continue   # cannot branch here, and maximality is settled
                if not _closes_cycle(nbr, used, reach, u, v):
                    extendable = True
                    if i >= start:
                        branches.append((i, u, v, ends))
            if not extendable:
                out.append(cur_mask)
                return
            for i, u, v, ends in branches:
                rec(cur_mask | 1 << i, used | ends, _extend(nbr, used, reach, u, v), i + 1)

        rec(0, 0, [0] * self.g.n, 0)
        return sorted(set(out), key=lambda pm: (-pm.bit_count(), pm))

    # -- decision procedure

    def decide(self, mask: int, q: int) -> bool:
        """Can the stage graph on ``mask`` be split into <= q positive matchings?

        The checks that need no stage come first: an empty stage, no part
        left (q <= 0), the max-degree bound and a ``memo_part`` hit.
        ``memo_part`` stays keyed on the mask: it is written only on
        success, and its first part is an edge mask that ``_reconstruct``
        replays on these labels. Only then is the stage built, once, for
        both its canonical form and ``_maximal_parts``. ``memo_lo`` holds
        refutations, which hold for every graph isomorphic to the stage, so
        it is keyed on the canonical form and never on the mask."""
        if mask == 0:
            return True
        if q <= 0 or self._maxdeg(mask) > q:
            return False
        known = self.memo_part.get(mask)
        if known is not None and known[0] <= q:
            return True
        host, nbr = self._stage(mask)
        key = canonical_form(nbr)
        if self.memo_lo.get(key, 1) > q:
            return False
        self._tick()
        for pm in self._maximal_parts(host, nbr):
            if self.decide(mask & ~pm, q - 1):
                sub = self.memo_part.get(mask & ~pm)
                self.memo_part[mask] = (1 + (sub[0] if sub else 0), pm)
                return True
        self.memo_lo[key] = q + 1
        return False

    # -- construction helpers

    def greedy_parts(self) -> list[int]:
        """Stage-by-stage greedy: grow each part over the edges in index order."""
        parts = []
        mask = (1 << self.m) - 1
        while mask:
            host, nbr = self._stage(mask)
            cur, used = 0, 0
            reach = [0] * self.g.n
            for i, u, v, ends in host:
                if used & ends:
                    continue
                if not _closes_cycle(nbr, used, reach, u, v):
                    reach = _extend(nbr, used, reach, u, v)
                    cur |= 1 << i
                    used |= ends
            parts.append(cur)
            mask &= ~cur
        return parts

    def forest_parts(self) -> list[int] | None:
        """Proper edge colouring with max-degree many colours, or None when
        the graph has a cycle.

        One traversal does both. Each vertex is reached once, through the
        edge that colours it in; an uncoloured edge to a vertex already
        reached closes a cycle. Each edge takes the lowest colour free at
        both ends, and a newly reached end has none in use yet."""
        edges, vmask = self.edges, self.vmask
        used_at = [0] * self.g.n
        seen = coloured = 0
        parts: list[int] = []
        for root in range(self.g.n):
            if seen >> root & 1:
                continue
            seen |= 1 << root
            stack = [root]
            while stack:
                u = stack.pop()
                todo = vmask[u] & ~coloured
                coloured |= todo
                while todo:
                    e = todo & -todo
                    todo ^= e
                    x, y = edges[e.bit_length() - 1]
                    v = x if y == u else y
                    if seen >> v & 1:
                        return None
                    seen |= 1 << v
                    both = used_at[u] | used_at[v]
                    low = ~both & (both + 1)          # lowest free colour
                    c = low.bit_length() - 1
                    if c == len(parts):
                        parts.append(0)
                    parts[c] |= e
                    used_at[u] |= low
                    used_at[v] |= low
                    stack.append(v)
        return parts

    def certify(self, part_masks: list[int]) -> PmdDecomposition:
        """Build the decomposition of ``part_masks`` with stage certificates.

        Each part gets ``walk_weights`` on its stage graph, or None when the
        walk refuses it. The result must then pass ``_fault``, the check
        behind ``verify_decomposition``; any fault is a solver bug and
        raises."""
        edges, labels = self.edges, self.g.edge_labels()
        nbr = [0] * self.g.n
        for u, v in edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        parts, certs = [], []
        for stage, pm in enumerate(part_masks, 1):
            if pm >> self.m:   # edges past the graph would be dropped below
                raise RuntimeError(f"stage {stage} is empty, repeats an edge "
                                   "or lies outside the graph")
            pairs, part = [], []
            rest = pm
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                pairs.append(edges[i])
                part.append(labels[i])
                rest ^= low
            w = walk_weights(nbr, pairs)
            parts.append(tuple(part))
            certs.append(None if w is None else WeightCertificate(tuple(enumerate(w, 1))))
            for u, v in pairs:
                nbr[u] &= ~(1 << v)
                nbr[v] &= ~(1 << u)
        dec = PmdDecomposition(tuple(parts), tuple(certs))
        fault = _fault(self.g, dec)
        if fault is not None:
            raise RuntimeError(fault)
        return dec


def pmd(g: Graph, node_budget: int | None = None,
        time_budget: float | None = None) -> PmdResult:
    """Exact pmd with certificates, degrading to an upper bound on budget
    exhaustion. Single-task and deterministic; corpus-level parallelism
    lives in the scan harness. A node budget other than an integer of at
    least 1 raises ValueError."""
    t0 = time.monotonic()
    nb = check_node_budget(node_budget if node_budget is not None
                           else default_node_budget())
    tb = time_budget if time_budget is not None else DEFAULT_TIME_BUDGET
    s = _Solver(g, nb, tb)
    if s.m == 0:
        return PmdResult(0, PmdDecomposition((), ()), "exact", 0, _ms(t0))

    lb = max_degree(g)

    fp = s.forest_parts()
    if fp is not None and len(fp) == lb:
        return PmdResult(lb, s.certify(fp), "exact", s.nodes, _ms(t0))

    best = s.greedy_parts()
    status = "exact"
    try:
        for q in range(lb, len(best)):
            if s.decide((1 << s.m) - 1, q):
                best = _reconstruct(s)
                break
    except BudgetExhausted:
        status = "upper_bound_only"
    dec = s.certify(best)
    return PmdResult(len(dec), dec, status, s.nodes, _ms(t0))


def _reconstruct(s: _Solver) -> list[int]:
    parts = []
    mask = (1 << s.m) - 1
    while mask:
        pm = s.memo_part[mask][1]
        parts.append(pm)
        mask &= ~pm
    return parts


def _ms(t0: float) -> float:
    return (time.monotonic() - t0) * 1000.0


def greedy_upper_bound(g: Graph) -> PmdDecomposition:
    """Greedy stage decomposition (valid, length upper-bounds pmd)."""
    s = _Solver(g, 10 ** 9, 3600.0)
    if s.m == 0:
        return PmdDecomposition((), ())
    return s.certify(s.greedy_parts())


def pmd_bruteforce(g: Graph) -> int:
    """Reference oracle: try p = max degree, max degree + 1, ... and for each
    stage exhaust every matching whose positivity the LP confirms.

    Independent of the branch-and-bound path: no obstruction screen, no
    maximality restriction, no greedy seed. Guarded to |E| <= 10.
    """
    if g.m > 10:
        raise ValueError("brute force is guarded to graphs with at most 10 edges")
    if g.m == 0:
        return 0
    edges = [(u + 1, v + 1) for u, v in g.edges]
    full = frozenset(edges)

    def matchings(pool):
        pool = sorted(pool)
        out = [frozenset()]
        def rec(cur, used, start):
            for idx in range(start, len(pool)):
                i, j = pool[idx]
                if i in used or j in used:
                    continue
                nxt = cur | {(i, j)}
                out.append(frozenset(nxt))
                rec(nxt, used | {i, j}, idx + 1)
        rec(set(), set(), 0)
        return out

    poscache: dict[tuple[frozenset, frozenset], bool] = {}

    def positive(host, m):
        key = (host, m)
        if key not in poscache:
            poscache[key] = is_positive_matching(host, m, n=g.n).is_positive
        return poscache[key]

    seen: dict[tuple[frozenset, int], bool] = {}

    def can(host: frozenset, p: int) -> bool:
        if not host:
            return True
        if p == 0:
            return False
        key = (host, p)
        if key not in seen:
            seen[key] = any(
                positive(host, m) and can(host - m, p - 1)
                for m in matchings(host) if m
            )
        return seen[key]

    p = max_degree(g)
    while not can(full, p):
        p += 1
    return p


def verify_decomposition(g: Graph, dec: PmdDecomposition) -> bool:
    """The one exact re-check of a decomposition, which every solver
    result passes before it is returned."""
    return _fault(g, dec) is None


def _fault(g: Graph, dec: PmdDecomposition) -> str | None:
    """The first broken invariant of ``dec`` as a message, or None: the parts
    must be non-empty, disjoint matchings of g that cover every edge, and
    certificate l must meet every strict inequality of the definition on
    the edges that parts 1..l-1 leave: a sum > 0 on each part edge and < 0
    on each other one. Edge sets are masks over g's edge order and each
    part's vertices one vertex mask, so a stage costs one pass over its
    part and one over the remaining edges. Every check is an explicit
    return, so it runs under -O."""
    if len(dec.parts) != len(dec.certificates):
        return (f"the decomposition has {len(dec.parts)} parts but "
                f"{len(dec.certificates)} certificates")
    labels = g.edge_labels()
    index = {e: i for i, e in enumerate(labels)}
    remaining = (1 << len(labels)) - 1
    for stage, (part, cert) in enumerate(zip(dec.parts, dec.certificates), 1):
        left, verts = remaining, 0
        for e in part:
            i = index.get(e)
            if i is None or not left >> i & 1:
                return f"stage {stage} is empty, repeats an edge or lies outside the graph"
            left ^= 1 << i
            u, v = labels[i]
            verts |= 1 << u | 1 << v
        if left == remaining:
            return f"stage {stage} is empty, repeats an edge or lies outside the graph"
        if verts.bit_count() < 2 * len(part):
            return f"stage {stage} is not a matching"
        if cert is None:
            return f"stage part {part} is not a positive matching"
        w = dict(cert.weights)
        rest = remaining
        while rest:
            low = rest & -rest
            rest ^= low
            u, v = labels[low.bit_length() - 1]
            total = w.get(u, 0) + w.get(v, 0)
            if (total >= 0) if left & low else (total <= 0):
                return f"walk certificate for stage part {part} fails its check"
        remaining = left
    if remaining:
        uncovered = (e for i, e in enumerate(labels) if remaining >> i & 1)
        return f"the parts leave {tuple(sorted(uncovered))} uncovered"
    return None
