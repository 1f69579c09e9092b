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
remaining part budget. The search keeps only refutations, memoized on
the canonical form of the residual graph (``memo_lo``): whether a graph
splits into q positive matchings depends neither on its labels nor on
its isolated vertices, so one refutation serves every labeling, and the
lower bound is exhaustion up to isomorphism. ``graphs.canonical_labelling``
gives the form together with generators of the stage's automorphism
group, and both are cached per stage mask for the whole solve (``keys``):
the same residual comes back when parts are removed in another order,
and again at each q, and it is labelled once. The cache has no cap; it
holds one entry per distinct stage that passes the degree bound.
``pmd()`` asks for q = bound, bound + 1, ... and stops at the first yes,
so a success is never looked up again: ``decide`` returns the parts of
the first split it finds straight up the recursion.

The bound is max(Δ, 2ω − 3, a + b − 1) (``_subgraph_bound``), with ω
the largest clique and K_{a,b} the largest complete bipartite subgraph
that a scan of vertex pairs finds. Conca and Welker proved
pmd(K_n) = 2n − 3 and pmd(K_{a,b}) = a + b − 1 (*Lovász–Saks–Schrijver
ideals and coordinate sections of determinantal varieties*, Algebra &
Number Theory 13, 2019), and

- Lemma 3: pmd(H) <= pmd(G) for every subgraph H of G. Cut each part of
  a decomposition of G down to E(H) and drop the parts left empty. A
  cut part is a matching, and its stage in H is its stage in G cut down
  to E(H), so its edges and the other stage edges are among those of
  G's stage, and the weights that certify G's part still meet every
  inequality.

So no q below the bound splits, and a bound above a decomposition's
length is a solver bug, which raises by an explicit check that runs
under -O. ``memo_lo`` only cuts subtrees that would return None, so the
search at q = pmd finds the same first split as a search that refutes
every q from Δ up: the value, parts and certificates of an exact solve
do not depend on where the loop starts; only node counts do. The bound
is computed only when the seed is longer than Δ, so forests never pay
for it.

``decide`` enumerates the maximal parts of a stage one edge orbit at a
time, in the order of the orbits' first edges. The run for orbit O
forces O's first edge and never branches on an edge of an earlier
orbit, though it still tests maximality against every stage edge.
Every part it outputs matches each stage vertex of degree q. Two lemmas
make this exhaustive up to isomorphism:

- Lemma 1: an automorphism s of the stage keeps the set of edge orbits
  that a part meets, since s maps each orbit onto itself. s also maps
  positive matchings to positive matchings (weights w certify M, so w
  composed with s^-1 certifies s(M)) and keeps inclusion, so it maps
  maximal parts to maximal parts. Let M be a maximal part, O the first
  orbit it meets and e an edge of M in O, and s an automorphism with
  s(first edge of O) = e. Then s^-1(M) is a maximal part that holds O's
  first edge and meets no earlier orbit, so the run for O outputs it.
  Its residual is the image under s^-1 of M's, so the two are
  isomorphic: equal max degree, equal canonical form, equal answer.
- Lemma 2: a part that misses a vertex of degree q leaves it at degree
  q in the residual, whose max degree q then exceeds the q - 1 parts
  left; ``decide`` refutes that residual at its degree check, without a
  node. So a missed vertex of degree q ends a branch of the enumeration
  as soon as no edge the branch may still add can match it. This is
  sound because positivity is hereditary: an edge that closes a cycle
  with a part closes one with every larger part, so a branch adds only
  edges that pass the screen where it stands. Automorphisms keep
  degrees, so Lemma 1 holds for the parts that Lemma 2 keeps.

Only for a stage it enumerates does ``decide`` turn the generators into
edge image lists (``_edge_images``), kept for that enumeration alone:
``graphs.orbit`` gives the edge orbits, and ``_orbit`` maps parts with
``graphs.image``. Within one run the search skips every part in the
orbit of an earlier one. Skipping changes no value, status, node count,
part or certificate, budget-stopped results included:

- A skipped part s(M) comes after its representative M, whose descent
  at q - 1 returned None, since a success returns at once and a budget
  stop raises. It returned None by the q or degree check, which the
  isomorphic residual fails too, or with ``memo_lo`` of the shared form
  at q or more (entries only grow). Unskipped, s(M) would stop at the
  same check, before any ``_tick``.
- The first success is found at a representative, so the reported
  parts are the same.

On a stage with no automorphisms every edge is its own orbit, and the
runs are the subtrees of one whole-stage enumeration that branches on
edges in index order, so, the cut of Lemma 2 aside, they give exactly
its part set, sorted run by run.

Every graph takes one path. The seed is ``forest_parts``, which on a
forest colours the edges properly with max-degree many colours in one
traversal, or else ``greedy_parts``; the search runs for each q from
the bound up to below the seed's length, so a forest, an edgeless graph
and a graph whose seed meets the bound need none.
``_Solver.certify`` only builds the certificate of each reported stage,
from the same screen: ``posmatch.walk_weights`` folds ``_extend`` over
the part's edges and turns the final reach sets into integer weights.
``verify_decomposition`` is the one re-check, and every result passes it
before it is returned. It re-derives edge masks from the reported
1-based parts. Each part must be non-empty, and each stage must pass
``posmatch._stage_fault`` on the edges left: the one stage check, which
``check_certificate`` runs too and which refuses a weight that is not
an ``int``. At the end no edge may be left. The exact LP is not on this
path; it serves only as the independent oracle in pmd_bruteforce.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, canonical_labelling, image, max_degree, orbit
from .posmatch import (WeightCertificate, _closes_cycle, _extend, _stage_fault,
                       is_positive_matching, walk_weights)
# Not called here; perfbench/tracing.py wraps lssrings.pmd.check_certificate.
from .posmatch import check_certificate  # noqa: F401

DEFAULT_NODE_BUDGET = 10 ** 6


class BudgetExhausted(Exception):
    """Internal signal: search stopped by the node budget."""


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
    lower: int                   # least q not refuted; == value when exact

    def to_json(self) -> dict:
        out = {"value": self.value, "lower": self.lower, "status": self.status,
               "nodes": self.nodes}
        out.update(self.decomposition.to_json())
        return out


def check_node_budget(nb) -> int:
    """``nb`` itself when it is an int (not a bool) of at least 1, else ValueError."""
    if type(nb) is not int or nb < 1:
        raise ValueError(f"node_budget must be a positive integer, got {nb!r}")
    return nb


# ---------------------------------------------------------------------------
# the solver

class _Solver:
    def __init__(self, g: Graph, node_budget: int):
        self.g = g
        self.edges = list(g.edges)             # 0-based, sorted
        self.m = len(self.edges)
        self.node_budget = node_budget
        self.nodes = 0
        self.vmask = [0] * g.n
        for i, (u, v) in enumerate(self.edges):
            self.vmask[u] |= 1 << i
            self.vmask[v] |= 1 << i
        self.memo_lo: dict[tuple[int, ...], int] = {}     # canonical form -> lower bound
        # stage mask -> (canonical form, automorphism generators as vertex
        # image lists), for each stage decide gets past the degree bound
        self.keys: dict[int, tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = {}

    # -- bookkeeping

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExhausted

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

    def _maximal_parts(self, host: list[tuple[int, int, int, int]], nbr: list[int],
                       first: tuple[int, int, int, int], banned: int,
                       tight: int) -> list[int]:
        """Inclusion-maximal positive matchings of the stage ``(host, nbr)``
        that ``_stage`` built, largest first: those that hold the edge
        ``first``, no edge of ``banned`` and every vertex of ``tight``.
        A branch adds edges past its last one and outside ``banned`` only,
        but a part is maximal only when no stage edge at all extends it. A
        branch stops once a vertex of ``tight`` is neither matched nor an
        end of an edge it may still add (Lemma 2)."""
        out = []

        def rec(cur_mask: int, used: int, reach: list[int], start: int):
            self._tick()
            extendable = False
            branches = []
            coverable = used
            for i, u, v, ends in host:
                if used & ends:
                    continue
                if extendable and (i < start or banned >> i & 1):
                    continue   # cannot branch here, and maximality is settled
                if not _closes_cycle(nbr, used, reach, u, v):
                    extendable = True
                    if i >= start and not banned >> i & 1:
                        branches.append((i, u, v, ends))
                        coverable |= ends
            if not extendable:
                if not tight & ~used:
                    out.append(cur_mask)
                return
            if tight & ~coverable:
                return
            for i, u, v, ends in branches:
                rec(cur_mask | 1 << i, used | ends, _extend(nbr, used, reach, u, v), i + 1)

        i, u, v, ends = first
        rec(1 << i, ends, _extend(nbr, 0, [0] * self.g.n, u, v), i + 1)
        return sorted(out, key=lambda pm: (-pm.bit_count(), pm))

    # -- decision procedure

    def decide(self, mask: int, q: int) -> list[int] | None:
        """The parts, as edge masks with the first stage first, of a split
        of the stage graph on ``mask`` into <= q positive matchings, or None.

        The checks that need no stage come first: an empty stage (no
        parts), no part left (q <= 0) and the max-degree bound. The stage
        is then built at most once: for a new ``keys`` entry, or else only
        if ``memo_lo`` leaves it to enumerate. Only refutations are
        memoized: ``memo_lo`` is keyed on the canonical form, since a
        refutation holds for every graph isomorphic to the stage.
        ``_maximal_parts`` runs once per edge orbit, with the vertices of
        degree q as ``tight``, and within a run the search descends into
        the first part of each orbit of parts; the module docstring says
        why neither moves a value."""
        if mask == 0:
            return []
        if q <= 0:
            return None
        degrees = [(vm & mask).bit_count() for vm in self.vmask]
        if max(degrees) > q:
            return None
        stage = None
        entry = self.keys.get(mask)
        if entry is None:
            stage = self._stage(mask)
            key, _, gens = canonical_labelling(stage[1])
            entry = self.keys[mask] = (key, gens)
        key, gens = entry
        if self.memo_lo.get(key, 1) > q:
            return None
        host, nbr = stage or self._stage(mask)
        self._tick()
        images = self._edge_images(host, gens, mask)
        tight = sum(1 << v for v, d in enumerate(degrees) if d == q)
        banned = 0
        while banned != mask:
            low = (mask ^ banned) & -(mask ^ banned)    # the next edge orbit's first edge
            # it sits in host after every stage edge below it
            first = host[(mask & (low - 1)).bit_count()]
            covered: set[int] = set()      # the orbits of the parts tried so far
            parts = self._maximal_parts(host, nbr, first, banned, tight)
            for pm in parts:
                if pm in covered:
                    continue
                if images and pm != parts[-1]:     # no part after the last to skip
                    covered |= self._orbit(pm, images)
                rest = self.decide(mask & ~pm, q - 1)
                if rest is not None:
                    return [pm, *rest]
            banned |= orbit(low, images)
        self.memo_lo[key] = q + 1
        return None

    def _edge_images(self, host, gens, stage: int) -> list[list[int]]:
        """Each vertex map p in ``gens`` as an edge image list: entry i is the
        index of {p[u], p[v]} for each stage edge i = {u, v}. An image off
        the stage means p is no automorphism, a solver bug, which raises by
        an explicit check that runs under -O."""
        vmask = self.vmask
        out = []
        for p in gens:
            img = list(range(self.m))
            for i, u, v, _ in host:
                e = vmask[p[u]] & vmask[p[v]]
                if not e or e & ~stage:
                    raise RuntimeError(f"generator {p} maps the edge {(u + 1, v + 1)} "
                                       "outside the stage")
                img[i] = e.bit_length() - 1
            out.append(img)
        return out

    @staticmethod
    def _orbit(pm: int, gens: list[list[int]]) -> set[int]:
        """The edge masks that the group with edge image lists ``gens`` maps
        ``pm`` onto."""
        out, todo = {pm}, [pm]
        while todo:
            cur = todo.pop()
            for g in gens:
                img = image(cur, g)
                if img not in out:
                    out.add(img)
                    todo.append(img)
        return out

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
        nbr = self.g.masks()
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


def pmd(g: Graph, node_budget: int | None = None) -> PmdResult:
    """Exact pmd with certificates, degrading to an upper bound once the
    search passes ``node_budget`` nodes (None: ``DEFAULT_NODE_BUDGET``),
    its only stop. The budget counts search nodes only; the seed,
    ``_subgraph_bound`` (a clique branch and bound, exponential in the
    worst case and ω + 1 frames deep) and the certificates run outside
    it. Single-task and deterministic; corpus-level parallelism lives in
    the scan harness. A node budget other than an integer of at least 1
    raises ValueError."""
    nb = check_node_budget(DEFAULT_NODE_BUDGET if node_budget is None
                           else node_budget)
    s = _Solver(g, nb)
    best = s.forest_parts() or s.greedy_parts()
    lower = max_degree(g)
    if len(best) > lower:
        lower = _subgraph_bound(g.masks())
    status = "exact"
    try:
        while lower < len(best):
            found = s.decide((1 << s.m) - 1, lower)
            if found is not None:
                best = found
                break
            lower += 1
    except BudgetExhausted:
        status = "upper_bound_only"
    if lower > len(best):
        raise RuntimeError(f"lower bound {lower} exceeds a decomposition "
                           f"into {len(best)} parts")
    dec = s.certify(best)
    return PmdResult(len(dec), dec, status, s.nodes, lower)


def _subgraph_bound(nbr: list[int]) -> int:
    """max(Δ, 2ω − 3, a + b − 1) for the graph with neighbour masks ``nbr``:
    ω from a branch and bound for a largest clique, and a + b from each
    vertex pair u <= w, where C = N(u) ∩ N(w) and A, the common neighbours
    of C, span K_{|A|,|C|} (u = w gives the star at u, so Δ). Lemma 3
    makes it a lower bound on pmd."""
    everyone = (1 << len(nbr)) - 1
    bound = omega = 0

    def grow(size: int, cand: int):
        nonlocal omega
        omega = max(omega, size)
        while cand and size + cand.bit_count() > omega:
            low = cand & -cand
            cand ^= low
            grow(size + 1, cand & nbr[low.bit_length() - 1])

    grow(0, everyone)
    for u, nu in enumerate(nbr):
        for nw in nbr[u:]:
            common = c = nu & nw
            if not common:
                continue
            side = everyone
            while c:
                low = c & -c
                side &= nbr[low.bit_length() - 1]
                c ^= low
            bound = max(bound, side.bit_count() + common.bit_count() - 1)
    return max(bound, 2 * omega - 3)


def greedy_upper_bound(g: Graph) -> PmdDecomposition:
    """Greedy stage decomposition (valid, length upper-bounds pmd)."""
    s = _Solver(g, 10 ** 9)
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
    """The first broken invariant of ``dec`` as a message, or None: as many
    certificates as parts, no empty part, each stage passing
    ``posmatch._stage_fault`` on the edges that parts 1..l-1 leave, and no
    edge left at the end. Edge sets are masks over g's edge order. Every
    check is an explicit return, so it runs under -O."""
    if len(dec.parts) != len(dec.certificates):
        return (f"the decomposition has {len(dec.parts)} parts but "
                f"{len(dec.certificates)} certificates")
    labels = g.edge_labels()
    index = {e: i for i, e in enumerate(labels)}
    remaining = (1 << len(labels)) - 1
    for stage, (part, cert) in enumerate(zip(dec.parts, dec.certificates), 1):
        if not part:
            return f"stage {stage} is empty, repeats an edge or lies outside the graph"
        fault, remaining = _stage_fault(labels, index, remaining, stage, part, cert)
        if fault is not None:
            return fault
    if remaining:
        uncovered = (e for i, e in enumerate(labels) if remaining >> i & 1)
        return f"the parts leave {tuple(sorted(uncovered))} uncovered"
    return None
