"""The alternating-walk obstruction test, as one batch call.

A matching M of a host graph is positive exactly when the digraph with
an arc x -> mate(y) for every remaining host edge {x, y} inside the
matched vertex set is acyclic. A directed cycle yields a telescoping
identity equating a sum of the part's (positive) edge sums with a sum of
remaining (negative) edge sums, so no weight function can exist. An
acyclic digraph has a topological order, and posmatch.walk_certificate
turns that order into integer weights. The test is therefore exact, and
the certificate of every accepted part comes from the same digraph.

The solver in pmd.py runs the same test incrementally, one added edge at
a time; this batch form rebuilds the digraph from scratch and serves as
the reference it is tested against.
"""

from __future__ import annotations

BACKEND = "pure"   # the only implementation; benchmark environment blocks report it


def obstruction_free(mate: list[int], host_u: list[int], host_v: list[int]) -> bool:
    """True iff the alternating-walk digraph is acyclic.

    mate[v] is the partner of v in the candidate part, or -1.
    host_u/host_v list the endpoints of the remaining (non-part) host edges.
    """
    n = len(mate)
    heads: list[int] = []
    nxt: list[int] = []
    first = [-1] * n
    indeg = [0] * n
    for x, y in zip(host_u, host_v):
        mx, my = mate[x], mate[y]
        if mx < 0 or my < 0:
            continue
        heads.append(my)
        nxt.append(first[x])
        first[x] = len(heads) - 1
        indeg[my] += 1
        heads.append(mx)
        nxt.append(first[y])
        first[y] = len(heads) - 1
        indeg[mx] += 1
    if not heads:
        return True
    # Kahn peeling: acyclic iff every indegree drains to zero.
    queue = [v for v in range(n) if indeg[v] == 0 and first[v] != -1]
    while queue:
        v = queue.pop()
        e = first[v]
        first[v] = -1
        while e != -1:
            w = heads[e]
            indeg[w] -= 1
            if indeg[w] == 0 and first[w] != -1:
                queue.append(w)
            e = nxt[e]
    return not any(indeg)
