"""The alternating-walk obstruction test, as one batch call.

A matching M of a host graph is positive exactly when the digraph with
an arc x -> mate(y) for every remaining host edge {x, y} inside the
matched vertex set is acyclic. A directed cycle yields a telescoping
identity equating a sum of the part's (positive) edge sums with a sum of
remaining (negative) edge sums, so no weight function can exist; an
acyclic digraph has integer weights (posmatch.walk_weights).

The solver never calls it: the incremental screen in posmatch.py
decides the test and builds every certificate. This batch form
rebuilds the digraph from scratch and peels it by indegree; the tests
use it as an independent reference, and the benchmark's tracer binds
``obstruction_free`` and ``BACKEND`` by name.
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
