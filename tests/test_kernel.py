"""The batch alternating-walk kernel agrees with the LP."""

import random

from lssrings import kernel
from lssrings.posmatch import is_positive_matching
from conftest import all_matchings


def _verdict(impl, n, host, part):
    """Run one obstruction check on 1-based edges; True = no obstruction."""
    mate = [-1] * n
    for (u, v) in part:
        mate[u - 1], mate[v - 1] = v - 1, u - 1
    rest = [e for e in host if e not in set(part)]
    return impl(mate, [u - 1 for u, _ in rest], [v - 1 for _, v in rest])


def test_filter_matches_lp_exactly(all_n5):
    """Acyclic iff the strict system is feasible, on the full small corpus."""
    rng = random.Random(3)
    for g in all_n5:
        host = list(g.edge_labels())
        matchings = all_matchings(host)
        if len(matchings) > 24:
            matchings = rng.sample(matchings, 24)
        for m in matchings:
            screened = _verdict(kernel.obstruction_free, g.n, host, sorted(m))
            lp = is_positive_matching(host, m).is_positive
            assert screened == lp, (g.edge_labels(), sorted(m))


def test_rejection_is_sound_on_c4():
    host = [(1, 2), (2, 3), (3, 4), (1, 4)]
    assert not _verdict(kernel.obstruction_free, 4, host, [(1, 2), (3, 4)])
    assert not is_positive_matching(host, [(1, 2), (3, 4)]).is_positive
