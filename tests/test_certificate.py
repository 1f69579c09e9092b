"""Stage certificates from the alternating-walk order, and the explicit
checks that back every reported decomposition (they must hold under -O)."""

import importlib
import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lssrings
from lssrings import groebner, kernel, posmatch
from lssrings.graphs import complete, complete_bipartite, cycle
from lssrings.pmd import (PmdDecomposition, greedy_upper_bound, pmd,
                          verify_decomposition)
from lssrings.posmatch import (MatchingArgumentError, WeightCertificate,
                               check_certificate, is_positive_matching,
                               walk_certificate)

# lssrings.pmd is shadowed by the function of the same name on the package.
pmd_module = importlib.import_module("lssrings.pmd")

EXAMPLE_EDGES = [(1, 2), (2, 3), (2, 4), (3, 4)]
C4_EDGES = [(1, 2), (2, 3), (3, 4), (1, 4)]


@st.composite
def graph_and_matching(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    host = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    picked = draw(st.lists(st.sampled_from(host), unique=True) if host else st.just([]))
    part, used = [], set()
    for i, j in picked:
        if i not in used and j not in used:
            part.append((i, j))
            used.update((i, j))
    return n, sorted(host), sorted(part)


@settings(max_examples=250, deadline=None)
@given(graph_and_matching())
def test_walk_certificate_exists_exactly_when_lp_says_positive(case):
    n, host, part = case
    cert = walk_certificate(n, host, part)
    assert (cert is not None) == is_positive_matching(host, part, n=n).is_positive
    if cert is not None:
        assert check_certificate(host, part, cert)
        assert set(cert.as_map()) == set(range(1, n + 1))


@settings(max_examples=250, deadline=None)
@given(graph_and_matching(), st.randoms(use_true_random=False))
def test_walk_certificate_ignores_edge_order(case, rnd):
    """The final reach sets depend only on the part and the host, so the
    certificate is the same for every order of either edge list, and
    walk_weights gives the same weights whatever order it adds the part in."""
    n, host, part = case
    cert = walk_certificate(n, host, part)
    nbr = [0] * n
    for i, j in host:
        nbr[i - 1] |= 1 << j - 1
        nbr[j - 1] |= 1 << i - 1
    pairs = [(i - 1, j - 1) for i, j in part]
    weights = posmatch.walk_weights(nbr, pairs)
    for _ in range(4):
        host2, part2, pairs2 = host[:], part[:], pairs[:]
        for seq in (host2, part2, pairs2):
            rnd.shuffle(seq)
        assert walk_certificate(n, [(j, i) if rnd.random() < 0.5 else (i, j)
                                    for i, j in host2], part2) == cert
        assert posmatch.walk_weights(nbr, [(j, i) if rnd.random() < 0.5 else (i, j)
                                           for i, j in pairs2]) == weights
    if cert is not None:
        assert cert.weights == tuple(enumerate(weights, 1))


def test_walk_certificate_agrees_with_kernel_exhaustively(all_n5):
    for g in all_n5:
        host = list(g.edge_labels())
        for k in range(len(host) + 1):
            for part in itertools.combinations(host, k):
                cert = walk_certificate(g.n, host, part)
                verts = [v for e in part for v in e]
                if len(set(verts)) < len(verts):
                    assert cert is None
                    continue
                mate = [-1] * g.n
                for u, v in part:
                    mate[u - 1], mate[v - 1] = v - 1, u - 1
                rest = [e for e in host if e not in part]
                free = kernel.obstruction_free(mate, [u - 1 for u, _ in rest],
                                               [v - 1 for _, v in rest])
                assert (cert is not None) == free, (host, part)
                if cert is not None:
                    assert check_certificate(host, part, cert)


def test_walk_certificate_small_cases():
    cert = walk_certificate(4, EXAMPLE_EDGES, [(1, 2), (3, 4)])
    # arcs 2 -> 4, 2 -> 3, 3 -> 1, 4 -> 1 give |reach| = 1, 4, 2, 2 for
    # vertices 1-4, and w(v) = 2 (|reach[mate v]| - |reach[v]|) + 1
    assert cert == WeightCertificate.from_map({1: 7, 2: -5, 3: 1, 4: 1})
    assert walk_certificate(4, C4_EDGES, [(1, 2), (3, 4)]) is None
    assert walk_certificate(4, EXAMPLE_EDGES, [(1, 2), (2, 3)]) is None
    assert walk_certificate(3, [], []) == WeightCertificate.from_map({1: -1, 2: -1, 3: -1})
    with pytest.raises(MatchingArgumentError):
        walk_certificate(4, EXAMPLE_EDGES, [(1, 3)])


def test_solver_never_calls_the_lp(connected_n6, monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("the solver reached the LP")

    monkeypatch.setattr(pmd_module, "is_positive_matching", no_lp)
    monkeypatch.setattr(posmatch, "solve_system", no_lp)
    for g in connected_n6:
        assert pmd(g).status == "exact"
        greedy_upper_bound(g)


def test_stage_failures_raise(monkeypatch):
    monkeypatch.setattr(pmd_module, "walk_weights", lambda nbr, pairs: None)
    with pytest.raises(RuntimeError, match="not a positive matching"):
        pmd(complete(4))
    monkeypatch.undo()
    monkeypatch.setattr(pmd_module, "walk_weights", lambda nbr, pairs: [-1] * len(nbr))
    with pytest.raises(RuntimeError, match="fails its check"):
        greedy_upper_bound(complete(4))


def test_certify_rejects_bad_part_lists():
    """certify rejects a bad partition with explicit raises."""
    s = pmd_module._Solver(complete(4), 10 ** 6, 60.0)
    good = s.greedy_parts()
    assert len(s.certify(good)) == len(good) == 5
    bad = {
        "is empty": [0, *good],
        "repeats an edge": [good[0], good[0] | good[1], *good[2:]],
        "outside the graph": [*good, 1 << s.m],
        "not a matching": [0b11, *good],             # edges 12 and 13
        "uncovered": good[:-1],
    }
    for message, parts in bad.items():
        with pytest.raises(RuntimeError, match=message):
            s.certify(parts)

    # verify_decomposition is the same check: given the good list's
    # certificates, each bad list fails it for the same reason.
    g = complete(4)
    dec = s.certify(good)
    edges = [(u + 1, v + 1) for u, v in s.edges] + [(4, 5)]   # bit m lies outside K4
    for message, parts in bad.items():
        bad_dec = PmdDecomposition(
            tuple(tuple(e for i, e in enumerate(edges) if pm >> i & 1) for pm in parts),
            tuple(itertools.islice(itertools.cycle(dec.certificates), len(parts))))
        assert not verify_decomposition(g, bad_dec)
        assert re.search(message, pmd_module._fault(g, bad_dec))
    assert verify_decomposition(g, dec)
    assert not verify_decomposition(g, PmdDecomposition(dec.parts, dec.certificates[:-1]))


def _reference_fault(g, dec):
    """``_fault`` from the definition, on tuple sets: the same checks in the
    same order with the same messages, each strict inequality tested edge
    by edge against the edges earlier parts leave."""
    if len(dec.parts) != len(dec.certificates):
        return (f"the decomposition has {len(dec.parts)} parts but "
                f"{len(dec.certificates)} certificates")
    remaining = set(g.edge_labels())
    for stage, (part, cert) in enumerate(zip(dec.parts, dec.certificates), 1):
        pset = set(part)
        if not pset or len(pset) < len(part) or not pset <= remaining:
            return f"stage {stage} is empty, repeats an edge or lies outside the graph"
        if len({v for e in pset for v in e}) < 2 * len(pset):
            return f"stage {stage} is not a matching"
        if cert is None:
            return f"stage part {part} is not a positive matching"
        w = dict(cert.weights)
        for i, j in remaining:
            total = w.get(i, 0) + w.get(j, 0)
            if (total <= 0) if (i, j) in pset else (total >= 0):
                return f"walk certificate for stage part {part} fails its check"
        remaining -= pset
    if remaining:
        return f"the parts leave {tuple(sorted(remaining))} uncovered"
    return None


def _mutate(parts, certs, rng):
    """One seeded mutation of a decomposition, given as lists of part lists
    and certificates; the lists are changed in place."""
    kind = rng.choice(["flip", "move", "reverse", "drop_part", "drop_cert",
                       "duplicate", "no_cert"])
    l = rng.randrange(len(parts))
    cert = certs[l] if l < len(certs) else None
    if kind == "flip" and cert is not None:
        w = list(cert.weights)
        k = rng.randrange(len(w))
        w[k] = (w[k][0], -w[k][1])
        certs[l] = WeightCertificate(tuple(w))
    elif kind == "move" and l + 1 < len(parts) and parts[l]:
        parts[l + 1].append(parts[l].pop(rng.randrange(len(parts[l]))))
    elif kind == "reverse" and parts[l]:
        k = rng.randrange(len(parts[l]))
        parts[l][k] = parts[l][k][::-1]
    elif kind == "drop_part" and certs:
        del parts[-1], certs[-1]
    elif kind == "drop_cert" and certs:
        del certs[-1]
    elif kind == "duplicate" and parts[l]:
        parts[rng.randrange(len(parts))].insert(0, rng.choice(parts[l]))
    elif kind == "no_cert" and cert is not None:
        certs[l] = None


def test_mask_check_agrees_with_reference_on_mutants(connected_n6):
    """Seeded mutations of solver decompositions: verify_decomposition and
    every message of _fault match the tuple-set reference."""
    rng = random.Random(2024)
    graphs = ([complete(n) for n in range(2, 7)] + [cycle(n) for n in range(3, 8)]
              + [complete_bipartite(2, 3)] + [g for g in connected_n6 if g.m])
    seen = set()
    for g in graphs:
        dec = pmd(g).decomposition
        assert pmd_module._fault(g, dec) is _reference_fault(g, dec) is None
        for _ in range(8):
            parts, certs = [list(p) for p in dec.parts], list(dec.certificates)
            for _ in range(rng.choice([1, 1, 2])):
                if parts:
                    _mutate(parts, certs, rng)
            mutant = PmdDecomposition(tuple(map(tuple, parts)), tuple(certs))
            expected = _reference_fault(g, mutant)
            assert pmd_module._fault(g, mutant) == expected, (g, mutant)
            assert verify_decomposition(g, mutant) == (expected is None)
            seen.add(expected and re.sub(r"\(.*\)|\d+", "", expected))
    assert len(seen) == 7, seen        # every message, and some mutants pass


def test_lp_certificate_recheck_raises(monkeypatch):
    monkeypatch.setattr(posmatch, "check_certificate", lambda host, part, cert: False)
    with pytest.raises(RuntimeError, match="does not certify"):
        is_positive_matching(EXAMPLE_EDGES, [(1, 2), (3, 4)])


def test_hilbert_checks_raise(monkeypatch):
    mi = groebner.MonomialIdeal(((1, 0),), 2)       # (y1): height 1
    assert groebner.monomial_multiplicity(mi, 2) == 1
    monkeypatch.setattr(groebner, "hilbert_numerator", lambda mi: [1, 1])
    with pytest.raises(ArithmeticError, match="not divisible"):
        groebner.monomial_multiplicity(mi, 2)
    monkeypatch.setattr(groebner, "hilbert_numerator", lambda mi: [1, -2, 1])
    with pytest.raises(ArithmeticError, match="must be positive"):
        groebner.monomial_multiplicity(mi, 2)


def test_solve_is_verified_under_optimize_flag():
    """The certificate checks are explicit raises, so they run under -O."""
    src = str(Path(lssrings.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "\n".join([
        "from lssrings import complete, parse_edge_list, pmd, verify_decomposition",
        "print('debug' if __debug__ else 'optimized')",
        "for g in (parse_edge_list('4\\n1 2\\n2 3\\n2 4\\n3 4'), complete(4)):",
        "    r = pmd(g)",
        "    print(r.value, r.status, verify_decomposition(g, r.decomposition))",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["optimized", "3", "exact", "True", "5", "exact", "True"]
