"""Exact toolkit for positive matching decompositions of graphs and the
quotient-ring invariants they control: degree/degeneracy thresholds,
decompositions with integer certificates, a desk-scale Groebner engine, and a
corpus-scanning harness for the two open inequalities.
"""

from .graphs import (Graph, alpha, complete, complete_bipartite, cycle,
                     degeneracy, delete_vertex, encode_graph6, family, gapped,
                     induced_subgraph, is_bipartite, is_forest, max_degree,
                     parse_edge_list, parse_graph6, path, star)
from .pmd import (PmdDecomposition, PmdResult, greedy_upper_bound, pmd,
                  pmd_bruteforce, verify_decomposition)
from .posmatch import (LinearSystem, WeightCertificate, check_certificate,
                       is_positive_matching, lp_feasible, walk_certificate)

__version__ = "0.1.0"

__all__ = [
    "Graph", "alpha", "complete", "complete_bipartite",
    "cycle", "degeneracy", "delete_vertex", "encode_graph6", "family",
    "gapped", "induced_subgraph", "is_bipartite", "is_forest", "max_degree",
    "parse_edge_list", "parse_graph6", "path", "star",
    "PmdDecomposition", "PmdResult", "greedy_upper_bound", "pmd",
    "pmd_bruteforce", "verify_decomposition",
    "LinearSystem", "WeightCertificate", "check_certificate",
    "is_positive_matching", "lp_feasible", "walk_certificate",
]
