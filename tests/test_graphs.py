"""Graph representation, formats, families, and degree invariants."""

import random
import re

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from lssrings.graphs import (Graph, GraphFormatError, alpha, complete,
                             complete_bipartite, components, cycle, degeneracy,
                             delete_vertex, encode_graph6, example, family, gapped,
                             induced_subgraph, is_bipartite, is_cycle_graph,
                             is_forest, max_degree, parse_edge_list,
                             parse_graph6, path, relabel, star)
from conftest import reference_encode_graph6

EXAMPLE = "4\n1 2\n2 3\n2 4\n3 4"


def test_parse_graph6_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.m == 0


def test_parse_graph6_k2_derived_from_reference_encoder():
    # enumerate the two 2-vertex graphs with the reference encoder
    codes = {reference_encode_graph6(Graph(2, ())),
             reference_encode_graph6(Graph(2, ((0, 1),)))}
    assert codes == {"A?", "A_"}
    g = parse_graph6("A_")
    assert g.edge_labels() == ((1, 2),)
    assert parse_graph6("\tA_\r\n") == g


def test_parse_graph6_k4_derived_from_reference_encoder():
    assert reference_encode_graph6(complete(4)) == "C~"
    g = parse_graph6("C~")
    assert g.n == 4 and g.m == 6
    assert parse_graph6(" >>graph6<<C~ \n") == g


def test_parse_graph6_errors_name_offsets():
    for line, message in (("~??", "byte 0: multi-byte size field (n > 62) unsupported"),
                          ("C" + chr(30), "byte 1: out-of-range character '\\x1e'"),
                          # only ASCII whitespace is stripped: a control or
                          # non-ASCII character after K4 is a byte too many
                          ("C~" + chr(30), "byte 2: trailing garbage"),
                          ("C~\x85", "byte 2: trailing garbage"),
                          ("C~\xa0", "byte 2: trailing garbage"),
                          ("C~~", "byte 2: trailing garbage"),
                          ("C", "byte 1: truncated, need 2 bytes"),
                          ("", "empty graph6 line"),
                          ("!", "byte 0: out-of-range character '!'"),
                          ("?", "byte 0: vertex count must be at least 1"),
                          ("A!", "byte 1: out-of-range character '!'"),
                          ("A`", "byte 1: nonzero padding bits"),
                          ("@~", "byte 1: trailing garbage"),
                          ("B~", "byte 1: nonzero padding bits")):
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            parse_graph6(line)


def test_graph6_roundtrip_all_n4_and_samples(all_n5):
    # exhaustive on labeled graphs with n <= 4
    import itertools
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            code = encode_graph6(g)
            assert code == reference_encode_graph6(g)
            assert parse_graph6(code) == g
    for g in all_n5:
        assert parse_graph6(encode_graph6(g)) == g
    # seeded random graphs at every n the size byte allows, sparse to dense,
    # with K62 and the edgeless graph on 62 vertices at the top
    rng = random.Random(6)
    graphs = [complete(62), Graph(62, ())]
    for n in range(5, 63):
        for p in (0.1, 0.5, 0.9):
            graphs.append(Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                                         if rng.random() < p)))
    for g in graphs:
        code = encode_graph6(g)
        assert code == reference_encode_graph6(g)
        assert parse_graph6(code) == g
    assert encode_graph6(complete(62)) == "}" + "~" * 315 + "_"
    assert encode_graph6(Graph(62, ())) == "}" + "?" * 316
    for n in (0, 63):
        with pytest.raises(GraphFormatError, match="^graph6 output supports 1 <= n <= 62$"):
            encode_graph6(Graph(n, ()))


def test_encode_graph6_refuses_edges_out_of_order_or_range():
    """Graph(n, edges) checks nothing; the encoder must not write another
    graph for a reversed pair, nor fail on a shift for an outside vertex."""
    for g, message in ((Graph(3, ((1, 0),)), "graph6 output: edge (1, 0) is not 0 <= u < v < 3"),
                       (Graph(3, ((0, 5),)), "graph6 output: edge (0, 5) is not 0 <= u < v < 3")):
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            encode_graph6(g)


def test_parse_edge_list_example_graph():
    g = parse_edge_list(EXAMPLE)
    assert g.n == 4
    assert g.edge_labels() == ((1, 2), (2, 3), (2, 4), (3, 4))
    assert example() == g


def test_parse_edge_list_k2():
    g = parse_edge_list("2\n1 2")
    assert g.n == 2 and g.edge_labels() == ((1, 2),)


def test_parse_edge_list_rejects_self_loop_and_duplicates():
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_edge_list("3\n1 1")
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_edge_list("3\n1 2\n2 1")
    with pytest.raises(GraphFormatError, match="outside"):
        parse_edge_list("2\n1 3")


def test_from_edges_refuses_non_integer_labels():
    """A float endpoint used to reach the solver and fail there; a bool was
    read as the vertex it equals."""
    for n, pairs in ((3, [(1.0, 2), (2, 3)]), (3, [(True, 2)]), (3, [(1, "2")]),
                     (3, [(2, False)])):
        with pytest.raises(GraphFormatError, match="non-integer endpoint"):
            Graph.from_edges(n, pairs)
    for n in (3.0, True, "3", -1):
        with pytest.raises(GraphFormatError, match="vertex count must be"):
            Graph.from_edges(n, [])


def test_parse_edge_list_errors_name_the_physical_line():
    """Blank and comment lines count: the bad endpoint is on line 6."""
    with pytest.raises(GraphFormatError, match=r"^line 6: non-integer endpoint in '2 x'$"):
        parse_edge_list("# h\n\n3\n1 2\n# c\n2 x")
    with pytest.raises(GraphFormatError, match=r"^line 3: expected 'i j', got '1 2 3'$"):
        parse_edge_list("# h\n3\n1 2 3")
    with pytest.raises(GraphFormatError, match=r"^line 2: expected vertex count, got 'x'$"):
        parse_edge_list("\nx\n1 2")
    with pytest.raises(GraphFormatError, match=r"^empty edge-list input$"):
        parse_edge_list("# only a comment\n")


@pytest.mark.parametrize("text, message", [
    ("3\n1 2\x1c2 3\n", "line 2: expected 'i j', got '1 2\\x1c2 3'"),
    ("3\n\x85\n1 x\n", "line 2: expected 'i j', got '\\x85'"),
    ("3\r\n1 2\r\n\r\n1 x\r\n", "line 4: non-integer endpoint in '1 x'"),
    ("3\r1 2\r\r1 x\r", "line 4: non-integer endpoint in '1 x'"),
    ("3\n1\u20032\n", "line 2: expected 'i j', got '1\\u20032'"),
    ("3\n1 1_0\n", "line 2: non-integer endpoint in '1 1_0'"),
    ("3\n1 \u0662\n", "line 2: non-integer endpoint in '1 \u0662'"),
    ("1_0\n1 2\n", "line 1: expected vertex count, got '1_0'"),
    ("\u0663\n1 2\n", "line 1: expected vertex count, got '\u0663'"),
    ("\xa03\n1 2\n", "line 1: expected vertex count, got '\\xa03'"),
], ids=["x1c", "x85", "crlf", "cr", "em-space", "underscore", "arabic-digit",
        "underscore-count", "arabic-count", "nbsp"])
def test_parse_edge_list_reads_ascii_lines_and_numbers_only(text, message):
    """Lines end at \\n, \\r\\n and \\r only, only ASCII whitespace is
    stripped or separates fields, and a number is an optional sign and
    ASCII digits."""
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        parse_edge_list(text)


def test_parse_edge_list_keeps_ascii_blanks_and_signs():
    g = parse_edge_list(" 3 \r\n\t+1\x0b\x0c2\t\r\n# c\r2  3")
    assert g.n == 3 and g.edge_labels() == ((1, 2), (2, 3))
    with pytest.raises(GraphFormatError, match="outside"):
        parse_edge_list("3\n-1 2")


def test_degeneracy_known_values():
    assert degeneracy(complete(5))[0] == 4
    assert degeneracy(path(4))[0] == 1
    assert degeneracy(parse_edge_list(EXAMPLE))[0] == 2


def test_degeneracy_witness_replays():
    g = parse_edge_list(EXAMPLE)
    k, order = degeneracy(g)
    assert sorted(order) == [1, 2, 3, 4]
    assert all(type(v) is int for v in order)
    # replay: degree of each removed vertex in the residual graph never exceeds k
    alive = set(range(1, g.n + 1))
    peak = 0
    for v in order:
        deg = sum(1 for (a, b) in g.edge_labels()
                  if (a == v and b in alive) or (b == v and a in alive))
        peak = max(peak, deg)
        alive.remove(v)
    assert peak == k


@pytest.mark.parametrize("g, k, order", [
    (complete_bipartite(2, 3), 2, (3, 1, 4, 2, 5)),
    (gapped(4), 3, (5, 6, 1, 2, 3, 4)),
    (cycle(5), 2, (1, 2, 3, 4, 5)),
    (star(3), 1, (1, 2, 3, 4)),
    (parse_edge_list("6\n3 1\n1 4\n4 2\n2 6\n6 3\n5 2"), 2, (5, 1, 3, 4, 2, 6)),
    (parse_edge_list("7\n2 3\n3 4\n2 4\n6 7"), 2, (1, 5, 6, 7, 2, 3, 4)),
])
def test_degeneracy_order_breaks_ties_by_smallest_label(g, k, order):
    """`invariants` prints this order, so the tie rule is part of the output."""
    assert degeneracy(g) == (k, order)


def test_mask_invariants_agree_with_networkx():
    """Every atlas graph on 1..7 vertices, disconnected ones and isolated
    vertices included."""
    atlas = [gg for gg in graph_atlas_g() if gg.number_of_nodes()]
    assert len(atlas) == 1252
    for gg in atlas:
        n = gg.number_of_nodes()
        g = Graph.from_edges(n, [(u + 1, v + 1) for u, v in gg.edges()])
        comps = [sum(1 << v for v in c) for c in nx.connected_components(gg) if len(c) > 1]
        assert sorted(components(g.masks())) == sorted(comps), g
        assert is_bipartite(g) == nx.is_bipartite(gg), g
        assert is_forest(g) == nx.is_forest(gg), g
        assert is_cycle_graph(g) == (n >= 3 and nx.is_isomorphic(gg, nx.cycle_graph(n))), g
        assert degeneracy(g)[0] == max(nx.core_number(gg).values()), g


def test_max_degree_examples():
    assert max_degree(star(5)) == 5
    assert max_degree(complete(4)) == 3
    g = parse_edge_list(EXAMPLE)
    assert max_degree(g) == 3 and g.degree_of(2) == 3


def test_alpha_examples():
    assert alpha(parse_edge_list(EXAMPLE)) == 4
    # a tree with max degree 3: alpha = 3 (degeneracy 1)
    assert alpha(star(3)) == 3
    assert alpha(gapped(4)) == 7


def test_families_canonical_labels():
    s = star(4)
    assert s.n == 5 and s.m == 4
    assert s.degree_of(5) == 4            # center is the last vertex
    g = gapped(4)
    assert g.n == 6 and max_degree(g) == 5
    c = cycle(4)
    assert c.n == 4 and c.m == 4 and all(d == 2 for d in c.degrees())
    p = path(4)
    assert p.edge_labels() == ((1, 2), (2, 3), (3, 4))
    kb = family("complete_bipartite", 2, 3)
    assert kb.n == 5 and kb.m == 6 and is_bipartite(kb)
    with pytest.raises(GraphFormatError):
        family("petersen")


def test_family_refuses_non_integer_and_negative_parameters():
    """Every parameter is checked, as an int or as the string a spec
    gives, and the error names the family."""
    assert family("star", "3") == family("star", 3) == star(3)
    assert family("complete_bipartite", "2", " 3") == family("complete_bipartite", 2, 3)
    for kind, params in (("star", ("x",)), ("star", ("-1",)), ("star", (-1,)),
                         ("path", ("-3",)), ("star", ("3.5",)), ("star", (3.5,)),
                         ("complete_bipartite", ("-1", "3")),
                         ("complete_bipartite", (2, "")), ("complete", (None,))):
        with pytest.raises(GraphFormatError, match=f"family '{kind}': parameter "):
            family(kind, *params)


@pytest.mark.parametrize("param, shown", [
    ("\u0663", "'\u0663'"), ("\uff13", "'\uff13'"), ("\u20033", "'\\u20033'"),
    ("3\xa0", "'3\\xa0'"), ("\x1c3", "'\\x1c3'"), ("1_0", "'1_0'"), ("+3", "'+3'"),
], ids=["arabic-digit", "fullwidth-digit", "em-space", "nbsp", "x1c", "underscore", "sign"])
def test_family_parameters_are_ascii_digits_only(param, shown):
    """A parameter is ASCII digits with only ASCII blanks around them, as
    in edge lists; str.strip() and isdecimal() also took Unicode spaces
    and digits."""
    message = f"family 'star': parameter {shown} is not a nonnegative integer"
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        family("star", param)
    assert family("star", " \t3\n") == star(3)


def test_delete_vertex_and_induced():
    s = star(4)
    smaller = delete_vertex(s, 1)         # drop a leaf
    assert smaller.n == 4 and smaller.m == 3 and smaller.degree_of(4) == 3
    edgeless = delete_vertex(s, 5)        # drop the center
    assert edgeless.m == 0
    empty = induced_subgraph(s, [])
    assert empty.n == 0 and empty.m == 0


def test_vertex_arguments_must_be_int_labels_in_range():
    """degree_of, neighbors_of, delete_vertex and induced_subgraph take
    1-based int labels only: a bool, a float or an out-of-range label is a
    GraphFormatError, not a silent answer for some other vertex."""
    k3 = complete(3)
    for bad in (True, False, 2.0, 1.5, "2", 0, 4, -1):
        with pytest.raises(GraphFormatError, match="vertex"):
            k3.degree_of(bad)
        with pytest.raises(GraphFormatError, match="vertex"):
            k3.neighbors_of(bad)
        with pytest.raises(GraphFormatError, match="vertex"):
            delete_vertex(k3, bad)
        with pytest.raises(GraphFormatError, match="vertex"):
            induced_subgraph(k3, [bad, 2])
    assert k3.degree_of(2) == 2 and k3.neighbors_of(2) == (1, 3)
    assert delete_vertex(k3, 1) == complete(2)
    assert induced_subgraph(k3, [3, 2, 3]) == complete(2)


def test_degeneracy_at_most_max_degree_full_corpus(connected_n6, all_n5):
    for g in connected_n6 + all_n5:
        assert degeneracy(g)[0] <= max_degree(g)


def test_degeneracy_relabel_invariant(all_n5):
    rng = random.Random(42)
    for g in rng.sample(all_n5, 20):
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        h = relabel(g, {i + 1: perm[i] for i in range(g.n)})
        assert degeneracy(h)[0] == degeneracy(g)[0]


def test_delete_vertex_never_increases_degeneracy(all_n5):
    for g in all_n5:
        k = degeneracy(g)[0]
        for v in range(1, g.n + 1):
            if g.n > 1:
                assert degeneracy(delete_vertex(g, v))[0] <= k


def test_forest_and_bipartite_predicates():
    assert is_forest(path(5)) and is_forest(star(3))
    assert not is_forest(cycle(3))
    assert is_bipartite(cycle(4)) and not is_bipartite(cycle(5))


def test_cycle_graph_is_one_connected_cycle():
    assert all(is_cycle_graph(cycle(n)) for n in range(3, 9))
    two_k3 = parse_edge_list("6\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6")
    c3_c4 = parse_edge_list("7\n1 2\n2 3\n1 3\n4 5\n5 6\n6 7\n4 7")
    assert not is_cycle_graph(two_k3) and not is_cycle_graph(c3_c4)
    assert not is_cycle_graph(path(4)) and not is_cycle_graph(complete(4))
