"""graph6/sparse6/edge-list codecs, cross-checked against networkx."""

import time

import networkx as nx
import pytest

from cubicscan.enumeration import generate_cubic_graphs
from cubicscan import CubicGraphError
from cubicscan.formats import (
    emit_edgelist,
    emit_sparse6,
    iter_graph_lines,
    parse_auto,
    parse_edgelist,
    parse_graph6,
    parse_sparse6,
)
from cubicscan.graphs import is_isomorphic


def _corpus(triple_edge, k4, k33, prism, petersen_graph):
    return {
        "triple_edge": triple_edge,
        "k4": k4,
        "k33": k33,
        "prism": prism,
        "petersen": petersen_graph,
    }


def test_sparse6_round_trip_is_isomorphic(petersen_graph):
    again = parse_sparse6(emit_sparse6(petersen_graph))
    assert is_isomorphic(again, petersen_graph)


def test_sparse6_round_trip_byte_exact(triple_edge, k4, k33, prism, petersen_graph):
    for name, g in _corpus(triple_edge, k4, k33, prism, petersen_graph).items():
        once = emit_sparse6(parse_sparse6(emit_sparse6(g)))
        twice = emit_sparse6(parse_sparse6(once))
        assert once == twice == emit_sparse6(g), name


def test_sparse6_matches_networkx_encoder(triple_edge, k4, k33, prism, petersen_graph):
    for name, g in _corpus(triple_edge, k4, k33, prism, petersen_graph).items():
        reference = nx.to_sparse6_bytes(nx.MultiGraph(list(g.edges)), header=False).strip()
        assert emit_sparse6(g) == reference, name


def test_sparse6_power_of_two_padding_cases():
    # n = 8 and n = 16 are powers of two; the format's extra 0 before the
    # padding is due only while the last edge group ends below n - 1, which
    # never holds for a cubic graph, so the bytes must still equal networkx's
    from cubicscan.graphs import from_edge_list

    cube = nx.convert_node_labels_to_integers(nx.hypercube_graph(3))
    moebius_kantor = nx.moebius_kantor_graph()
    for nxg in (cube, moebius_kantor):
        g = from_edge_list(nxg.number_of_nodes(), list(nxg.edges()))
        encoded = emit_sparse6(g)
        assert encoded == nx.to_sparse6_bytes(nx.MultiGraph(list(g.edges)), header=False).strip()
        assert sorted(parse_sparse6(encoded).edges) == sorted(g.edges)


def test_sparse6_hand_encoded_triple_edge(triple_edge):
    # n=2 -> 'A'; edges (1,0)x3 -> bit groups 1 0, 0 0, 0 0 -> '_'
    assert emit_sparse6(triple_edge) == b":A_"
    parsed = parse_sparse6(b":A_")
    assert parsed.n == 2
    assert parsed.edges == ((0, 1), (0, 1), (0, 1))
    reference = nx.from_sparse6_bytes(b":A_")
    assert reference.number_of_edges() == 3


def test_sparse6_header_accepted(petersen_graph):
    data = b">>sparse6<<" + emit_sparse6(petersen_graph)
    assert is_isomorphic(parse_sparse6(data), petersen_graph)


def test_sparse6_rejects_missing_colon():
    with pytest.raises(CubicGraphError, match="^sparse6 line must start with ':'$"):
        parse_sparse6(b"A_")


def test_sparse6_rejects_non_cubic():
    four_cycle = nx.cycle_graph(4)
    data = nx.to_sparse6_bytes(nx.MultiGraph(four_cycle), header=False)
    with pytest.raises(CubicGraphError, match="^a cubic graph on 4 vertices has 6 edges, got 4$"):
        parse_sparse6(data)


def test_sparse6_rejects_loops():
    loopy = nx.MultiGraph()
    loopy.add_edges_from([(0, 0), (0, 1), (1, 1)])
    data = nx.to_sparse6_bytes(loopy, header=False)
    with pytest.raises(CubicGraphError, match="^sparse6 input encodes a loop at vertex 0$"):
        parse_sparse6(data)


def test_size_bytes_below_63_are_rejected():
    # '0' is byte 48; read as a size it would give n = -15
    with pytest.raises(CubicGraphError, match="size byte 48"):
        parse_graph6(b"0")
    with pytest.raises(CubicGraphError, match="size byte 48"):
        parse_sparse6(b":0")


def test_truncated_extended_size_field_is_named():
    # '~' announces three more size bytes; fewer is not a vertex count above 258047
    for size in (b"~", b"~?", b"~??"):
        with pytest.raises(CubicGraphError, match="extended size field is truncated"):
            parse_graph6(size)
        with pytest.raises(CubicGraphError, match="extended size field is truncated"):
            parse_sparse6(b":" + size)
    with pytest.raises(CubicGraphError, match="above 258047"):
        parse_graph6(b"~~??????")


def test_sparse6_emission_rejects_a_vertex_count_above_258047(prism258048):
    # the size field is checked first, so no body is built for a graph it refuses
    start = time.perf_counter()
    with pytest.raises(CubicGraphError) as info:
        emit_sparse6(prism258048)
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == "cannot encode n=258048"


def test_graph6_k4():
    g = parse_graph6(b"C~")
    assert g.n == 4 and len(g.edges) == 6


def test_graph6_matches_networkx_on_petersen(petersen_graph):
    data = nx.to_graph6_bytes(nx.petersen_graph(), header=False)
    assert is_isomorphic(parse_graph6(data), petersen_graph)


def test_graph6_rejects_non_cubic():
    data = nx.to_graph6_bytes(nx.cycle_graph(6), header=False)
    with pytest.raises(CubicGraphError, match="^a cubic graph on 6 vertices has 9 edges, got 6$"):
        parse_graph6(data)


def test_edgelist_round_trip(petersen_graph):
    text = emit_edgelist(petersen_graph)
    assert text.splitlines()[0] == "10 15"
    assert parse_edgelist(text).edges == petersen_graph.edges


def test_edgelist_rejects_bad_header():
    with pytest.raises(CubicGraphError, match="^edge-list header must be 'n m', got 'banana'$"):
        parse_edgelist("banana\n0 1\n")


def test_edgelist_rejects_wrong_edge_count():
    with pytest.raises(CubicGraphError, match="^edge-list declares 3 edges but has 2 lines$"):
        parse_edgelist("2 3\n0 1\n0 1\n")


def test_auto_detects_all_three_formats(petersen_graph, k4):
    assert is_isomorphic(parse_auto(emit_sparse6(petersen_graph)), petersen_graph)
    assert is_isomorphic(parse_auto(emit_edgelist(k4)), k4)
    assert is_isomorphic(parse_auto(b"C~"), k4)
    assert is_isomorphic(parse_auto(b">>graph6<<C~"), k4)


def test_sparse6_stops_at_a_trailing_group_past_the_last_vertex(k4):
    assert sorted(parse_sparse6(emit_sparse6(k4) + b"~").edges) == sorted(k4.edges)


def test_iter_graph_lines_skips_blanks(k4, prism):
    lines = [emit_sparse6(k4), b"", emit_sparse6(prism)]
    parsed = list(iter_graph_lines(lines, "sparse6"))
    assert len(parsed) == 2
    assert is_isomorphic(parsed[0], k4)
    assert is_isomorphic(parsed[1], prism)


def test_corpus_auto_reads_no_line_as_an_edge_list(k4, petersen_graph):
    # an edge list spans lines, and its header "4 6" holds whitespace, which
    # no graph6 or sparse6 line does
    message = "^a corpus takes one graph6 or sparse6 line per graph, got '4 6'$"
    with pytest.raises(CubicGraphError, match=message):
        list(iter_graph_lines(emit_edgelist(k4).splitlines()))
    with pytest.raises(CubicGraphError, match="^a corpus takes .*, got ':Cc C~'$"):
        list(iter_graph_lines([b":Cc C~"]))
    lines = [emit_sparse6(petersen_graph), b">>graph6<<C~", b"C~"]
    assert [g.n for g in iter_graph_lines(lines)] == [10, 4, 4]


def test_iter_graph_lines_names_the_supported_formats(k4):
    for fmt in ("edgelist", "dot"):
        with pytest.raises(CubicGraphError, match=f"'{fmt}': use one of auto, graph6, sparse6"):
            list(iter_graph_lines([emit_sparse6(k4)], fmt))


def test_codec_matches_networkx_on_every_generated_graph(prism32, prism50):
    # the prisms have n = 64 and n = 100: the extended size field and widths 6 and 7
    simple = [g for n in range(4, 13, 2) for g in generate_cubic_graphs(n)]
    multi = [g for n in range(2, 11, 2) for g in generate_cubic_graphs(n, allow_multi=True)]
    for g in simple + multi + [prism32, prism50]:
        nxg = nx.MultiGraph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        reference = nx.to_sparse6_bytes(nxg, header=False).strip()
        assert emit_sparse6(g) == reference, g.edges
        assert sorted(parse_sparse6(reference).edges) == sorted(g.edges)
        if not g.has_parallel_edges:
            g6 = nx.to_graph6_bytes(nx.Graph(nxg), header=False).strip()
            assert sorted(parse_graph6(g6).edges) == sorted(g.edges)


@pytest.mark.parametrize(
    "parser, data, kind, message",
    [
        (parse_graph6, b"", "FormatError", "empty graph encoding"),
        (parse_sparse6, b":", "FormatError", "empty graph encoding"),
        (parse_graph6, b">>graph6<<", "FormatError", "empty graph encoding"),
        (parse_graph6, b"0", "FormatError", "size byte 48 is outside 63..126"),
        (parse_sparse6, b":\x7f", "FormatError", "size byte 127 is outside 63..126"),
        (parse_graph6, b"~~??????", "FormatError", "vertex counts above 258047 are not supported"),
        (parse_sparse6, b":~~", "FormatError", "vertex counts above 258047 are not supported"),
        (
            parse_graph6,
            b"~?",
            "FormatError",
            "extended size field is truncated: '~' must be followed by 3 size bytes",
        ),
        (
            parse_sparse6,
            b":~??",
            "FormatError",
            "extended size field is truncated: '~' must be followed by 3 size bytes",
        ),
        (parse_graph6, b"~?0?", "FormatError", "malformed extended size field"),
        (parse_sparse6, b":~??\x7f", "FormatError", "malformed extended size field"),
        (parse_sparse6, b"A_", "FormatError", "sparse6 line must start with ':'"),
        (parse_sparse6, b">>sparse6<<A_", "FormatError", "sparse6 line must start with ':'"),
        (parse_sparse6, b":?", "FormatError", "sparse6 encodes an empty vertex set"),
        (parse_sparse6, b":A0", "FormatError", "sparse6 body contains bytes outside 63..126"),
        (parse_sparse6, b":A_\x7f", "FormatError", "sparse6 body contains bytes outside 63..126"),
        (parse_sparse6, b":A?", "LoopError", "sparse6 input encodes a loop at vertex 0"),
        (parse_sparse6, b":A~", "LoopError", "sparse6 input encodes a loop at vertex 1"),
        (parse_graph6, b":A_", "FormatError", "input is sparse6, not graph6"),
        (parse_graph6, b"C0", "FormatError", "graph6 body contains bytes outside 63..126"),
        (parse_graph6, b"C~~", "FormatError", "graph6 body has 2 bytes, expected 1 for n=4"),
        (parse_graph6, b"C", "FormatError", "graph6 body has 0 bytes, expected 1 for n=4"),
        # a byte out of range and the wrong length: the range check fires first
        (parse_graph6, b"C~0", "FormatError", "graph6 body contains bytes outside 63..126"),
        (parse_edgelist, b"", "FormatError", "empty edge-list input"),
        (parse_edgelist, b"4 6 1", "FormatError", "edge-list header must be 'n m', got '4 6 1'"),
        (parse_edgelist, b"1 1\n0", "FormatError", "edge line must be 'u v', got '0'"),
        (parse_edgelist, b"1 1\n0 x", "FormatError", "edge line must be 'u v', got '0 x'"),
        # a first line with more than one field is an edge-list header
        (parse_auto, b"3 x", "FormatError", "edge-list header must be 'n m', got '3 x'"),
        (parse_auto, b"4 6 7", "FormatError", "edge-list header must be 'n m', got '4 6 7'"),
    ],
)
def test_malformed_encodings_get_their_messages(parser, data, kind, message):
    # ``kind`` only labels the case in its test id, which stays stable:
    # a malformed encoding or an encoded loop
    with pytest.raises(CubicGraphError) as info:
        parser(data)
    assert str(info.value) == message
