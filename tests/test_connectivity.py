"""Cuts, girth, and pattern detectors against brute-force oracles."""

import pytest

from cubicscan.connectivity import (
    bridges,
    edge_connectivity,
    edge_cuts,
    enumerate_3_edge_cuts,
    find_adjacent_triangles,
    find_cycle_of_length,
    find_square_triangle_pair,
    find_two_cycle,
    girth,
    has_only_trivial_3_edge_cuts,
    is_connected,
)
from cubicscan.errors import DisconnectedError
from cubicscan.graphs import CubicGraph
from cubicscan.enumeration import generate_cubic_graphs
from oracles import (
    brute_3_cut_edge_sets,
    brute_edge_cuts_by_bipartition,
    brute_bridges,
    brute_edge_connectivity,
    brute_triangle_patterns,
    cycle_of_length_by_loops,
    removal_disconnects,
)


def test_connectivity_basics(petersen_graph, triple_edge, k4, two_k4s_disconnected_edges):
    assert is_connected(petersen_graph)
    assert is_connected(triple_edge)
    assert is_connected(k4)
    assert not is_connected(CubicGraph(n=8, edges=tuple(two_k4s_disconnected_edges)))


def test_bridges_match_brute_force(petersen_graph, k4, bridged8, bridged10, prism):
    for g in (petersen_graph, k4, bridged8, bridged10, prism):
        assert bridges(g) == brute_bridges(g)


def test_bridged_fixtures_have_exactly_the_bridge(bridged8, bridged10):
    assert bridges(bridged8) == [4]  # edge (0, 3)
    assert bridged8.edges[4] == (0, 3)
    assert bridges(bridged10) == [14]  # edge (0, 5)
    assert bridged10.edges[14] == (0, 5)


def test_edge_connectivity_values(petersen_graph, k4, k33, prism, bridged8, triple_edge):
    assert edge_connectivity(petersen_graph) == 3
    assert edge_connectivity(k4) == 3
    assert edge_connectivity(k33) == 3
    assert edge_connectivity(prism) == 3
    assert edge_connectivity(bridged8) == 1
    assert edge_connectivity(triple_edge) == 3


def test_edge_connectivity_matches_brute_force_on_generated_graphs():
    for n in (4, 6, 8):
        for g in generate_cubic_graphs(n, allow_multi=True):
            assert edge_connectivity(g) == brute_edge_connectivity(g)
    for g in generate_cubic_graphs(10):
        assert edge_connectivity(g) == brute_edge_connectivity(g)


def test_edge_connectivity_requires_connected_input(two_k4s_disconnected_edges):
    g = CubicGraph(n=8, edges=tuple(two_k4s_disconnected_edges))
    with pytest.raises(DisconnectedError):
        edge_connectivity(g)


def test_bridgeless_iff_edge_connectivity_at_least_two():
    for n in (4, 6, 8):
        for g in generate_cubic_graphs(n, allow_multi=True):
            assert (not bridges(g)) == (edge_connectivity(g) >= 2)


def test_girth_values(petersen_graph, triple_edge, k4, k33, prism, heawood):
    assert girth(petersen_graph) == 5
    assert girth(triple_edge) == 2
    assert girth(k4) == 3
    assert girth(k33) == 4
    assert girth(prism) == 3
    assert girth(heawood) == 6


def test_girth_matches_networkx_on_simple_graphs():
    import networkx as nx

    for n in (4, 6, 8, 10):
        for g in generate_cubic_graphs(n):
            assert girth(g) == nx.girth(nx.Graph(list(g.edges)))


def test_girth_consistent_with_detectors():
    for n in (4, 6, 8):
        for g in generate_cubic_graphs(n, allow_multi=True):
            value = girth(g)
            assert (value == 2) == (find_two_cycle(g) is not None)
            assert (value <= 3) == (
                find_two_cycle(g) is not None or find_cycle_of_length(g, 3) is not None
            )
            if value >= 5:
                assert find_cycle_of_length(g, 3) is None
                assert find_cycle_of_length(g, 4) is None


def test_find_two_cycle(triple_edge, petersen_graph, k4):
    assert find_two_cycle(triple_edge) == (0, 1)
    assert find_two_cycle(petersen_graph) is None
    assert find_two_cycle(k4) is None


def test_find_adjacent_triangles(k4, petersen_graph, prism):
    witness = find_adjacent_triangles(k4)
    assert witness is not None
    u, u_prime, (v, w) = witness
    assert witness == (2, 3, (0, 1))
    assert find_adjacent_triangles(petersen_graph) is None
    assert find_adjacent_triangles(prism) is None


def test_pattern_detectors_match_brute_force():
    for n in (4, 6, 8):
        for g in generate_cubic_graphs(n, allow_multi=True):
            patterns = brute_triangle_patterns(g)
            assert (find_cycle_of_length(g, 3) is not None) == patterns["triangle"]
            assert (find_cycle_of_length(g, 4) is not None) == patterns["square"]
            assert (find_adjacent_triangles(g) is not None) == patterns["adjacent_triangles"]
            assert (find_square_triangle_pair(g) is not None) == patterns[
                "square_triangle_pair"
            ]


def test_square_triangle_pair_detector_fires_somewhere_at_n8():
    hits = [
        g
        for g in generate_cubic_graphs(8)
        if find_square_triangle_pair(g) is not None
    ]
    assert hits, "some 8-vertex cubic graph contains the square-triangle pattern"
    square, triangle, shared = find_square_triangle_pair(hits[0])
    assert len(set(square) | set(triangle)) == 5
    assert set(shared) == set(square) & set(triangle)


def test_square_triangle_pair_absent(petersen_graph, k33):
    assert find_square_triangle_pair(petersen_graph) is None
    assert find_square_triangle_pair(k33) is None


def test_find_cycle_of_length_examples(k4, k33, petersen_graph):
    assert find_cycle_of_length(k4, 3) == (0, 1, 2)
    assert find_cycle_of_length(k33, 4) == (0, 3, 1, 4)
    assert find_cycle_of_length(petersen_graph, 4) is None
    with pytest.raises(ValueError):
        find_cycle_of_length(k4, 5)


def test_find_cycle_of_length_equals_the_loop_nests(
    small_graphs, random_multigraphs, random_simple_graphs, prisms
):
    for g in (*small_graphs, *random_multigraphs, *random_simple_graphs, *prisms.values()):
        for k in (3, 4):
            assert find_cycle_of_length(g, k) == cycle_of_length_by_loops(g, k), k


def test_3_edge_cuts_match_brute_force(petersen_graph, k4, prism, bridged8):
    for g in (petersen_graph, k4, prism, bridged8):
        ours = {cut.edges for cut in enumerate_3_edge_cuts(g)}
        assert ours == brute_3_cut_edge_sets(g)


def test_3_edge_cut_counts(petersen_graph, k4):
    assert len(enumerate_3_edge_cuts(petersen_graph)) == 10
    assert all(c.is_vertex_star for c in enumerate_3_edge_cuts(petersen_graph))
    assert len(enumerate_3_edge_cuts(k4)) == 4


def test_every_cut_disconnects(petersen_graph, prism, bridged8, small_graphs):
    for g in (petersen_graph, prism, bridged8, *small_graphs):
        for cut in enumerate_3_edge_cuts(g):
            assert removal_disconnects(g, set(cut.edges))
            assert sorted(cut.side_u + cut.side_ubar) == list(range(g.n))


def test_edge_cuts_match_the_bipartition_scan_in_order(small_graphs, random_multigraphs):
    # k = 1 and 2 give C6's witness below 3-edge-connectivity, k = 3 gives C7;
    # the random multigraphs have parallel edges both in and out of the tree
    multigraphs = [g for g in random_multigraphs if g.n <= 14 and is_connected(g)]
    for g in small_graphs + multigraphs:
        for k in (1, 2, 3):
            ours = [
                (sorted(cut.edges), cut.side_u, cut.side_ubar) for cut in edge_cuts(g, k)
            ]
            assert ours == brute_edge_cuts_by_bipartition(g, k), k


def test_single_edge_cuts_are_the_bridges(small_graphs):
    for g in small_graphs:
        assert [sorted(cut.edges) for cut in edge_cuts(g, 1)] == [[b] for b in bridges(g)]


def test_3_edge_cuts_of_the_15_prism_are_the_30_vertex_stars(prism15):
    # a bipartition scan would visit 2^29 masks here
    cuts = enumerate_3_edge_cuts(prism15)
    assert len(cuts) == 30
    assert all(cut.is_vertex_star for cut in cuts)


def test_3_edge_cuts_of_the_100_vertex_prism_are_the_vertex_stars(prism50):
    # a component search per edge triple would visit 551,300 subsets here
    cuts = enumerate_3_edge_cuts(prism50)
    assert len(cuts) == 100
    assert all(cut.is_vertex_star for cut in cuts)
    assert edge_connectivity(prism50) == 3
    assert bridges(prism50) == []


def test_bridges_of_a_disconnected_graph(bridged8, k4):
    g = CubicGraph(
        n=12, edges=bridged8.edges + tuple((u + 8, v + 8) for u, v in k4.edges)
    )
    assert not is_connected(g)
    assert bridges(g) == bridges(bridged8) == [4]


def test_edge_cuts_require_connected_input(two_k4s_disconnected_edges):
    g = CubicGraph(n=8, edges=tuple(two_k4s_disconnected_edges))
    with pytest.raises(DisconnectedError):
        next(edge_cuts(g, 1))


def test_edge_cuts_reject_k_below_one(k4):
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"k={k}"):
            edge_cuts(k4, k)


def test_trivial_cut_predicate(petersen_graph, k4, prism):
    assert has_only_trivial_3_edge_cuts(petersen_graph)
    assert has_only_trivial_3_edge_cuts(k4)
    assert not has_only_trivial_3_edge_cuts(prism)
