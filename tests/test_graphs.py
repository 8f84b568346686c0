"""Construction invariants, canonical forms, and isomorphism."""

import random
from itertools import combinations

import pytest

import cubicscan.graphs
from cubicscan.enumeration import generate_cubic_graphs
from cubicscan import CubicGraphError
from cubicscan.graphs import (
    CubicGraph,
    canonical_form,
    from_edge_list,
    is_canonical_labeling,
    is_isomorphic,
    petersen,
    relabeled,
)
from oracles import (
    brute_isomorphic,
    dfs_is_canonical_labeling,
    isomorphism_classes,
    labeled_cubic_edge_lists,
    lexmin_blocks_per_permutation,
)

ALL_K4_PAIRS = list(combinations(range(4), 2))


def search_labeling(g):
    """The relabeling that reaches g's certificate: labeling[v] is v's place
    in the last order the canonical search yields."""
    *_, (_, order) = cubicscan.graphs._lexmin_blocks(g.n, g.neighbor_lists)
    labeling = [0] * g.n
    for new, old in enumerate(order):
        labeling[old] = new
    return labeling


def certificate_text(n, edges):
    """The certificate of a sorted edge list on n vertices."""
    return f"{n}|{','.join(f'{u}-{v}' for u, v in edges)}"


def test_triple_edge_is_a_valid_multigraph(triple_edge):
    assert triple_edge.n == 2
    assert triple_edge.edges == ((0, 1), (0, 1), (0, 1))
    assert triple_edge.has_parallel_edges


def test_k4_is_a_valid_cubic_graph(k4):
    assert len(k4.edges) == 6
    assert not k4.has_parallel_edges
    assert all(len(row) == 3 for row in k4.adjacency)


def test_degree_sum_equals_twice_edge_count(k4, k33, prism, petersen_graph, bridged8):
    for g in (k4, k33, prism, petersen_graph, bridged8):
        assert sum(len(row) for row in g.adjacency) == 2 * len(g.edges) == 3 * g.n


def test_missing_edge_is_a_degree_violation():
    with pytest.raises(CubicGraphError, match="^a cubic graph on 4 vertices has 6 edges, got 5$"):
        from_edge_list(4, ALL_K4_PAIRS[:-1])


def test_constructor_names_the_vertices_without_degree_3():
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 2))
    with pytest.raises(CubicGraphError) as info:
        CubicGraph(n=4, edges=edges)
    assert str(info.value) == "vertices [1, 3] do not have degree 3"


def test_relabeled_rejects_a_mapping_that_is_not_a_permutation(k4):
    with pytest.raises(ValueError) as info:
        relabeled(k4, [0, 0, 1, 2])
    assert str(info.value) == "mapping is not a permutation of the vertex set"


def test_loop_rejected():
    with pytest.raises(CubicGraphError, match="^loop at vertex 3$"):
        from_edge_list(4, ALL_K4_PAIRS[:-1] + [(3, 3)])


def test_odd_vertex_count_rejected():
    with pytest.raises(CubicGraphError) as info:
        from_edge_list(3, [(0, 1), (0, 2), (1, 2), (0, 1)])
    assert str(info.value) == "cubic graphs need an even vertex count >= 2, got n=3"


def test_endpoint_out_of_range_rejected():
    with pytest.raises(CubicGraphError) as info:
        from_edge_list(4, ALL_K4_PAIRS[:-1] + [(2, 4)])
    assert str(info.value) == "edge (2, 4) has an endpoint outside [0, 4)"


def test_edge_stored_larger_endpoint_first_rejected():
    with pytest.raises(CubicGraphError) as info:
        CubicGraph(n=4, edges=((0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3)))
    assert str(info.value) == "edge (1, 0) is not ordered u < v; use from_edge_list"


def test_petersen_has_ten_vertices_fifteen_edges(petersen_graph):
    assert petersen_graph.n == 10
    assert len(petersen_graph.edges) == 15


def test_petersen_stores_the_form_the_search_finds():
    # petersen() stores its canonical form; an unstored copy runs the search
    assert canonical_form(petersen()) == canonical_form(from_edge_list(10, petersen().edges))


def test_canonical_form_is_the_certificate_text(petersen_graph, triple_edge):
    # the form is the text the reports print, nothing to encode or decode
    assert canonical_form(petersen_graph) == (
        "10|0-1,0-2,0-3,1-4,1-5,2-6,2-7,3-8,3-9,4-6,4-8,5-7,5-9,6-9,7-8"
    )
    assert type(canonical_form(triple_edge)) is str
    assert canonical_form(triple_edge) == "2|0-1,0-1,0-1"


def test_certificate_invariant_under_100_random_relabelings(petersen_graph, prism, bridged8):
    rng = random.Random(20240517)
    for g in (petersen_graph, prism, bridged8):
        base = canonical_form(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabeled(g, perm)) == base


def test_certificates_include_vertex_count(triple_edge, k4):
    assert canonical_form(triple_edge) != canonical_form(k4)


def test_k33_and_prism_have_distinct_certificates(k33, prism):
    assert canonical_form(k33) != canonical_form(prism)
    assert not brute_isomorphic(k33, prism)


def test_isomorphic_relabelings_detected(petersen_graph):
    rng = random.Random(7)
    perm = list(range(10))
    rng.shuffle(perm)
    assert is_isomorphic(petersen_graph, relabeled(petersen_graph, perm))


def test_isomorphism_is_an_equivalence_relation(k4, k33, prism, petersen_graph, triple_edge):
    rng = random.Random(11)
    graphs = [k4, k33, prism, petersen_graph, triple_edge]
    for g in list(graphs):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(relabeled(g, perm))
    for g in graphs:
        assert is_isomorphic(g, g)
    for g in graphs:
        for h in graphs:
            assert is_isomorphic(g, h) == is_isomorphic(h, g)
    for g in graphs:
        for h in graphs:
            for k in graphs:
                if is_isomorphic(g, h) and is_isomorphic(h, k):
                    assert is_isomorphic(g, k)


def test_isomorphism_agrees_with_permutation_brute_force_up_to_n8():
    rng = random.Random(99)
    for n in (4, 6, 8):
        reps = [from_edge_list(n, edges) for edges in sorted(isomorphism_classes(n, False))]
        for g in reps:
            for h in reps:
                assert is_isomorphic(g, h) == brute_isomorphic(g, h)
        for g in reps:
            perm = list(range(n))
            rng.shuffle(perm)
            assert is_isomorphic(g, relabeled(g, perm))


def test_multigraph_isomorphism_tracks_parallel_edges():
    # the doubled edges sit on the other opposite pair of the 4-ring
    a = from_edge_list(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)])
    b = from_edge_list(4, [(0, 2), (0, 2), (1, 3), (1, 3), (0, 1), (2, 3)])
    k4 = from_edge_list(4, ALL_K4_PAIRS)
    assert is_isomorphic(a, b)
    assert brute_isomorphic(a, b)
    assert not is_isomorphic(a, k4)


def test_canonical_representative_is_its_own_canonical_form():
    for n in (4, 6):
        for edges in isomorphism_classes(n, True):
            g = from_edge_list(n, edges)
            assert is_canonical_labeling(g)


def test_canonical_labeling_produces_the_certificate_edge_list(petersen_graph):
    g = from_edge_list(10, petersen_graph.edges)  # no stored form: the search runs
    relabel = relabeled(g, search_labeling(g))
    assert is_canonical_labeling(relabel)
    assert canonical_form(g) == certificate_text(10, sorted(relabel.edges))
    assert canonical_form(relabel) == canonical_form(g)


def test_canonical_form_is_the_global_permutation_minimum():
    # the block-wise search must reach the minimum over all n! relabelings
    from itertools import permutations as all_perms

    for n in (4, 6):
        for edges in isomorphism_classes(n, True):
            g = from_edge_list(n, edges)
            canonical_edges = sorted(relabeled(g, search_labeling(g)).edges)
            assert canonical_form(g) == certificate_text(n, canonical_edges)
            global_min = min(
                sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges)
                for p in all_perms(range(n))
            )
            assert canonical_edges == global_min


def test_is_canonical_labeling_agrees_with_canonical_form():
    import random

    rng = random.Random(2718)
    for n in (4, 6, 8):
        for edges in sorted(isomorphism_classes(n, False)):
            g = from_edge_list(n, edges)
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                h = relabeled(g, perm)
                canonical_edges = sorted(relabeled(h, search_labeling(h)).edges)
                assert canonical_form(h) == certificate_text(n, canonical_edges)
                expected = canonical_edges == sorted(h.edges)
                assert is_canonical_labeling(h) == dfs_is_canonical_labeling(h) == expected


def test_disconnected_graphs_canonicalize(two_k4s_disconnected_edges, k4):
    import random
    from cubicscan.graphs import CubicGraph

    double_k4 = CubicGraph(n=8, edges=tuple(two_k4s_disconnected_edges))
    rng = random.Random(13)
    perm = list(range(8))
    rng.shuffle(perm)
    assert is_isomorphic(double_k4, relabeled(double_k4, perm))
    cube_edges = [
        (0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 7), (6, 7),
        (0, 4), (1, 5), (2, 6), (3, 7),
    ]
    cube = from_edge_list(8, cube_edges)
    assert not is_isomorphic(double_k4, cube)
    assert not is_isomorphic(double_k4, k4)
    double_petersen = from_edge_list(
        20, petersen().edges + tuple((u + 10, v + 10) for u, v in petersen().edges)
    )
    perm = list(range(20))
    rng.shuffle(perm)
    assert is_isomorphic(double_petersen, relabeled(double_petersen, perm))
    relabel = relabeled(double_petersen, search_labeling(double_petersen))
    assert is_canonical_labeling(relabel)
    assert canonical_form(double_petersen) == certificate_text(20, sorted(relabel.edges))


def test_is_canonical_labeling_equals_the_dfs_oracle_on_every_labeled_graph():
    # nearly every labeled graph is rejected, most at an early block
    for n, allow_multi in ((4, False), (6, False), (8, False), (2, True), (4, True), (6, True)):
        for edges in labeled_cubic_edge_lists(n, allow_multi):
            g = CubicGraph(n=n, edges=edges)
            assert is_canonical_labeling(g) == dfs_is_canonical_labeling(g)


def test_canonical_form_equals_the_per_permutation_search(prisms, prism50):
    # the cell records must reach the blocks of one relabeling per
    # permutation; the labeling may differ inside the final cells
    rng = random.Random(1981)
    classes = [g for n in range(4, 13, 2) for g in generate_cubic_graphs(n)]
    classes += [g for n in range(2, 11, 2) for g in generate_cubic_graphs(n, allow_multi=True)]
    unions = []
    for i in range(20):
        k = 2 + i % 2
        parts = rng.choices(classes, k=k) if i % 4 < 2 else [rng.choice(classes)] * k
        offsets = [sum(p.n for p in parts[:j]) for j in range(k)]
        unions.append(
            from_edge_list(
                sum(p.n for p in parts),
                [(u + off, v + off) for p, off in zip(parts, offsets) for u, v in p.edges],
            )
        )
    for g in classes + unions + list(prisms.values()) + [prism50]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabeled(g, perm)
        blocks, _ = lexmin_blocks_per_permutation(h.n, h.neighbor_lists)
        edges = [(t, w) for t, blk in enumerate(blocks) for w in blk]
        assert canonical_form(h) == certificate_text(h.n, edges)
        assert sorted(relabeled(h, search_labeling(h)).edges) == edges


def test_only_the_first_tie_opens_the_next_component(monkeypatch, k4):
    # every tie closes a component with the same blocks, so carrying all of
    # them would multiply the records by |Aut(K4)| = 24 per closed K4;
    # with the first tie alone the work grows with the square of the count
    real = cubicscan.graphs._min_block
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cubicscan.graphs, "_min_block", counted)
    work = []
    for copies in (1, 3):
        union = from_edge_list(
            4 * copies, [(u + 4 * i, v + 4 * i) for i in range(copies) for u, v in k4.edges]
        )
        calls.clear()
        canonical_form(union)
        work.append(len(calls))
    assert work[1] <= 3**2 * work[0]
