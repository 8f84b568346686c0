"""Perfect matchings, 2-factors, spectra, and the matching predicates."""

from itertools import combinations, zip_longest

import pytest

from cubicscan.connectivity import is_connected
from cubicscan.enumeration import filter_bridgeless, generate_cubic_graphs
from cubicscan.errors import MatchingError, MultigraphError
from cubicscan.matching import (
    all_two_factors_are_five_cycles,
    complementary_two_factor,
    cycle_spectrum,
    enumerate_perfect_matchings,
    exists_perfect_matching,
    exists_pm_avoiding_edge,
    exists_pm_with_edge,
    exists_pm_with_edge_pair,
    exists_triangle_free_two_factor,
    exists_two_factor_through_edges,
    five_cycle_premise_witness,
    tutte_condition,
    two_factor_spectra,
)
from cubicscan.matching import _matching_search
from oracles import (
    brute_perfect_matchings,
    premise_witness_by_two_factors,
    triangle_free_two_factor_by_two_factors,
    unpruned_perfect_matchings,
)


def test_pm_counts(k4, petersen_graph, triple_edge, k33):
    assert len(enumerate_perfect_matchings(k4)) == 3
    assert len(enumerate_perfect_matchings(petersen_graph)) == 6
    assert len(enumerate_perfect_matchings(triple_edge)) == 3
    assert len(enumerate_perfect_matchings(k33)) == 6


def test_pm_enumeration_matches_subset_brute_force(petersen_graph, prism, bridged8, k33):
    for g in (petersen_graph, prism, bridged8, k33):
        assert set(enumerate_perfect_matchings(g)) == brute_perfect_matchings(g)
    for n in (2, 4, 6, 8):
        for g in generate_cubic_graphs(n, allow_multi=True):
            assert set(enumerate_perfect_matchings(g)) == brute_perfect_matchings(g)
    for g in generate_cubic_graphs(10):
        assert len(enumerate_perfect_matchings(g)) == len(brute_perfect_matchings(g))


def test_pruned_search_yields_the_unpruned_order(
    small_graphs,
    petersen_graph,
    triple_edge,
    prisms,
    no_perfect_matching10,
    doubled_edge_ring,
    random_multigraphs,
    random_simple_graphs,
):
    graphs = [
        *small_graphs,
        petersen_graph,
        triple_edge,
        *prisms.values(),
        no_perfect_matching10,
        doubled_edge_ring,
    ]
    for g in graphs + random_multigraphs + random_simple_graphs:
        assert list(enumerate_perfect_matchings(g)) == list(unpruned_perfect_matchings(g))
    assert enumerate_perfect_matchings(no_perfect_matching10) == ()
    # the three single edges, or one edge of each doubled pair
    assert len(enumerate_perfect_matchings(doubled_edge_ring)) == 9


def test_searches_from_one_setup_run_interleaved(petersen_graph, prisms, doubled_edge_ring):
    for g in (petersen_graph, prisms[6], prisms[7], doubled_edge_ring):
        for eid in range(len(g.edges)):
            search = _matching_search(g)
            interleaved = list(zip_longest(search(), search(eid)))
            assert [a for a, _ in interleaved] == list(_matching_search(g)())
            assert [b for _, b in interleaved if b is not None] == list(_matching_search(g)(eid))


def test_prism_matching_counts_follow_the_lucas_numbers(prisms):
    # C_k x K2 has L_k perfect matchings for odd k and L_k + 2 for even k
    lucas = [2, 1]
    while len(lucas) <= 15:
        lucas.append(lucas[-1] + lucas[-2])
    for k, g in prisms.items():
        assert len(enumerate_perfect_matchings(g)) == lucas[k] + (2 if k % 2 == 0 else 0)
    assert len(enumerate_perfect_matchings(prisms[15])) == 1364


def test_pm_enumeration_no_duplicates_and_valid():
    for n in (4, 6, 8):
        for g in generate_cubic_graphs(n, allow_multi=True):
            matchings = enumerate_perfect_matchings(g)
            assert len(set(matchings)) == len(matchings)
            for m in matchings:
                covered = [v for eid in m for v in g.edges[eid]]
                assert sorted(covered) == list(range(g.n))


def test_tutte_condition_on_petersen(petersen_graph):
    check = tutte_condition(petersen_graph, set())
    assert check == (0, True)
    check = tutte_condition(petersen_graph, {0})
    assert check.odd_components == 1 and check.satisfied


def test_tutte_condition_counts_components_of_bridged_graph(bridged8):
    # removing the bridge tail leaves the even pair {1,2} and the odd
    # 5-vertex block
    assert tutte_condition(bridged8, {0}) == (1, True)
    assert tutte_condition(bridged8, {3}) == (1, True)
    assert tutte_condition(bridged8, {0, 3}) == (0, True)
    # the graph has a perfect matching, so no subset may violate Tutte
    assert all(
        tutte_condition(bridged8, {v for v in range(8) if mask >> v & 1}).satisfied
        for mask in range(1 << 8)
    )


def test_tutte_condition_rejects_foreign_vertices(k4):
    with pytest.raises(ValueError):
        tutte_condition(k4, {7})


def test_tutte_equivalence_exhaustive_small():
    for n in (2, 4, 6):
        for g in generate_cubic_graphs(n, allow_multi=True):
            has_pm = exists_perfect_matching(g)
            tutte_all = all(
                tutte_condition(g, {v for v in range(g.n) if mask >> v & 1}).satisfied
                for mask in range(1 << g.n)
            )
            assert has_pm == tutte_all


def test_complementary_two_factor_shapes(k4, petersen_graph, triple_edge):
    for m in enumerate_perfect_matchings(k4):
        assert cycle_spectrum(complementary_two_factor(k4, m)) == (4,)
    for m in enumerate_perfect_matchings(petersen_graph):
        assert cycle_spectrum(complementary_two_factor(petersen_graph, m)) == (5, 5)
    for m in enumerate_perfect_matchings(triple_edge):
        assert cycle_spectrum(complementary_two_factor(triple_edge, m)) == (2,)


def test_k33_two_factors_are_hexagons(k33):
    for m in enumerate_perfect_matchings(k33):
        assert cycle_spectrum(complementary_two_factor(k33, m)) == (6,)


def test_two_factor_partitions_edges():
    for n in (4, 6, 8):
        for g in generate_cubic_graphs(n, allow_multi=True):
            for m in enumerate_perfect_matchings(g):
                factor = complementary_two_factor(g, m)
                assert factor.edge_ids | m == frozenset(range(len(g.edges)))
                assert not factor.edge_ids & m
                spectrum = cycle_spectrum(factor)
                assert sum(spectrum) == g.n
                assert all(length >= 2 for length in spectrum)


def test_two_factor_cycles_are_walkable(petersen_graph):
    m = enumerate_perfect_matchings(petersen_graph)[0]
    factor = complementary_two_factor(petersen_graph, m)
    for cycle in factor.cycles:
        k = len(cycle.vertices)
        for i, eid in enumerate(cycle.edge_ids):
            a, b = cycle.vertices[i], cycle.vertices[(i + 1) % k]
            assert set(petersen_graph.edges[eid]) == {a, b}


def test_complementary_two_factor_walk_is_pinned(prism, bridged8, triple_edge):
    # each cycle starts at its smallest vertex and leaves it by the
    # smaller (neighbor, edge id) entry; parallel edges pin the direction
    def walk(g, m):
        return [(c.vertices, c.edge_ids) for c in complementary_two_factor(g, m).cycles]

    assert walk(prism, frozenset({0, 3, 8})) == [((0, 2, 1, 4, 5, 3), (2, 1, 7, 4, 5, 6))]
    assert walk(bridged8, frozenset({3, 4, 7, 10})) == [
        ((0, 1, 2), (0, 2, 1)),
        ((3, 4, 7, 6, 5), (5, 8, 11, 9, 6)),
    ]
    assert walk(triple_edge, frozenset({0})) == [((0, 1), (1, 2))]
    assert walk(triple_edge, frozenset({1})) == [((0, 1), (0, 2))]


def _non_matchings(k4, petersen_graph, triple_edge):
    """(graph, ids) pairs in which the ids are not a perfect matching."""
    yield k4, frozenset({0, 1})
    yield k4, frozenset({0, 99})
    for ids in (frozenset(), frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({-1})):
        yield triple_edge, ids
    for g in (k4, petersen_graph):
        m = enumerate_perfect_matchings(g)[0]
        last = max(m)
        extra = min(set(range(len(g.edges))) - m)
        shares = next(
            eid
            for eid in range(len(g.edges))
            if eid != last and set(g.edges[eid]) & set(g.edges[last])
        )
        # the empty set, one edge short, one edge too many, a vertex
        # covered twice, an id out of range in place of a matching edge
        for ids in (
            frozenset(),
            m - {last},
            m | {extra},
            m - {last} | {shares},
            m - {last} | {99},
            m - {last} | {-1},
        ):
            yield g, ids


def test_complementary_two_factor_rejects_non_matching(k4, petersen_graph, triple_edge):
    for g, ids in _non_matchings(k4, petersen_graph, triple_edge):
        with pytest.raises(MatchingError):
            complementary_two_factor(g, ids)


def test_two_factor_spectra_reject_non_matching_as_the_cycle_walk_does(
    k4, petersen_graph, triple_edge
):
    for g, ids in _non_matchings(k4, petersen_graph, triple_edge):
        with pytest.raises(MatchingError) as expected:
            complementary_two_factor(g, ids)
        # after a good matching, so the walk's state has been used once
        good = enumerate_perfect_matchings(g)[0]
        with pytest.raises(MatchingError) as raised:
            two_factor_spectra(g, [good, ids])
        assert str(raised.value) == str(expected.value)


def test_two_factor_spectra_equal_the_cycle_walk_in_order(
    small_graphs, petersen_graph, prisms, triple_edge, random_multigraphs
):
    graphs = [*small_graphs, petersen_graph, *prisms.values(), triple_edge]
    for g in graphs + random_multigraphs:
        matchings = enumerate_perfect_matchings(g)
        assert two_factor_spectra(g, matchings) == tuple(
            cycle_spectrum(complementary_two_factor(g, m)) for m in matchings
        )
    assert two_factor_spectra(triple_edge, enumerate_perfect_matchings(triple_edge)) == (
        (2,),
        (2,),
        (2,),
    )


def test_premise_answers_equal_the_two_factor_oracles(
    small_graphs, petersen_graph, prisms, triple_edge, no_perfect_matching10, random_multigraphs
):
    graphs = [*small_graphs, petersen_graph, *prisms.values(), triple_edge]
    for g in graphs + [no_perfect_matching10] + random_multigraphs:
        assert five_cycle_premise_witness(g) == premise_witness_by_two_factors(g)
        if not g.has_parallel_edges:
            assert exists_triangle_free_two_factor(g) == triangle_free_two_factor_by_two_factors(g)
    assert five_cycle_premise_witness(no_perfect_matching10) == {"reason": "no perfect matching"}


def test_premise_predicate(petersen_graph, k4, k33):
    assert all_two_factors_are_five_cycles(petersen_graph)
    assert not all_two_factors_are_five_cycles(k4)
    assert not all_two_factors_are_five_cycles(k33)


def test_premise_positive_implies_two_odd_cycles(petersen_graph):
    # non-3-edge-colorability: each 2-factor needs at least two odd cycles
    for m in enumerate_perfect_matchings(petersen_graph):
        spectrum = cycle_spectrum(complementary_two_factor(petersen_graph, m))
        assert sum(1 for length in spectrum if length % 2) >= 2


def test_edge_corollaries_on_petersen(petersen_graph):
    for eid in range(len(petersen_graph.edges)):
        assert exists_pm_with_edge(petersen_graph, eid)
        assert exists_pm_avoiding_edge(petersen_graph, eid)


def test_bridge_lies_in_every_pm(bridged8, bridged10):
    for g, bridge in ((bridged8, 4), (bridged10, 14)):
        assert exists_pm_with_edge(g, bridge)
        assert not exists_pm_avoiding_edge(g, bridge)


def test_triple_edge_corollaries(triple_edge):
    for eid in range(3):
        assert exists_pm_with_edge(triple_edge, eid)
        assert exists_pm_avoiding_edge(triple_edge, eid)


def test_pm_with_edge_pair(k4, petersen_graph):
    first = enumerate_perfect_matchings(k4)[0]
    eid, fid = sorted(first)
    assert exists_pm_with_edge_pair(k4, eid, fid)
    with pytest.raises(ValueError):
        exists_pm_with_edge_pair(k4, 0, 0)
    with pytest.raises(ValueError):
        exists_pm_with_edge_pair(k4, 0, 1)  # edges share vertex 0


def test_pm_with_edge_pair_matches_enumeration(k33):
    matchings = enumerate_perfect_matchings(k33)
    for eid, fid in combinations(range(len(k33.edges)), 2):
        if set(k33.edges[eid]) & set(k33.edges[fid]):
            continue
        expected = any(eid in m and fid in m for m in matchings)
        assert exists_pm_with_edge_pair(k33, eid, fid) == expected


def test_two_factor_through_edges(petersen_graph, k4, bridged8):
    for g in (petersen_graph, k4):
        for eid, fid in combinations(range(len(g.edges)), 2):
            assert exists_two_factor_through_edges(g, eid, fid)
    bridge = 4
    for fid in range(len(bridged8.edges)):
        if fid != bridge:
            assert not exists_two_factor_through_edges(bridged8, bridge, fid)


def test_edge_queries_equal_the_enumeration_answers(doubled_edge_ring, random_multigraphs):
    # in the multigraphs a parallel twin is one of an avoided edge's other edges
    graphs = [g for n in (2, 4, 6, 8) for g in generate_cubic_graphs(n, allow_multi=True)]
    graphs += [g for n in (4, 6, 8, 10) for g in generate_cubic_graphs(n)]
    graphs += [doubled_edge_ring]
    graphs += [g for g in random_multigraphs if g.n <= 14 and is_connected(g)]
    for g in graphs:
        matchings = enumerate_perfect_matchings(g)
        for eid in range(len(g.edges)):
            assert exists_pm_with_edge(g, eid) == any(eid in m for m in matchings)
            assert exists_pm_avoiding_edge(g, eid) == any(eid not in m for m in matchings)
        for eid, fid in combinations(range(len(g.edges)), 2):
            avoided = any(eid not in m and fid not in m for m in matchings)
            assert exists_two_factor_through_edges(g, eid, fid) == avoided
            if not set(g.edges[eid]) & set(g.edges[fid]):
                both = any(eid in m and fid in m for m in matchings)
                assert exists_pm_with_edge_pair(g, eid, fid) == both


def test_edge_queries_reject_ids_out_of_range(k4):
    for eid in (6, 99, -1):
        with pytest.raises(ValueError, match=f"edge id {eid} out of range"):
            exists_pm_with_edge(k4, eid)
        with pytest.raises(ValueError, match=f"edge id {eid} out of range"):
            exists_pm_avoiding_edge(k4, eid)
        with pytest.raises(ValueError, match=f"edge id {eid} out of range"):
            exists_pm_with_edge_pair(k4, eid, 0)
        with pytest.raises(ValueError, match=f"edge id {eid} out of range"):
            exists_pm_with_edge_pair(k4, 5, eid)
        with pytest.raises(ValueError, match=f"edge id {eid} out of range"):
            exists_two_factor_through_edges(k4, eid, -2)
        with pytest.raises(ValueError, match=f"edge id {eid} out of range"):
            exists_two_factor_through_edges(k4, 0, eid)


def test_triangle_free_two_factor(k4, petersen_graph, triple_edge):
    assert exists_triangle_free_two_factor(k4)
    assert exists_triangle_free_two_factor(petersen_graph)
    with pytest.raises(MultigraphError):
        exists_triangle_free_two_factor(triple_edge)


def test_triangle_free_two_factor_on_all_small_bridgeless_simple_graphs():
    for n in (4, 6, 8, 10):
        for g in filter_bridgeless(generate_cubic_graphs(n)):
            assert exists_triangle_free_two_factor(g)
