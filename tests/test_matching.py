"""Perfect matchings, 2-factors, spectra, and the premise."""

import sys
import time
from itertools import combinations, islice, zip_longest

import pytest

from cubicscan import CubicGraphError, matching
from cubicscan.enumeration import generate_cubic_graphs
from cubicscan.matching import (
    all_two_factors_are_five_cycles,
    complementary_two_factor,
    cycle_spectrum,
    enumerate_perfect_matchings,
    five_cycle_premise_witness,
    two_factor_spectra,
)
from cubicscan.matching import _matched_edge_ids, _matching_search
from cubicscan.verifier import _check_c8
from oracles import (
    brute_perfect_matchings,
    premise_witness_by_two_factors,
    tutte_condition,
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


def _leaf_matchings(g, leaves):
    """The leaves of a search as edge-id sets, each leaf checked to be
    every vertex's matched edge id."""
    leaves = list(leaves)
    for leaf in leaves:
        assert leaf == tuple(_matched_edge_ids(g, frozenset(leaf)))
    return list(map(frozenset, leaves))


def test_forced_searches_yield_the_matchings_through_their_edge(
    small_graphs, triple_edge, doubled_edge_ring
):
    # a forced edge can cover every vertex at once, alone (triple_edge)
    # or with the vertices its propagation matches (K4); two disjoint
    # forced edges, as claim C8 asks them, yield the matchings through both
    for g in (*small_graphs, triple_edge, doubled_edge_ring):
        search = _matching_search(g)
        every = enumerate_perfect_matchings(g)
        for eid in range(len(g.edges)):
            assert _leaf_matchings(g, search(eid)) == [m for m in every if eid in m]
        if g.n > 8:
            continue
        for eid, fid in combinations(range(len(g.edges)), 2):
            if set(g.edges[eid]) & set(g.edges[fid]):
                continue
            assert _leaf_matchings(g, search(eid, fid)) == [m for m in every if {eid, fid} <= m]


def _propagate_calls(run) -> int:
    """How often run() enters the search's nested ``propagate``: one
    profiler ``call`` event per call of that plain function."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "propagate":
            calls += code.co_filename == matching.__file__

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_propagation_prunes_the_search_as_pinned(petersen_graph):
    # the search's work, counted without a clock: propagation removes only
    # dead subtrees, so a search that propagates less (no start-up
    # propagation, or forced edges whose neighbours stay off the worklist)
    # yields the same leaves and shows only in these counts. The pins
    # count ``propagate`` calls, which the planned odd-component cut
    # would leave as they are, so that cut needs a guard of its own
    # (ROADMAP item 2).
    graphs = list(generate_cubic_graphs(10, allow_multi=True))

    def first_leaf_of_every_disjoint_pair():
        for g in graphs:
            search = _matching_search(g)
            for eid, fid in combinations(range(len(g.edges)), 2):
                if not set(g.edges[eid]) & set(g.edges[fid]):
                    next(search(eid, fid), None)

    assert _propagate_calls(lambda: enumerate_perfect_matchings(petersen_graph)) == 10
    assert _propagate_calls(first_leaf_of_every_disjoint_pair) == 11_324
    assert _propagate_calls(lambda: [_check_c8(g) for g in graphs]) == 720


def test_matching_search_is_not_bounded_by_the_recursion_limit(prism5000):
    # one branching per matched pair: 2,500 nested calls would overflow
    # the interpreter's stack; a stack of child generators answers at once
    start = time.perf_counter()
    search = _matching_search(prism5000)
    assert next(search(), None) is not None
    assert next(search(0), None) is not None
    witness = five_cycle_premise_witness(prism5000)
    assert witness is not None and 4 in witness["spectrum"]
    assert time.perf_counter() - start < 30


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
            has_pm = bool(enumerate_perfect_matchings(g))
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
                factor_ids = frozenset(eid for _, edge_ids in factor for eid in edge_ids)
                assert factor_ids | m == frozenset(range(len(g.edges)))
                assert not factor_ids & m
                spectrum = cycle_spectrum(factor)
                assert sum(spectrum) == g.n
                assert all(length >= 2 for length in spectrum)


def test_two_factor_cycles_are_walkable(petersen_graph):
    m = enumerate_perfect_matchings(petersen_graph)[0]
    factor = complementary_two_factor(petersen_graph, m)
    for vertices, edge_ids in factor:
        k = len(vertices)
        for i, eid in enumerate(edge_ids):
            a, b = vertices[i], vertices[(i + 1) % k]
            assert set(petersen_graph.edges[eid]) == {a, b}


def test_complementary_two_factor_walk_is_pinned(prism, bridged8, triple_edge):
    # each cycle starts at its smallest vertex and leaves it by the
    # smaller (neighbor, edge id) entry; parallel edges pin the direction;
    # each cycle is its (vertices, edge_ids) pair
    walk = complementary_two_factor
    assert walk(prism, frozenset({0, 3, 8})) == (((0, 2, 1, 4, 5, 3), (2, 1, 7, 4, 5, 6)),)
    assert walk(bridged8, frozenset({3, 4, 7, 10})) == (
        ((0, 1, 2), (0, 2, 1)),
        ((3, 4, 7, 6, 5), (5, 8, 11, 9, 6)),
    )
    assert walk(triple_edge, frozenset({0})) == (((0, 1), (1, 2)),)
    assert walk(triple_edge, frozenset({1})) == (((0, 1), (0, 2)),)
    # a one-shot iterator of the ids walks the same cycles
    assert walk(prism, iter([0, 3, 8])) == walk(prism, frozenset({0, 3, 8}))


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


def _non_matching_message(g, ids):
    """The failure an id set names: an id out of range, else the first
    vertex it does not cover exactly once."""
    out_of_range = [eid for eid in ids if not 0 <= eid < len(g.edges)]
    if out_of_range:
        return f"edge id {out_of_range[0]} out of range"
    covers = [sum(v in g.edges[eid] for eid in ids) for v in range(g.n)]
    v = next(v for v, count in enumerate(covers) if count != 1)
    return f"matching covers vertex {v} {covers[v]} times, not once"


def test_complementary_two_factor_rejects_non_matching(k4, petersen_graph, triple_edge):
    # a one-shot iterator of the same ids names the same failure
    for g, ids in _non_matchings(k4, petersen_graph, triple_edge):
        for given in (ids, iter(sorted(ids))):
            with pytest.raises(CubicGraphError) as info:
                complementary_two_factor(g, given)
            assert str(info.value) == _non_matching_message(g, ids)


def test_two_factor_spectra_equal_the_cycle_walk_in_order(
    small_graphs, petersen_graph, prisms, triple_edge, random_multigraphs
):
    graphs = [*small_graphs, petersen_graph, *prisms.values(), triple_edge]
    for g in graphs + random_multigraphs:
        assert tuple(two_factor_spectra(g)) == tuple(
            cycle_spectrum(complementary_two_factor(g, m)) for m in enumerate_perfect_matchings(g)
        )
    assert tuple(two_factor_spectra(triple_edge)) == (
        (2,),
        (2,),
        (2,),
    )


def test_two_factor_spectra_on_a_graph_wider_than_a_machine_word(prism50):
    # 100 vertices: the walk's bitmasks of vertices span two 64-bit words
    head = list(islice(two_factor_spectra(prism50), 2000))
    matchings = islice(map(frozenset, _matching_search(prism50)()), 2000)
    assert head == [cycle_spectrum(complementary_two_factor(prism50, m)) for m in matchings]
    assert len(set(head)) > 1


def test_premise_answers_equal_the_two_factor_oracles(
    small_graphs, petersen_graph, prisms, triple_edge, no_perfect_matching10, random_multigraphs
):
    graphs = [*small_graphs, petersen_graph, *prisms.values(), triple_edge]
    for g in graphs + [no_perfect_matching10] + random_multigraphs:
        assert five_cycle_premise_witness(g) == premise_witness_by_two_factors(g)
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
    matchings = enumerate_perfect_matchings(petersen_graph)
    for eid in range(len(petersen_graph.edges)):
        assert any(eid in m for m in matchings)
        assert any(eid not in m for m in matchings)


def test_bridge_lies_in_every_pm(bridged8, bridged10):
    for g, bridge in ((bridged8, 4), (bridged10, 14)):
        matchings = enumerate_perfect_matchings(g)
        assert matchings and all(bridge in m for m in matchings)


def test_triple_edge_corollaries(triple_edge):
    matchings = enumerate_perfect_matchings(triple_edge)
    for eid in range(3):
        assert any(eid in m for m in matchings)
        assert any(eid not in m for m in matchings)


def test_two_factor_through_edges(petersen_graph, k4, bridged8):
    # a 2-factor holds two edges when some matching avoids both
    for g in (petersen_graph, k4):
        matchings = enumerate_perfect_matchings(g)
        for eid, fid in combinations(range(len(g.edges)), 2):
            assert any(eid not in m and fid not in m for m in matchings)
    bridge = 4
    matchings = enumerate_perfect_matchings(bridged8)
    for fid in range(len(bridged8.edges)):
        if fid != bridge:
            assert not any(bridge not in m and fid not in m for m in matchings)


def test_triangle_free_two_factor(k4, petersen_graph):
    for g in (k4, petersen_graph):
        assert any(s[0] >= 4 for s in two_factor_spectra(g))
