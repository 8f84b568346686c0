"""Generator completeness, bridgeless filtering, and the scan."""

import pytest

from cubicscan.enumeration import (
    filter_bridgeless,
    generate_cubic_graphs,
    scan_corpus,
    scan_theorem,
)
from cubicscan.errors import GenerationLimitError, OddVertexCountError
from cubicscan.graphs import canonical_form, is_canonical_labeling, petersen
from oracles import (
    dfs_is_canonical_labeling,
    isomorphism_classes,
    orderly_cubic_graphs,
    permutation_tie_cubic_graphs,
)

# OEIS A002851 (connected cubic simple graphs) and A000421 (connected
# cubic loopless multigraphs)
SIMPLE_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}
MULTI_COUNTS = {2: 1, 4: 2, 6: 6, 8: 20, 10: 91, 12: 509}


def test_generator_matches_brute_force_classes_simple():
    for n in (4, 6, 8):
        generated = {g.edges for g in generate_cubic_graphs(n)}
        assert generated == isomorphism_classes(n, False)


def test_generator_matches_brute_force_classes_multi():
    for n in (2, 4, 6):
        generated = {g.edges for g in generate_cubic_graphs(n, allow_multi=True)}
        assert generated == isomorphism_classes(n, True)


def test_prefix_pruning_yields_the_unpruned_generator_output_in_order():
    for n in (4, 6, 8, 10, 12):
        assert [g.edges for g in generate_cubic_graphs(n)] == orderly_cubic_graphs(n, False)
    for n in (2, 4, 6, 8, 10):
        generated = [g.edges for g in generate_cubic_graphs(n, allow_multi=True)]
        assert generated == orderly_cubic_graphs(n, True)


def test_cell_ties_yield_the_per_permutation_frontier_output_in_order():
    for n in (4, 6, 8, 10, 12, 14):
        assert [g.edges for g in generate_cubic_graphs(n)] == permutation_tie_cubic_graphs(n, False)
    for n in (2, 4, 6, 8, 10, 12):
        generated = [g.edges for g in generate_cubic_graphs(n, allow_multi=True)]
        assert generated == permutation_tie_cubic_graphs(n, True)


def test_every_generated_graph_is_its_own_canonical_form():
    # the generator yields its leaves untested, so every leaf must pass both searches
    for allow_multi, n_max in ((False, 14), (True, 10)):
        for n in range(2 if allow_multi else 4, n_max + 1, 2):
            for g in generate_cubic_graphs(n, allow_multi=allow_multi):
                assert is_canonical_labeling(g)
                if n <= 10:
                    assert dfs_is_canonical_labeling(g)


def test_generator_counts():
    for n, count in SIMPLE_COUNTS.items():
        assert sum(1 for _ in generate_cubic_graphs(n)) == count
    for n, count in MULTI_COUNTS.items():
        assert sum(1 for _ in generate_cubic_graphs(n, allow_multi=True)) == count


def test_generator_reaches_the_16_vertex_count():
    assert sum(1 for _ in generate_cubic_graphs(16)) == 4060  # A002851


def test_generator_emits_canonical_representatives_without_duplicates():
    for n in (6, 8):
        graphs = list(generate_cubic_graphs(n, allow_multi=True))
        certs = {canonical_form(g).certificate for g in graphs}
        assert len(certs) == len(graphs)
        assert all(is_canonical_labeling(g) for g in graphs)
        edge_lists = [g.edges for g in graphs]
        assert edge_lists == sorted(edge_lists)


def test_generator_bounds():
    with pytest.raises(OddVertexCountError):
        list(generate_cubic_graphs(7))
    with pytest.raises(GenerationLimitError):
        list(generate_cubic_graphs(2))  # simple graphs start at 4
    with pytest.raises(GenerationLimitError):
        list(generate_cubic_graphs(18))
    with pytest.raises(GenerationLimitError):
        list(generate_cubic_graphs(14, allow_multi=True))
    with pytest.raises(GenerationLimitError):
        list(generate_cubic_graphs(8, limit=6))
    # an explicit limit overrides the default cap
    assert next(generate_cubic_graphs(14, allow_multi=True, limit=14)).n == 14
    assert next(generate_cubic_graphs(18, limit=18)).n == 18


def test_filter_bridgeless(k4, triple_edge, bridged8):
    assert list(filter_bridgeless([k4])) == [k4]
    assert list(filter_bridgeless([triple_edge])) == [triple_edge]
    assert list(filter_bridgeless([bridged8])) == []


def test_scan_small_has_no_positives():
    report = scan_theorem(8)
    assert report.n_range == (4, 6, 8)
    assert not report.positives
    assert report.per_n[8].generated == 5
    assert report.per_n[8].bridgeless == 5


def test_scan_to_ten_finds_exactly_petersen():
    report = scan_theorem(10)
    assert [p.n for p in report.positives] == [10]
    assert report.positives[0].is_petersen
    expected = canonical_form(petersen()).certificate.decode("ascii")
    assert report.positives[0].certificate == expected


def test_scan_multigraphs_to_six():
    report = scan_theorem(6, allow_multi=True)
    assert report.n_range == (2, 4, 6)
    assert report.per_n[2].generated == 1
    assert report.per_n[2].bridgeless == 1  # triple edge survives the filter
    assert not report.positives


def test_scan_repeats_identically_modulo_timing():
    a = scan_theorem(8).to_json_dict()
    b = scan_theorem(8).to_json_dict()

    def strip(d):
        d.pop("elapsed_seconds", None)
        for stats in d.get("per_n", {}).values():
            stats.pop("elapsed_seconds", None)
        return d

    assert strip(a) == strip(b)


def test_scan_corpus_mode(petersen_graph, k4, prism):
    report = scan_corpus([k4, prism, petersen_graph])
    assert report.n_range == (4, 6, 10)
    assert [p.is_petersen for p in report.positives] == [True]


def test_scan_rejects_odd_or_oversized_bounds():
    with pytest.raises(OddVertexCountError):
        scan_theorem(9)
    with pytest.raises(GenerationLimitError):
        scan_theorem(14, allow_multi=True)
    with pytest.raises(GenerationLimitError):
        scan_theorem(18)
