"""Claim reports, the neighborhood check, and 10-vertex uniqueness."""

from itertools import combinations

import pytest

from cubicscan.connectivity import girth
from cubicscan.enumeration import generate_cubic_graphs
from cubicscan.errors import DisconnectedError, DuplicateGraphError, PreconditionError
from cubicscan.graphs import CubicGraph, canonical_form, is_isomorphic, relabeled
from cubicscan.verifier import (
    CLAIM_IDS,
    verify_claims,
    verify_neighborhood_structure,
    verify_petersen_uniqueness,
)
from oracles import (
    brute_edge_connectivity,
    c8_by_enumeration,
    count_five_cycles_through_path,
    neighborhood_structure_by_parts,
    removal_disconnects,
    two_edge_paths,
)


def test_petersen_report_all_claims_hold(petersen_graph):
    report = verify_claims(petersen_graph)
    assert report.premise_holds
    assert report.premise_witness is None
    assert report.is_petersen
    assert set(report.claim_results) == set(CLAIM_IDS)
    assert all(res.holds for res in report.claim_results.values())


def test_k4_report(k4):
    report = verify_claims(k4)
    assert not report.premise_holds
    assert report.premise_witness is not None
    assert report.premise_witness["spectrum"] == [4]
    assert not report.claim_results["C4"].holds
    assert report.claim_results["C4"].witness == {"cycle": [0, 1, 2]}
    assert not report.claim_results["C5"].holds
    assert not report.is_petersen
    # vacuously fine: C8 and C6/C7 hold on K4
    assert report.claim_results["C6"].holds
    assert report.claim_results["C7"].holds
    assert report.claim_results["C8"].holds


def test_prism_report_flags_non_star_cut(prism):
    report = verify_claims(prism)
    assert not report.premise_holds
    assert not report.claim_results["C7"].holds
    witness = report.claim_results["C7"].witness
    assert witness is not None
    cut_edges = witness["cut_edges"]
    assert [prism.edges[eid] for eid in cut_edges] == [(0, 3), (1, 4), (2, 5)]


def test_bridged_report_flags_c6(bridged8):
    report = verify_claims(bridged8)
    assert not report.claim_results["C6"].holds
    witness = report.claim_results["C6"].witness
    assert witness == {"edge_connectivity": 1, "cut": [4]}
    assert not report.claim_results["C1"].holds


def test_c6_witness_is_the_first_disconnecting_subset(small_graphs):
    for g in small_graphs:
        lam = brute_edge_connectivity(g)
        c6 = verify_claims(g).claim_results["C6"]
        if lam == 3:
            assert c6.holds and c6.witness is None
            continue
        first = next(
            list(subset)
            for subset in combinations(range(len(g.edges)), lam)
            if removal_disconnects(g, set(subset))
        )
        assert not c6.holds
        assert c6.witness == {"edge_connectivity": lam, "cut": first}


def test_c8_equals_the_enumeration_oracle(
    small_graphs, prisms, random_simple_graphs, doubled_edge_ring
):
    graphs = [*small_graphs, *prisms.values(), *random_simple_graphs, doubled_edge_ring]
    failing = 0
    for g in graphs:
        expected = c8_by_enumeration(g)
        assert verify_claims(g).claim_results["C8"] == expected
        failing += not expected.holds
    assert failing  # some witness is compared, not only verdicts


def test_triple_edge_report(triple_edge):
    report = verify_claims(triple_edge)
    assert not report.premise_holds
    assert report.premise_witness["spectrum"] == [2]
    assert not report.claim_results["C1"].holds
    assert report.claim_results["C1"].witness == {"parallel_edge_ids": [0, 1]}


def test_heawood_report(heawood):
    # girth 6: all short-cycle claims hold, C5 and FINAL fail, premise
    # fails because a bipartite graph has only even factor cycles
    report = verify_claims(heawood)
    assert not report.premise_holds
    assert report.premise_witness is not None
    assert all(length % 2 == 0 for length in report.premise_witness["spectrum"])
    for cid in ("C1", "C2", "C3", "C4"):
        assert report.claim_results[cid].holds
    assert not report.claim_results["C5"].holds
    assert report.claim_results["C5"].witness["girth"] == 6
    assert not report.claim_results["FINAL"].holds
    assert not report.is_petersen
    assert report.claim_results["PROP4"].holds


def test_premise_witness_is_the_first_failing_matching(prism, bridged8, triple_edge):
    # matchings are tried in enumeration order; the witness is the first
    # whose 2-factor has a cycle other than a 5-cycle
    assert verify_claims(prism).premise_witness == {"matching": [0, 3, 8], "spectrum": [6]}
    assert verify_claims(bridged8).premise_witness == {
        "matching": [2, 4, 7, 10],
        "spectrum": [3, 5],
    }
    assert verify_claims(triple_edge).premise_witness == {"matching": [0], "spectrum": [2]}


def test_premise_witness_without_a_perfect_matching(no_perfect_matching10):
    report = verify_claims(no_perfect_matching10)
    assert not report.premise_holds
    assert report.premise_witness == {"reason": "no perfect matching"}


def test_premise_failure_always_carries_a_matching_witness():
    for n in (4, 6, 8):
        for g in generate_cubic_graphs(n, allow_multi=True):
            report = verify_claims(g)
            if not report.premise_holds and report.premise_witness is not None:
                if "matching" in report.premise_witness:
                    spectrum = report.premise_witness["spectrum"]
                    assert any(length != 5 for length in spectrum)
                    assert sum(spectrum) == g.n


def test_report_is_relabeling_invariant(petersen_graph, prism):
    import random

    rng = random.Random(5)
    for g in (petersen_graph, prism):
        perm = list(range(g.n))
        rng.shuffle(perm)
        a = verify_claims(g)
        b = verify_claims(relabeled(g, perm))
        assert a.graph_certificate == b.graph_certificate
        assert {k: v.holds for k, v in a.claim_results.items()} == {
            k: v.holds for k, v in b.claim_results.items()
        }


def test_verify_claims_rejects_disconnected(two_k4s_disconnected_edges):
    g = CubicGraph(n=8, edges=tuple(two_k4s_disconnected_edges))
    with pytest.raises(DisconnectedError):
        verify_claims(g)


def test_neighborhood_structure_on_petersen(petersen_graph):
    check = verify_neighborhood_structure(petersen_graph)
    assert check.holds and check.witness is None


def test_neighborhood_structure_preconditions(k33, heawood):
    with pytest.raises(PreconditionError):
        verify_neighborhood_structure(k33)  # girth 4
    with pytest.raises(PreconditionError):
        verify_neighborhood_structure(heawood)  # girth 6, no 5-cycles at all


def test_neighborhood_structure_fails_on_other_girth5_graphs():
    # every 12-vertex girth-5 cubic graph must fail some sub-check
    found = 0
    for g in generate_cubic_graphs(12):
        if girth(g) == 5:
            found += 1
            check = verify_neighborhood_structure(g)
            assert not check.holds
            assert check.witness is not None
    assert found > 0


def test_neighborhood_structure_equals_the_three_part_oracle(
    petersen_graph, random_girth5_graphs
):
    # FINAL scans only the 3-edge paths; on girth 5 that must give the
    # verdict and witness of scanning all three conditions
    import random

    rng = random.Random(10)
    relabelings = []
    for _ in range(20):
        perm = list(range(10))
        rng.shuffle(perm)
        relabelings.append(relabeled(petersen_graph, perm))
    generated = [
        g for n in (10, 12, 14) for g in generate_cubic_graphs(n) if girth(g) == 5
    ]
    assert len(generated) == 1 + 2 + 8
    holding = 0
    for g in [*generated, *random_girth5_graphs, *relabelings]:
        expected = neighborhood_structure_by_parts(g)
        assert tuple(verify_neighborhood_structure(g)) == expected
        holding += expected[0]
        # the half of the argument that the 3-edge-path scan does not
        # test: no 2-edge path lies on more than two 5-cycles
        nbr = [set(row) for row in g.neighbor_lists]
        assert all(
            count_five_cycles_through_path(nbr, u, v, w) <= 2
            for u, v, w in two_edge_paths(g)
        )
    assert holding == 21  # the Petersen graph and its relabelings, nothing else


def test_uniqueness_on_the_full_stream():
    stream = list(generate_cubic_graphs(10))
    assert len(stream) == 19
    assert verify_petersen_uniqueness(stream)


def test_uniqueness_fails_without_petersen(petersen_graph):
    stream = [
        g for g in generate_cubic_graphs(10) if not is_isomorphic(g, petersen_graph)
    ]
    assert len(stream) == 18
    assert not verify_petersen_uniqueness(stream)


def test_uniqueness_rejects_duplicates(petersen_graph):
    stream = list(generate_cubic_graphs(10))
    perm = list(reversed(range(10)))
    stream.append(relabeled(petersen_graph, perm))
    with pytest.raises(DuplicateGraphError):
        verify_petersen_uniqueness(stream)


def test_report_json_shape(petersen_graph):
    payload = verify_claims(petersen_graph).to_json_dict()
    assert payload["is_petersen"] is True
    assert set(payload["claims"]) == set(CLAIM_IDS)
    assert payload["graph_certificate"] == canonical_form(petersen_graph).certificate.decode(
        "ascii"
    )
