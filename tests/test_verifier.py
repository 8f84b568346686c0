"""Claim reports and the neighborhood check."""

import json
from itertools import combinations
from pathlib import Path

import jsonschema
import pytest

import cubicscan.connectivity
import cubicscan.verifier
from cubicscan import CubicGraphError
from cubicscan.cli import main
from cubicscan.connectivity import (
    find_adjacent_triangles,
    find_cycle_of_length,
    find_nonstar_3_edge_cut,
    find_small_edge_cut,
    find_square_triangle_pair,
    find_two_cycle,
    girth,
    is_connected,
)
from cubicscan.enumeration import generate_cubic_graphs
from cubicscan.formats import emit_edgelist
from cubicscan.graphs import CubicGraph, canonical_form, from_edge_list, petersen, relabeled
from cubicscan.verifier import CLAIM_IDS, _check_c8, verify_claims
from oracles import (
    brute_edge_connectivity,
    brute_edge_cuts_by_bipartition,
    c8_by_enumeration,
    count_five_cycles_through_path,
    neighborhood_structure_by_parts,
    removal_disconnects,
    two_edge_paths,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text()
)


def test_petersen_report_all_claims_hold(petersen_graph):
    report = verify_claims(petersen_graph)
    assert report["premise_holds"]
    assert report["premise_witness"] is None
    assert report["is_petersen"]
    assert set(report["claims"]) == set(CLAIM_IDS)
    assert all(claim["holds"] for claim in report["claims"].values())


def test_k4_report(k4):
    report = verify_claims(k4)
    assert not report["premise_holds"]
    assert report["premise_witness"] is not None
    assert report["premise_witness"]["spectrum"] == [4]
    assert not report["claims"]["C4"]["holds"]
    assert report["claims"]["C4"]["witness"] == {"cycle": [0, 1, 2]}
    assert not report["claims"]["C5"]["holds"]
    assert not report["is_petersen"]
    # vacuously fine: C8 and C6/C7 hold on K4
    assert report["claims"]["C6"]["holds"]
    assert report["claims"]["C7"]["holds"]
    assert report["claims"]["C8"]["holds"]


def test_prism_report_flags_non_star_cut(prism):
    report = verify_claims(prism)
    assert not report["premise_holds"]
    assert not report["claims"]["C7"]["holds"]
    witness = report["claims"]["C7"]["witness"]
    assert witness is not None
    cut_edges = witness["cut_edges"]
    assert [prism.edges[eid] for eid in cut_edges] == [(0, 3), (1, 4), (2, 5)]


def test_bridged_report_flags_c6(bridged8):
    report = verify_claims(bridged8)
    assert not report["claims"]["C6"]["holds"]
    witness = report["claims"]["C6"]["witness"]
    assert witness == {"edge_connectivity": 1, "cut": [4]}
    assert not report["claims"]["C1"]["holds"]


def test_c6_witness_is_the_first_disconnecting_subset(small_graphs):
    for g in small_graphs:
        lam = brute_edge_connectivity(g)
        c6 = verify_claims(g)["claims"]["C6"]
        if lam == 3:
            assert c6 == {"holds": True, "witness": None}
            continue
        first = next(
            list(subset)
            for subset in combinations(range(len(g.edges)), lam)
            if removal_disconnects(g, set(subset))
        )
        assert c6 == {"holds": False, "witness": {"edge_connectivity": lam, "cut": first}}


def test_c7_witness_is_the_first_cut_with_two_larger_sides(small_graphs, random_multigraphs):
    multigraphs = [g for g in random_multigraphs if g.n <= 14 and is_connected(g)]
    failing = 0
    for g in small_graphs + multigraphs:
        first = next(
            (
                {"cut_edges": edges, "side": list(side_u)}
                for edges, side_u, side_ubar in brute_edge_cuts_by_bipartition(g, 3)
                if len(side_u) > 1 and len(side_ubar) > 1
            ),
            None,
        )
        assert verify_claims(g)["claims"]["C7"] == {"holds": first is None, "witness": first}
        failing += first is not None
    assert failing


def test_c7_witness_side_may_be_disconnected():
    # a chain of digons: the first non-star cut separates 2, 3, 4 from
    # the rest, so the side of vertex 0 is {0, 1} and {5, 6, 7}
    edges = [(0, 1), (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 4), (4, 5)]
    g = CubicGraph(n=8, edges=tuple(edges + [(5, 6), (5, 7), (6, 7), (6, 7)]))
    witness = verify_claims(g)["claims"]["C7"]["witness"]
    assert witness == {"cut_edges": [2, 3, 7], "side": [0, 1, 5, 6, 7]}
    assert not any({u, v} & {0, 1} and {u, v} & {5, 6, 7} for u, v in g.edges)


def test_c8_equals_the_enumeration_oracle(
    small_graphs, prisms, random_simple_graphs, doubled_edge_ring, random_multigraphs
):
    graphs = [*small_graphs, *prisms.values(), *random_simple_graphs, doubled_edge_ring]
    # in a multigraph the first id of a doubled edge stands for both
    graphs += [g for g in random_multigraphs if is_connected(g)]
    failing = 0
    for g in graphs:
        expected = c8_by_enumeration(g)
        assert verify_claims(g)["claims"]["C8"] == expected
        failing += not expected["holds"]
    assert failing  # some witness is compared, not only verdicts


def test_each_claim_witness_is_its_check_s_return_value(
    small_graphs,
    random_multigraphs,
    triple_edge,
    k4,
    k33,
    prism,
    petersen_graph,
    heawood,
    doubled_edge_ring,
    no_perfect_matching10,
):
    graphs = [
        *small_graphs,
        *(triple_edge, k4, k33, prism, petersen_graph, heawood, doubled_edge_ring),
        no_perfect_matching10,
        *random_multigraphs,
    ]
    shown = set()
    for g in filter(is_connected, graphs):
        claims = verify_claims(g)["claims"]
        checks = {
            "C1": find_two_cycle(g),
            "C2": find_adjacent_triangles(g),
            "C3": find_square_triangle_pair(g),
            "C4": find_cycle_of_length(g, 3),
            "C6": find_small_edge_cut(g),
            "C7": find_nonstar_3_edge_cut(g),
            "C8": _check_c8(g),
        }
        if girth(g) == 4:
            checks["C5"] = {"girth": 4, "witness": find_cycle_of_length(g, 4)}
        for cid, witness in checks.items():
            assert claims[cid] == {"holds": witness is None, "witness": witness}, cid
            if witness is not None:
                shown.add(cid)
    # each kind of witness is compared
    assert shown == {"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"}


def test_triple_edge_report(triple_edge):
    report = verify_claims(triple_edge)
    assert not report["premise_holds"]
    assert report["premise_witness"]["spectrum"] == [2]
    assert not report["claims"]["C1"]["holds"]
    assert report["claims"]["C1"]["witness"] == {"parallel_edge_ids": [0, 1]}


def test_heawood_report(heawood):
    # girth 6: all short-cycle claims hold, C5 and FINAL fail, premise
    # fails because a bipartite graph has only even factor cycles
    report = verify_claims(heawood)
    assert not report["premise_holds"]
    assert report["premise_witness"] is not None
    assert all(length % 2 == 0 for length in report["premise_witness"]["spectrum"])
    for cid in ("C1", "C2", "C3", "C4"):
        assert report["claims"][cid]["holds"]
    assert not report["claims"]["C5"]["holds"]
    assert report["claims"]["C5"]["witness"]["girth"] == 6
    assert not report["claims"]["FINAL"]["holds"]
    assert not report["is_petersen"]
    assert report["claims"]["PROP4"]["holds"]


def test_premise_witness_is_the_first_failing_matching(prism, bridged8, triple_edge):
    # matchings are tried in enumeration order; the witness is the first
    # whose 2-factor has a cycle other than a 5-cycle
    assert verify_claims(prism)["premise_witness"] == {"matching": [0, 3, 8], "spectrum": [6]}
    assert verify_claims(bridged8)["premise_witness"] == {
        "matching": [2, 4, 7, 10],
        "spectrum": [3, 5],
    }
    assert verify_claims(triple_edge)["premise_witness"] == {"matching": [0], "spectrum": [2]}


def test_premise_witness_without_a_perfect_matching(no_perfect_matching10):
    report = verify_claims(no_perfect_matching10)
    assert not report["premise_holds"]
    assert report["premise_witness"] == {"reason": "no perfect matching"}


def test_premise_failure_always_carries_a_matching_witness():
    for n in (4, 6, 8):
        for g in generate_cubic_graphs(n, allow_multi=True):
            report = verify_claims(g)
            if not report["premise_holds"] and report["premise_witness"] is not None:
                if "matching" in report["premise_witness"]:
                    spectrum = report["premise_witness"]["spectrum"]
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
        assert a["graph_certificate"] == b["graph_certificate"]
        assert {k: v["holds"] for k, v in a["claims"].items()} == {
            k: v["holds"] for k, v in b["claims"].items()
        }


def test_verify_claims_rejects_disconnected(two_k4s_disconnected_edges):
    g = CubicGraph(n=8, edges=tuple(two_k4s_disconnected_edges))
    with pytest.raises(CubicGraphError, match="^claim verification requires a connected graph$"):
        verify_claims(g)


def _final(g):
    result = verify_claims(g)["claims"]["FINAL"]
    return result["holds"], result["witness"]


def test_neighborhood_structure_on_petersen(petersen_graph):
    assert _final(petersen_graph) == (True, None)


def test_neighborhood_structure_preconditions(k33, heawood):
    assert _final(k33) == (False, {"girth": 4})
    assert _final(heawood) == (False, {"girth": 6})  # no 5-cycles at all


def test_neighborhood_structure_fails_on_other_girth5_graphs():
    # every 12-vertex girth-5 cubic graph must fail some sub-check
    found = 0
    for g in generate_cubic_graphs(12):
        if girth(g) == 5:
            found += 1
            holds, witness = _final(g)
            assert not holds
            assert witness == neighborhood_structure_by_parts(g)[1]
            assert witness is not None
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
        assert _final(g) == expected
        holding += expected[0]
        # the half of the argument that the 3-edge-path scan does not
        # test: no 2-edge path lies on more than two 5-cycles
        nbr = [set(row) for row in g.neighbor_lists]
        assert all(
            count_five_cycles_through_path(nbr, u, v, w) <= 2
            for u, v, w in two_edge_paths(g)
        )
    assert holding == 21  # the Petersen graph and its relabelings, nothing else


def test_report_json_shape(
    tmp_path,
    capsys,
    petersen_graph,
    k4,
    k33,
    prism,
    triple_edge,
    bridged8,
    heawood,
    no_perfect_matching10,
):
    # the library's report is the JSON that verify prints: same keys, same
    # values, JSON types only, and valid against the published schema
    payload = verify_claims(petersen_graph)
    assert payload["is_petersen"] is True
    assert set(payload["claims"]) == set(CLAIM_IDS)
    assert payload["graph_certificate"] == canonical_form(petersen_graph)
    named = (k4, k33, prism, triple_edge, bridged8, heawood, no_perfect_matching10)
    for i, g in enumerate((petersen_graph, *named)):
        report = verify_claims(g)
        jsonschema.validate(report, SCHEMA)
        path = tmp_path / f"{i}.txt"
        path.write_text(emit_edgelist(g))
        code = main(["verify", "-i", str(path), "--format", "edgelist", "--output", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == report


def test_the_schema_rejects_hand_broken_cut_witnesses(bridged8):
    report = verify_claims(bridged8)
    jsonschema.validate(report, SCHEMA)
    no_side = json.loads(json.dumps(report))
    del no_side["claims"]["C7"]["witness"]["side"]
    held_with_witness = json.loads(json.dumps(report))
    held_with_witness["claims"]["C6"]["holds"] = True
    for broken in (no_side, held_with_witness):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(broken, SCHEMA)


def test_verify_claims_builds_the_cut_labels_once_per_graph(monkeypatch, bridged8, prism):
    # bridged8 asks every cut question: connectivity, edge connectivity, a
    # C6 witness cut, the 3-edge cuts and a C7 witness side; prism all but C6's
    real = cubicscan.connectivity._build_cycle_labels
    built = []

    def counted(g):
        built.append(g)
        return real(g)

    monkeypatch.setattr(cubicscan.connectivity, "_build_cycle_labels", counted)
    graphs = [from_edge_list(g.n, g.edges) for g in (bridged8, prism, petersen())]
    reports = [verify_claims(g) for g in graphs]
    assert reports[0]["claims"]["C6"]["witness"] is not None
    assert all(report["claims"]["C7"]["witness"] is not None for report in reports[:2])
    assert [id(g) for g in built] == [id(g) for g in graphs]


def test_verify_builds_petersen_only_for_ten_vertices(monkeypatch, petersen_graph, prisms):
    real = cubicscan.verifier.petersen
    calls = []

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(cubicscan.verifier, "petersen", counted)
    assert not verify_claims(prisms[8])["is_petersen"]
    assert prisms[8].n == 16 and calls == []
    assert verify_claims(petersen_graph)["is_petersen"]
    assert calls == [1]
