"""Acceptance gate: the ten headline checks, one test per criterion.

Each test prints a PASS line straight to the terminal (bypassing
capture) once its assertions have gone through, so a verbose run reads
as a checklist. Expected values are pinned from the brute-force oracles
in oracles.py; every tolerance is exact.
"""

import json
import time
from itertools import combinations

import pytest

from cubicscan.cli import main
from cubicscan.connectivity import (
    bridges,
    edge_connectivity,
    enumerate_3_edge_cuts,
    girth,
)
from cubicscan.enumeration import generate_cubic_graphs
from cubicscan.formats import emit_sparse6, parse_sparse6
from cubicscan.graphs import (
    CubicGraph,
    canonical_form,
    from_edge_list,
    is_isomorphic,
    petersen,
)
from cubicscan.matching import (
    all_two_factors_are_five_cycles,
    complementary_two_factor,
    cycle_spectrum,
    enumerate_perfect_matchings,
    two_factor_spectra,
)
from cubicscan.verifier import verify_claims
from oracles import (
    brute_3_cut_edge_sets,
    brute_edge_connectivity,
    brute_perfect_matchings,
    c8_by_enumeration,
    dfs_is_canonical_labeling,
    isomorphism_classes,
    tutte_condition,
)


def _announce(capsys, number: int, text: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} PASS: {text}")


def _bridgeless(graphs):
    return [g for g in graphs if not bridges(g)]


@pytest.fixture(scope="module")
def simple_graphs():
    return {n: list(generate_cubic_graphs(n)) for n in (4, 6, 8, 10, 12)}


@pytest.fixture(scope="module")
def multi_graphs():
    return {n: list(generate_cubic_graphs(n, allow_multi=True)) for n in (2, 4, 6, 8, 10)}


def test_criterion_01_main_theorem_scan_to_14(capsys):
    started = time.monotonic()
    code = main(["scan", "--n-max", "14", "--output", "json"])
    elapsed = time.monotonic() - started
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["n_range"] == [4, 6, 8, 10, 12, 14]
    generated = {n: stats["generated"] for n, stats in payload["per_n"].items()}
    assert generated == {"4": 1, "6": 2, "8": 5, "10": 19, "12": 85, "14": 509}
    positives = payload["positives"]
    assert len(positives) == 1
    assert positives[0]["n"] == 10
    assert positives[0]["is_petersen"] is True
    for n in ("4", "6", "8", "12", "14"):
        assert payload["per_n"][n]["premise_positive"] == []
    assert is_isomorphic(parse_sparse6(positives[0]["sparse6"]), petersen())
    assert elapsed < 600
    _announce(
        capsys,
        1,
        f"scan to n=14 found exactly the Petersen graph ({elapsed:.0f}s)",
    )


def test_criterion_02_petersen_profile(capsys):
    g = petersen()
    matchings = enumerate_perfect_matchings(g)
    assert len(matchings) == 6
    assert set(matchings) == brute_perfect_matchings(g)
    for m in matchings:
        assert cycle_spectrum(complementary_two_factor(g, m)) == (5, 5)
    assert girth(g) == 5
    assert edge_connectivity(g) == 3
    assert brute_edge_connectivity(g) == 3
    cuts = enumerate_3_edge_cuts(g)
    assert len(cuts) == 10
    stars = {frozenset(eid for _, eid in row) for row in g.adjacency}
    assert {frozenset(cut) for cut in cuts} == brute_3_cut_edge_sets(g) == stars
    _announce(capsys, 2, "Petersen profile: 6 matchings, {5,5} spectra, 10 star cuts")


def _rooted_labeled_simple_cubic(n):
    """All labeled connected simple cubic graphs with N(0) = {1,2,3}.

    Every isomorphism class has such a labeling (map any vertex to 0 and
    its neighbors to 1,2,3), so filtering for canonically labeled
    graphs yields exactly one representative per class, independently
    of the orderly generator's pruning.
    """
    deg = [0] * n
    blocks: list[tuple[int, ...] | None] = [None] * n
    out = []

    def connected(edges):
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    def fill(t):
        if t == n:
            edges = tuple((u, v) for u, blk in enumerate(blocks) for v in blk)
            if connected(edges):
                out.append(edges)
            return
        need = 3 - deg[t]
        candidates = [w for w in range(t + 1, n) if deg[w] < 3]
        if need > len(candidates):
            return
        for combo in combinations(candidates, need):
            for w in combo:
                deg[w] += 1
            blocks[t] = combo
            fill(t + 1)
            blocks[t] = None
            for w in combo:
                deg[w] -= 1

    deg[1] = deg[2] = deg[3] = 1
    blocks[0] = (1, 2, 3)
    fill(1)
    return out


def test_criterion_03_petersen_uniqueness_among_19(capsys, simple_graphs):
    generated = simple_graphs[10]
    assert len(generated) == 19
    naive = {
        edges
        for edges in _rooted_labeled_simple_cubic(10)
        if dfs_is_canonical_labeling(CubicGraph(n=10, edges=edges))
    }
    assert naive == {g.edges for g in generated}
    girth_five = [g for g in generated if girth(g) == 5]
    assert len(girth_five) == 1
    assert is_isomorphic(girth_five[0], petersen())
    reports = [verify_claims(g) for g in generated]
    assert all(report["claims"]["PROP4"]["holds"] for report in reports)
    assert sum(report["is_petersen"] for report in reports) == 1
    _announce(capsys, 3, "19 cubic graphs on 10 vertices, one of girth 5: Petersen")


def test_criterion_04_tutte_oracle_equivalence(capsys, simple_graphs, multi_graphs):
    checked = 0
    for corpus in (simple_graphs, multi_graphs):
        for graphs in corpus.values():
            for g in graphs:
                has_matching = bool(enumerate_perfect_matchings(g))
                satisfied_everywhere = all(
                    tutte_condition(
                        g, {v for v in range(g.n) if mask >> v & 1}
                    ).satisfied
                    for mask in range(1 << g.n)
                )
                assert has_matching == satisfied_everywhere, g.edges
                checked += 1
    _announce(capsys, 4, f"Tutte equivalence over all 2^n subsets on {checked} graphs")


def test_criterion_05_edge_corollaries(capsys, simple_graphs, multi_graphs):
    checked = 0
    for corpus in (simple_graphs, multi_graphs):
        for graphs in corpus.values():
            for g in _bridgeless(graphs):
                matchings = enumerate_perfect_matchings(g)
                for eid in range(len(g.edges)):
                    assert any(eid in m for m in matchings), (g.edges, eid)
                    assert any(eid not in m for m in matchings), (g.edges, eid)
                checked += 1
    _announce(capsys, 5, f"per-edge matching corollaries on {checked} bridgeless graphs")


def test_criterion_06_claim8_and_double_five_cycles_on_petersen(capsys):
    g = petersen()
    nbr = [set(row) for row in g.neighbor_lists]
    three_paths = sum(1 for v, w in g.edges for u in nbr[v] - {w} for x in nbr[w] - {v, u})
    assert three_paths == 60
    c8 = verify_claims(g)["claims"]["C8"]
    assert c8 == c8_by_enumeration(g)
    assert c8["holds"]

    def five_cycles_through(u, v, w):
        cycles = set()
        for x in nbr[w] - {u, v}:
            for y in nbr[u] - {v, w, x}:
                if x in nbr[y]:
                    cycles.add(frozenset({u, v, w, x, y}))
        return len(cycles)

    two_paths = 0
    for v in range(g.n):
        for u, w in combinations(sorted(nbr[v]), 2):
            assert five_cycles_through(u, v, w) >= 2
            two_paths += 1
    assert two_paths == 30
    _announce(capsys, 6, "all 60 3-edge paths extend; all 30 2-edge paths in two 5-cycles")


def test_criterion_07_intro_facts(capsys, simple_graphs, multi_graphs):
    pair_checked = 0
    for corpus in (simple_graphs, multi_graphs):
        for graphs in corpus.values():
            for g in _bridgeless(graphs):
                matchings = enumerate_perfect_matchings(g)
                for eid, fid in combinations(range(len(g.edges)), 2):
                    assert any(eid not in m and fid not in m for m in matchings), (g.edges, eid, fid)
                    pair_checked += 1
    triangle_free_checked = 0
    for graphs in simple_graphs.values():
        for g in _bridgeless(graphs):
            assert any(s[0] >= 4 for s in two_factor_spectra(g)), g.edges
            triangle_free_checked += 1
    _announce(
        capsys,
        7,
        f"2-factors through all {pair_checked} edge pairs; "
        f"triangle-free 2-factors on {triangle_free_checked} simple graphs",
    )


def test_criterion_08_multigraph_claim1_consistency(capsys, multi_graphs):
    checked = 0
    for graphs in multi_graphs.values():
        for g in _bridgeless(graphs):
            if not g.has_parallel_edges:
                continue
            assert not all_two_factors_are_five_cycles(g), g.edges
            witness = None
            for m in enumerate_perfect_matchings(g):
                spectrum = cycle_spectrum(complementary_two_factor(g, m))
                if 2 in spectrum:
                    witness = m
                    break
            assert witness is not None, g.edges
            checked += 1
    assert checked > 0
    _announce(capsys, 8, f"{checked} bridgeless multigraphs all refuted with a 2-cycle factor")


def test_criterion_09_generation_completeness(capsys):
    for n, expected in ((4, 1), (6, 2), (8, 5)):
        generated = {g.edges for g in generate_cubic_graphs(n)}
        brute = isomorphism_classes(n, False)
        assert generated == brute
        assert len(generated) == expected
    for n in (2, 4, 6):
        generated = {g.edges for g in generate_cubic_graphs(n, allow_multi=True)}
        assert generated == isomorphism_classes(n, True)
    _announce(capsys, 9, "generator equals brute-force classes (1, 2, 5 simple; multi to n=6)")


def test_criterion_10_format_fidelity(capsys, triple_edge, k4, k33, prism, petersen_graph):
    corpus = {
        "petersen": petersen_graph,
        "k4": k4,
        "k33": k33,
        "prism": prism,
        "triple_edge": triple_edge,
    }
    for name, g in corpus.items():
        encoded = emit_sparse6(g)
        decoded = parse_sparse6(encoded)
        assert emit_sparse6(decoded) == encoded, name
        assert is_isomorphic(decoded, g), name
        # identity up to edge-id order
        assert sorted(decoded.edges) == sorted(g.edges), name
        again = emit_sparse6(parse_sparse6(emit_sparse6(decoded)))
        assert again == encoded, name
    _announce(capsys, 10, "sparse6 round-trips byte-exact on the named corpus")
