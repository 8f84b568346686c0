"""Tests of the benchmark itself: seeded corpora and output checkers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from cubicscan import cli  # noqa: E402

SCHEMA = checks.SchemaCheck(ROOT / "docs" / "report-schema.json")


def corpus_bytes(build, seed: int, directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in inputs.write_corpus(build(seed), directory)}


@pytest.mark.parametrize("build", [inputs.verify_corpus, inputs.analyze_corpus])
def test_fixed_seed_gives_fixed_corpus(build, tmp_path):
    first = corpus_bytes(build, 7, tmp_path / "a")
    assert first == corpus_bytes(build, 7, tmp_path / "b")
    assert first != corpus_bytes(build, 8, tmp_path / "c")


def test_verify_corpus_covers_every_edge_connectivity():
    graphs = inputs.verify_corpus(3)
    facts = {g.name: checks.graph_facts(g) for g in graphs}
    assert facts["petersen"].is_petersen
    for name, f in facts.items():
        want = {"random3ec": 3, "glued": 2, "bridged": 1, "multi": 2, "petersen": 3}[name.split("-")[0]]
        assert f.edge_connectivity == want, name
        assert f.has_parallel == name.startswith("multi")
        assert f.edge_connectivity == inputs.edge_connectivity(f.n, f.edges)
    invariants = {inputs.invariant(g.n, g.edges) for g in graphs}
    assert len(invariants) == len(graphs)


def test_analyze_corpus_is_distinct_simple_and_connected():
    graphs = inputs.analyze_corpus(3)
    assert len({inputs.invariant(g.n, g.edges) for g in graphs}) == len(graphs)
    for g in graphs:
        assert len(set(g.edges)) == len(g.edges) == 3 * g.n // 2
        assert inputs.connected(g.n, g.edges)


def run_cli(argv: list[str]) -> tuple[dict, int]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return json.loads(out.getvalue()), code


def graph_report(command: str, g: inputs.CorpusGraph, tmp_path: Path) -> tuple[dict, int]:
    path = tmp_path / f"{g.name}.txt"
    path.write_text(inputs.edgelist_text(g.n, g.edges), encoding="ascii")
    return run_cli([command, "--input", str(path), "--format", "edgelist", "--output", "json"])


def assert_rejects(check, report: dict, code: int, corrupt) -> None:
    assert SCHEMA(report) == [] and check(report, code) == []
    bad = copy.deepcopy(report)
    bad_code = corrupt(bad)
    assert SCHEMA(bad) + check(bad, code if bad_code is None else bad_code) != []


def set_key(path: list, value):
    def corrupt(report: dict) -> None:
        target = report
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return corrupt


@pytest.fixture(scope="module")
def scan_report():
    return run_cli(["scan", "--n-max", "10", "--output", "json"])


@pytest.mark.parametrize(
    "corrupt",
    [
        set_key(["per_n", "10", "generated"], 18),
        set_key(["positives", 0, "is_petersen"], False),
        set_key(["positives", 0, "sparse6"], "not-sparse6"),
        set_key(["positives"], []),
        set_key(["unexpected"], 1),
        lambda report: 1,
    ],
)
def test_scan_check_rejects_corruption(scan_report, corrupt):
    report, code = scan_report
    assert_rejects(lambda r, c: checks.check_scan(r, c, 10, False), report, code, corrupt)


ANALYZE_CORRUPTIONS = [
    set_key(["girth"], 4),
    set_key(["edge_connectivity"], 2),
    set_key(["bridges"], [0]),
    set_key(["perfect_matching_count"], 7),
    set_key(["two_factor_spectra", 0, "spectrum"], [4, 5]),
    set_key(["all_two_factors_are_five_cycles"], False),
    set_key(["n"], "10"),
]


@pytest.mark.parametrize("corrupt", ANALYZE_CORRUPTIONS)
def test_analyze_check_rejects_corruption(corrupt, tmp_path):
    petersen = inputs.verify_corpus(1)[0]
    report, code = graph_report("analyze", petersen, tmp_path)
    facts = checks.graph_facts(petersen)
    assert_rejects(lambda r, c: checks.check_analyze(r, c, facts), report, code, corrupt)


VERIFY_CORRUPTIONS = [
    set_key(["premise_holds"], False),
    set_key(["is_petersen"], False),
    set_key(["claims", "C5", "holds"], False),
    set_key(["claims", "C6", "holds"], False),
    set_key(["claims", "C2", "holds"], False),
    set_key(["claims", "C3", "holds"], False),
    set_key(["claims", "C7", "holds"], False),
    set_key(["claims", "C8", "holds"], False),
    set_key(["claims", "FINAL", "holds"], False),
    set_key(["claims", "C1"], {"holds": "yes", "witness": None}),
]


@pytest.mark.parametrize("corrupt", VERIFY_CORRUPTIONS)
def test_verify_check_rejects_corruption(corrupt, tmp_path):
    petersen = inputs.verify_corpus(1)[0]
    report, code = graph_report("verify", petersen, tmp_path)
    facts = checks.graph_facts(petersen, claims=True)
    assert_rejects(lambda r, c: checks.check_verify(r, c, facts), report, code, corrupt)


def test_verify_check_rejects_wrong_cut_witness(tmp_path):
    bridged = next(g for g in inputs.verify_corpus(1) if g.name == "bridged-n14")
    report, code = graph_report("verify", bridged, tmp_path)
    facts = checks.graph_facts(bridged, claims=True)
    non_bridge = next(e for e in range(len(bridged.edges)) if e not in facts.bridges)
    assert_rejects(
        lambda r, c: checks.check_verify(r, c, facts),
        report,
        code,
        set_key(["claims", "C6", "witness", "cut"], [non_bridge]),
    )


def cut_graph_report(tmp_path: Path):
    glued = next(g for g in inputs.verify_corpus(1) if g.name == "glued-n14")
    report, code = graph_report("verify", glued, tmp_path)
    return report, code, checks.graph_facts(glued, claims=True)


@pytest.mark.parametrize(
    "corrupt",
    [
        set_key(["claims", "C7", "holds"], True),
        set_key(["claims", "C7", "witness", "side"], [0]),
        set_key(["claims", "C7", "witness", "cut_edges"], [0, 1, 2]),
        set_key(["claims", "C8", "holds"], True),
    ],
)
def test_verify_check_rejects_wrong_cut_claims(corrupt, tmp_path):
    report, code, facts = cut_graph_report(tmp_path)
    assert facts.has_nonstar_3_cut and not facts.paths_extend
    assert_rejects(lambda r, c: checks.check_verify(r, c, facts), report, code, corrupt)


def test_nonstar_3_cut_brute_force():
    # a triangle's three outgoing edges cut it off from the rest
    prism = ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5))
    assert checks.has_nonstar_3_cut(6, prism)
    k4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert not checks.has_nonstar_3_cut(4, k4)
    assert not checks.has_nonstar_3_cut(10, inputs.petersen_edges())
