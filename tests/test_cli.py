"""CLI surface: exit codes, formats, JSON schema validity, determinism."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import cubicscan.graphs
from cubicscan.cli import _json_text, build_parser, main
from cubicscan.enumeration import generate_cubic_graphs
from cubicscan.formats import emit_edgelist, emit_sparse6, parse_edgelist, parse_sparse6
from cubicscan.graphs import canonical_form, from_edge_list, is_isomorphic, relabeled

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text())


def _write(tmp_path, name, data):
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return str(path)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_analyze_petersen_edgelist(tmp_path, capsys, petersen_graph):
    path = _write(tmp_path, "petersen.txt", emit_edgelist(petersen_graph))
    code, payload = _run_json(
        capsys, ["analyze", "--input", path, "--format", "edgelist", "--output", "json"]
    )
    assert code == 0
    assert payload["perfect_matching_count"] == 6
    assert payload["two_factor_spectra"] == [{"spectrum": [5, 5], "count": 6}]
    assert payload["all_two_factors_are_five_cycles"] is True
    assert payload["girth"] == 5
    assert payload["edge_connectivity"] == 3
    assert payload["bridges"] == []


def test_analyze_k4_text(tmp_path, capsys, k4):
    path = _write(tmp_path, "k4.s6", emit_sparse6(k4) + b"\n")
    code = main(["analyze", "--input", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "perfect matchings   3" in out
    assert "{4} x3" in out
    assert "all 2-factors 5-cycles  no" in out


def test_analyze_text_and_json_carry_the_same_facts(tmp_path, capsys, prism):
    path = _write(tmp_path, "prism.s6", emit_sparse6(prism) + b"\n")
    main(["analyze", "--input", path])
    text = capsys.readouterr().out
    _, payload = _run_json(capsys, ["analyze", "--input", path, "--output", "json"])
    assert f"vertices            {payload['n']}" in text
    assert f"girth               {payload['girth']}" in text
    assert f"edge connectivity   {payload['edge_connectivity']}" in text
    assert f"perfect matchings   {payload['perfect_matching_count']}" in text
    for entry in payload["two_factor_spectra"]:
        cycles = ",".join(str(c) for c in entry["spectrum"])
        assert f"{{{cycles}}} x{entry['count']}" in text


def test_analyze_without_a_perfect_matching_fails_the_premise(
    tmp_path, capsys, no_perfect_matching10
):
    path = _write(tmp_path, "npm.txt", emit_edgelist(no_perfect_matching10))
    code, payload = _run_json(
        capsys, ["analyze", "--input", path, "--format", "edgelist", "--output", "json"]
    )
    assert code == 0
    assert payload["perfect_matching_count"] == 0
    assert payload["two_factor_spectra"] == []
    assert payload["all_two_factors_are_five_cycles"] is False


def test_analyze_rejects_non_cubic_with_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", "4 2\n0 1\n2 3\n")
    code = main(["analyze", "--input", path, "--format", "edgelist"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_analyze_rejects_disconnected_graph_before_enumerating(tmp_path, capsys):
    # two disjoint 40-vertex prisms: enumerating their perfect matchings first took minutes
    k = 20
    prism = [(i, i + k) for i in range(k)] + [(i, (i + 1) % k) for i in range(k)]
    prism += [(i + k, (i + 1) % k + k) for i in range(k)]
    twins = from_edge_list(4 * k, prism + [(u + 2 * k, v + 2 * k) for u, v in prism])
    path = _write(tmp_path, "twins.s6", emit_sparse6(twins) + b"\n")
    start = time.perf_counter()
    code = main(["analyze", "--input", path])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "cubicscan: error: edge connectivity requires a connected graph\n"
    assert captured.out == ""
    assert elapsed < 1.0


def test_verify_petersen(tmp_path, capsys, petersen_graph):
    path = _write(tmp_path, "p.s6", emit_sparse6(petersen_graph) + b"\n")
    code, payload = _run_json(capsys, ["verify", "--input", path, "--output", "json"])
    assert code == 0
    assert payload["is_petersen"] is True
    assert payload["premise_holds"] is True
    assert all(entry["holds"] for entry in payload["claims"].values())


def test_verify_prism_text_shows_c7_witness(tmp_path, capsys, prism):
    path = _write(tmp_path, "prism.s6", emit_sparse6(prism) + b"\n")
    code = main(["verify", "--input", path])
    out = capsys.readouterr().out
    assert code == 0
    assert re.search(r"C7\s+FAILS", out)
    assert "is_petersen   no" in out


def test_verify_30_vertex_prism_exits_zero(tmp_path, capsys, prism15):
    path = _write(tmp_path, "prism15.s6", emit_sparse6(prism15) + b"\n")
    code = main(["verify", "-i", path])
    out = capsys.readouterr().out
    assert code == 0
    assert re.search(r"C6\s+holds", out)
    assert re.search(r"C7\s+holds", out)


def test_verify_100_vertex_prism_exits_zero(tmp_path, capsys, prism50):
    # about 2.8e10 perfect matchings: C8 must not enumerate them
    path = _write(tmp_path, "prism50.s6", emit_sparse6(prism50) + b"\n")
    code = main(["verify", "-i", path])
    out = capsys.readouterr().out
    assert code == 0
    for claim in ("C6", "C7", "C8"):
        assert re.search(rf"{claim}\s+holds", out)


def test_benchmark_tracer_finds_every_name_it_wraps():
    # the tracer replaces module attributes by name, so a renamed one
    # would break every traced benchmark run
    script = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]; "
        "from tracing import Tracer; Tracer().install()"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_verify_bridged_flags_c6(tmp_path, capsys, bridged8):
    path = _write(tmp_path, "b8.s6", emit_sparse6(bridged8) + b"\n")
    code, payload = _run_json(capsys, ["verify", "--input", path, "--output", "json"])
    assert code == 0
    assert payload["claims"]["C6"]["holds"] is False


def test_scan_to_ten_exits_zero(capsys):
    code, payload = _run_json(capsys, ["scan", "--n-max", "10", "--output", "json"])
    assert code == 0
    assert len(payload["positives"]) == 1
    assert payload["positives"][0]["is_petersen"] is True


def test_scan_below_ten_exits_zero_with_no_positives(capsys):
    code, payload = _run_json(capsys, ["scan", "--n-max", "8", "--output", "json"])
    assert code == 0
    assert payload["positives"] == []


def test_scan_odd_bound_exits_two(capsys):
    code = main(["scan", "--n-max", "15"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_scan_corpus_file(tmp_path, capsys, petersen_graph, k4):
    lines = emit_sparse6(k4) + b"\n" + emit_sparse6(petersen_graph) + b"\n"
    path = _write(tmp_path, "corpus.s6", lines)
    code, payload = _run_json(
        capsys, ["scan", "--input", path, "--output", "json"]
    )
    assert code == 0
    assert payload["n_range"] == [4, 10]
    assert [p["is_petersen"] for p in payload["positives"]] == [True]


def test_scan_corpus_rejects_disconnected_graph_with_exit_2(tmp_path, capsys, petersen_graph):
    # two disjoint Petersen graphs satisfy the premise but are not connected
    shifted = [(u + 10, v + 10) for u, v in petersen_graph.edges]
    twins = from_edge_list(20, list(petersen_graph.edges) + shifted)
    path = _write(tmp_path, "twins.s6", emit_sparse6(twins) + b"\n")
    code = main(["scan", "--input", path])
    captured = capsys.readouterr()
    assert code == 2
    assert "connected" in captured.err
    assert "positive" not in captured.out


def test_scan_corpus_rejects_isomorphic_duplicates_with_exit_2(
    tmp_path, capsys, petersen_graph
):
    twin = relabeled(petersen_graph, [3, 7, 0, 9, 1, 5, 8, 2, 6, 4])
    lines = emit_sparse6(petersen_graph) + b"\n" + emit_sparse6(twin) + b"\n"
    path = _write(tmp_path, "twice.s6", lines)
    code = main(["scan", "--input", path])
    captured = capsys.readouterr()
    assert code == 2
    assert "duplicate" in captured.err
    assert "positive" not in captured.out


def test_scan_corpus_rejects_empty_corpus_with_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "empty.g6", "\n\n")
    code = main(["scan", "-i", path])
    captured = capsys.readouterr()
    assert code == 2
    assert "corpus has no graphs" in captured.err
    assert captured.out == ""


def test_scan_corpus_rejects_edgelist_format(tmp_path, capsys, k4):
    path = _write(tmp_path, "k4.txt", emit_edgelist(k4))
    with pytest.raises(SystemExit) as exc:
        main(["scan", "-i", path, "--format", "edgelist"])
    assert exc.value.code == 2


def test_scan_corpus_rejects_generation_options_with_exit_2(tmp_path, capsys, petersen_graph):
    path = _write(tmp_path, "petersen.s6", emit_sparse6(petersen_graph) + b"\n")
    for option in (["--n-max", "10"], ["--multi"]):
        code = main(["scan", "-i", path, *option])
        captured = capsys.readouterr()
        assert code == 2
        assert option[0] in captured.err
        assert captured.out == ""


def test_scan_json_deterministic(capsys):
    _, first = _run_json(capsys, ["scan", "--n-max", "8", "--output", "json"])
    _, second = _run_json(capsys, ["scan", "--n-max", "8", "--output", "json"])

    def strip(payload):
        payload.pop("elapsed_seconds")
        for stats in payload["per_n"].values():
            stats.pop("elapsed_seconds")
        return payload

    assert json.dumps(strip(first), sort_keys=True) == json.dumps(
        strip(second), sort_keys=True
    )


def test_generate_counts(capsys):
    assert main(["generate", "--n", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert main(["generate", "--n", "6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert main(["generate", "--n", "6", "--multi"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_generate_odd_exits_two(capsys):
    code = main(["generate", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_generate_output_parses_back(capsys, tmp_path):
    main(["generate", "--n", "6"])
    corpus = capsys.readouterr().out
    path = _write(tmp_path, "n6.s6", corpus)
    code, payload = _run_json(capsys, ["scan", "--input", path, "--output", "json"])
    assert code == 0
    assert payload["per_n"]["6"]["generated"] == 2


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # the reader is closed before the child has imported the package, so
    # its first write or its flush meets a broken pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "cubicscan.cli", "generate", "--n", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""


def test_closed_stdout_in_process_leaves_no_descriptor_open(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        before = len(os.listdir("/proc/self/fd"))
        assert main(["generate", "--n", "10"]) == 141
        assert len(os.listdir("/proc/self/fd")) == before


def test_scan_without_n_max_or_input_exits_two(capsys):
    assert main(["scan"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "cubicscan: error: scan requires --n-max\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "error",
    [RuntimeError("boom"), MemoryError(), ValueError("boom")],
    ids=["RuntimeError", "MemoryError", "ValueError"],
)
def test_internal_error_exits_two_with_its_traceback(capsys, monkeypatch, petersen_graph, error):
    # exit 1 is the scan's verdict alone: an exception that no command
    # expects is a usage-class failure, and its traceback stays visible
    import io

    def fail(g):
        raise error

    monkeypatch.setattr("cubicscan.cli.verifier.verify_claims", fail)
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_edgelist(petersen_graph)))
    assert main(["verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert type(error).__name__ in captured.err


def test_internal_error_frees_its_frames_before_the_traceback(capsys, monkeypatch, petersen_graph):
    # after a MemoryError the printer needs what the failed command held
    import io
    import weakref

    class Held:
        pass

    refs = []

    def fail(g):
        held = Held()
        refs.append(weakref.ref(held))
        raise MemoryError

    alive_at_print = []

    def excepthook(*exc_info):
        alive_at_print.append(refs[0]() is not None)
        sys.__excepthook__(*exc_info)

    monkeypatch.setattr("cubicscan.cli.verifier.verify_claims", fail)
    monkeypatch.setattr("sys.excepthook", excepthook)
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_edgelist(petersen_graph)))
    assert main(["verify"]) == 2
    assert alive_at_print == [False]
    err = capsys.readouterr().err
    assert ", in fail\n" in err
    assert "cubicscan: error: internal error: MemoryError" in err


def test_analyze_memory_does_not_follow_the_matching_count(tmp_path, capsys):
    # the 40-vertex prism has 15,129 perfect matchings; analyze keeps only
    # their distinct spectra
    import tracemalloc

    from conftest import _k_prism

    path = _write(tmp_path, "prism40.s6", emit_sparse6(_k_prism(20)) + b"\n")
    tracemalloc.start()
    try:
        code = main(["analyze", "-i", path, "--output", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["perfect_matching_count"] == 15129
    assert peak < 1 << 20


def test_stdin_input(capsys, monkeypatch, petersen_graph):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(emit_edgelist(petersen_graph)))
    code = main(["analyze", "--format", "edgelist"])
    out = capsys.readouterr().out
    assert code == 0
    assert "perfect matchings   6" in out


def test_known_canonical_forms_are_not_searched_again(capsys, monkeypatch, petersen_graph):
    # petersen() and the generator store their canonical forms, so verify on
    # Petersen searches only the parsed graph, and the scan searches nothing
    import io

    real = cubicscan.graphs._lexmin_blocks
    searches = []

    def counted(n, adj):
        searches.append(n)
        return real(n, adj)

    monkeypatch.setattr(cubicscan.graphs, "_lexmin_blocks", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_edgelist(petersen_graph)))
    assert main(["verify", "--format", "edgelist", "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["is_petersen"]
    assert searches == [10]
    searches.clear()
    assert main(["scan", "--n-max", "10", "--output", "json"]) == 0
    assert [p["is_petersen"] for p in json.loads(capsys.readouterr().out)["positives"]] == [True]
    assert searches == []


def test_reported_certificates_are_the_canonical_forms_of_the_parsed_graphs(
    capsys, monkeypatch, petersen_graph, prism, bridged8
):
    # stored or searched, a certificate in a report is canonical_form of the
    # graph its input parses to, so the same class prints the same text
    import io
    import random

    rng = random.Random(5)

    def shuffled(g):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return relabeled(g, perm)

    for g in (petersen_graph, shuffled(petersen_graph), prism, bridged8):
        text = emit_edgelist(g)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        _, report = _run_json(capsys, ["verify", "--format", "edgelist", "--output", "json"])
        assert report["graph_certificate"] == canonical_form(parse_edgelist(text))
    corpus = "".join(
        emit_sparse6(shuffled(g)).decode("ascii") + "\n" for g in generate_cubic_graphs(10)
    )
    for argv, stdin in (
        (["scan", "--n-max", "10", "--output", "json"], ""),
        (["scan", "-i", "-", "--output", "json"], corpus),
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        _, report = _run_json(capsys, argv)
        assert [p["n"] for p in report["positives"]] == [10]
        for positive in report["positives"]:
            parsed = parse_sparse6(positive["sparse6"])
            assert positive["certificate"] == canonical_form(parsed)
            assert positive["certificate"] == canonical_form(petersen_graph)


def test_graph6_input_reads_as_its_sparse6_line(capsys, monkeypatch, petersen_graph):
    # graph6 lines written by networkx, not by this package, for the 19
    # simple classes at n = 10: every command reads them as it reads sparse6
    import io

    import networkx as nx

    elapsed = re.compile(r'("elapsed_seconds": )[-+0-9.eE]+')

    def graph6(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        return nx.to_graph6_bytes(h, nodes=range(g.n), header=False).decode("ascii")

    def run(argv, stdin):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        return code, elapsed.sub(r"\1...", capsys.readouterr().out)

    classes = list(generate_cubic_graphs(10))
    assert len(classes) == 19
    lines = {
        "graph6": [graph6(g) for g in classes],
        "sparse6": [emit_sparse6(g).decode("ascii") + "\n" for g in classes],
    }
    assert not any(line.startswith(":") for line in lines["graph6"])
    scan = ["scan", "-i", "-", "--output", "json"]
    expected = run(scan, "".join(lines["sparse6"]))
    assert expected[0] == 0 and '"is_petersen": true' in expected[1]
    for fmt in ("auto", "graph6"):
        assert run([*scan, "--format", fmt], "".join(lines["graph6"])) == expected, fmt

    (index,) = [i for i, g in enumerate(classes) if is_isomorphic(g, petersen_graph)]
    for command in ("verify", "analyze"):
        for output in ("text", "json"):
            argv = [command, "-i", "-", "--output", output]
            expected = run(argv, lines["sparse6"][index])
            assert expected[0] == 0
            for fmt in ("auto", "graph6"):
                got = run([*argv, "--format", fmt], lines["graph6"][index])
                assert got == expected, (command, output, fmt)


def test_non_ascii_digits_in_a_stdin_edge_list_exit_two(capsys, monkeypatch):
    # the fullwidth header reads as "4 6" to int(); an edge list on stdin
    # is rejected as the same bytes are with --format auto
    import io

    text = "\uff14 \uff16\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    for command in ("analyze", "verify"):
        errors = []
        for fmt in ("auto", "edgelist"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main([command, "-i", "-", "--format", fmt]) == 2, (command, fmt)
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[1] == errors[0] == (
            "cubicscan: error: 'ascii' codec can't encode character '\\uff14' in "
            "position 0: ordinal not in range(128)\n"
        )


def test_size_byte_below_63_exits_two(capsys, monkeypatch):
    import io

    for line in ("0\n", ":0\n"):
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        assert main(["analyze"]) == 2
        assert "size byte 48" in capsys.readouterr().err


def test_truncated_size_field_exits_two(capsys, monkeypatch):
    import io

    for line in ("~\n", "~??\n", ":~\n", ":~?\n"):
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        assert main(["analyze"]) == 2
        assert "extended size field is truncated" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    code = main(["analyze", "--input", "/nonexistent/path.g6"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_scan_with_explicit_jobs(capsys):
    code, payload = _run_json(capsys, ["scan", "--n-max", "6", "--jobs", "2", "--output", "json"])
    assert code == 0
    assert payload["per_n"]["6"]["generated"] == 2


def test_scan_jobs_flag_changes_nothing(capsys):
    def scan(jobs):
        _, payload = _run_json(capsys, ["scan", "--n-max", "8", "--jobs", jobs, "--output", "json"])
        payload.pop("elapsed_seconds")
        for stats in payload["per_n"].values():
            stats.pop("elapsed_seconds")
        return payload

    assert scan("2") == scan("1")


def test_one_parser_serves_every_command_of_a_process(capsys):
    # main reuses one parser per process: no value of one call's namespace
    # (--multi) and no state of a usage error may reach the next call
    assert build_parser() is build_parser()
    elapsed = re.compile(r'("elapsed_seconds": )[-+0-9.eE]+')
    argv = ["scan", "--n-max", "10", "--output", "json"]
    assert main(["scan", "--n-max", "10", "--multi", "--output", "json"]) == 0
    with pytest.raises(SystemExit) as usage:
        main(["verify", "--output", "xml"])
    assert usage.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    in_process = capsys.readouterr().out
    fresh = subprocess.run(
        [sys.executable, "-m", "cubicscan.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert elapsed.sub(r"\1...", in_process) == elapsed.sub(r"\1...", fresh.stdout)


def test_scan_exit_code_flags_unexpected_positives():
    # no real graph can trigger exit 1 (that is the point of the scan),
    # so exercise the contract on synthetic reports
    from cubicscan.cli import EXIT_FALSIFIED, EXIT_OK, _scan_exit_code

    rogue = {"n": 12, "certificate": "x", "sparse6": ":x", "is_petersen": False}
    petersen = {"n": 10, "certificate": "p", "sparse6": ":p", "is_petersen": True}

    def report(positives, n_range=(12,)):
        # the verdict reads only the positives and the vertex counts scanned
        return {"n_range": list(n_range), "positives": list(positives)}

    assert _scan_exit_code(report((rogue,)), from_corpus=False) == EXIT_FALSIFIED
    assert _scan_exit_code(report((rogue,)), from_corpus=True) == EXIT_FALSIFIED
    # a corpus without any positive is unremarkable; an internal scan
    # reaching n >= 10 without finding the expected graph is not
    assert _scan_exit_code(report(()), from_corpus=True) == EXIT_OK
    assert _scan_exit_code(report(()), from_corpus=False) == EXIT_FALSIFIED
    # a generated scan expects exactly one positive, Petersen, once it
    # reaches n = 10, and none below; a corpus only needs every positive
    # to be Petersen
    reaches_10 = (4, 6, 8, 10, 12)
    below_10 = (4, 6, 8)
    table = [
        (False, reaches_10, (petersen,), EXIT_OK),
        (False, reaches_10, (petersen, petersen), EXIT_FALSIFIED),
        (False, below_10, (), EXIT_OK),
        (False, below_10, (petersen,), EXIT_FALSIFIED),
        (True, (10,), (petersen,), EXIT_OK),
        (True, below_10, (petersen,), EXIT_OK),
        (True, (10, 12), (petersen, rogue), EXIT_FALSIFIED),
        (True, below_10, (petersen, rogue), EXIT_FALSIFIED),
    ]
    for from_corpus, n_range, positives, expected in table:
        code = _scan_exit_code(report(positives, n_range), from_corpus=from_corpus)
        assert code == expected, (from_corpus, n_range, positives)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}]},
        [[[]], [{}]],
        'quote " backslash \\ slash /',
        "control \x00\x01\x1f\t\n\r\b\f\x7f",
        "non-ASCII \u00e9 \u6f22 \U0001f600",
        {"\u00e9": 1, "e": 2, "E": 3, "": 4, "\n": 5},
        [0, -1, -(10**30), 2**64, 10**100],
        [True, False, None],
        {"true": True, "false": False, "null": None},
        [0.1, 1e-07, 1e22, -0.0, 1.5e300, round(2 / 3, 6), round(1e-07, 6)],
        [float("nan"), float("inf"), float("-inf")],
        {"z": [1, {"y": [2.5, "x", None]}], "a": {"b": {"c": []}}},
    ],
)
def test_json_writer_equals_the_standard_library(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [(), (1, 2), [1, (2,)], {"a": (1,)}, {1: "a"}, {1, 2}, b"x"])
def test_json_writer_rejects_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        _json_text(value)
