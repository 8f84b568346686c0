"""Pinned command outputs: one sha256 digest per command family.

Each family runs ``cli.main`` on a fixed set of inputs and hashes, per
run, the argument list, the exit code, stdout and stderr, with every
``elapsed_seconds`` value and the text ``elapsed ...s`` masked. The
digests live in ``outputs_pinned.json``. A change that alters an output
on purpose replaces the digest that the failure message prints, and
says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from cubicscan.cli import main
from cubicscan.enumeration import generate_cubic_graphs
from cubicscan.formats import emit_edgelist, emit_sparse6
from cubicscan.graphs import from_edge_list

PINNED = json.loads((Path(__file__).with_name("outputs_pinned.json")).read_text())

_ELAPSED_JSON = re.compile(r'("elapsed_seconds": )[-+0-9.eE]+')
_ELAPSED_TEXT = re.compile(r"elapsed [0-9.]+s")

NAMED_FIXTURES = (
    "triple_edge",
    "k4",
    "k33",
    "prism",
    "petersen_graph",
    "bridged8",
    "bridged10",
    "heawood",
    "prism15",
    "doubled_edge_ring",
    "no_perfect_matching10",
)


def _sparse6(g) -> str:
    return emit_sparse6(g).decode("ascii") + "\n"


def _generated(n_max: int, multi: bool) -> list[str]:
    return [
        _sparse6(g)
        for n in range(2 if multi else 4, n_max + 1, 2)
        for g in generate_cubic_graphs(n, allow_multi=multi)
    ]


def _transcript(monkeypatch, capsys, argv: list[str], stdin: str = "") -> bytes:
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    text = f"$ {' '.join(argv)}\nexit {code}\n--stdout--\n{captured.out}--stderr--\n{captured.err}"
    text = _ELAPSED_TEXT.sub("elapsed ...s", _ELAPSED_JSON.sub(r"\1...", text))
    return text.encode("utf-8")


def _verify_runs(inputs: list[str]) -> list[tuple[list[str], str]]:
    return [
        (["verify", "--output", output], text) for text in inputs for output in ("json", "text")
    ]


def _rejected_runs(request) -> list[tuple[list[str], str]]:
    """One run per message with which a command refuses its input or options.

    The file runs read from a temporary working directory, so the paths
    in their messages are the same on every machine."""
    disconnected = request.getfixturevalue("two_k4s_disconnected_edges")
    edges = "".join(f"{u} {v}\n" for u, v in disconnected)
    k4 = _sparse6(request.getfixturevalue("k4"))
    workdir = request.getfixturevalue("tmp_path")
    request.getfixturevalue("monkeypatch").chdir(workdir)
    (workdir / "non-ascii.s6").write_bytes("\u00e9\n".encode("utf-8"))
    return [
        (["verify", "--format", "edgelist"], f"8 12\n{edges}"),
        (["verify", "--format", "sparse6"], ":not a graph\n"),
        (["generate", "--n", "7"], ""),
        (["scan", "--n-max", "2"], ""),
        (["scan", "--n-max", "18"], ""),
        (["scan", "--n-max", "14", "--multi"], ""),
        (["scan"], ""),
        (["scan", "-i", "-", "--n-max", "10"], ""),
        (["scan", "-i", "-", "--multi"], ""),
        (["scan", "-i", "-"], ""),
        (["scan", "-i", "-"], k4 + k4),
        (["scan", "-i", "-"], _sparse6(from_edge_list(8, disconnected))),
        (["analyze"], f"8 12\n{edges}"),
        (["analyze"], "2 3\n0 0\n0 1\n1 1\n"),
        (["analyze"], "4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n"),
        (["analyze"], "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 4\n"),
        (["analyze"], "4 6\n0 1\n0 1\n0 2\n0 3\n1 2\n2 3\n"),
        (["analyze"], "3 1\n0 1\n"),
        (["analyze"], "4 6\n0 1\n"),
        (["analyze"], "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 x\n"),
        (["analyze", "--format", "edgelist"], "3 x\n"),
        (["analyze", "--format", "edgelist"], ""),
        (["analyze"], ":Cc\n"),
        (["analyze"], ":A?\n"),
        (["analyze"], ":?\n"),
        (["analyze", "--format", "sparse6"], "C\n"),
        (["analyze", "--format", "graph6"], ""),
        (["analyze"], "!\n"),
        (["analyze"], "C\n"),
        (["analyze"], "C!\n"),
        (["analyze"], "~A\n"),
        (["analyze"], "~AB!\n"),
        (["analyze", "--format", "graph6"], k4),
        (["analyze"], "~~\n"),
        (["analyze", "-i", "missing.s6"], ""),
        (["analyze", "-i", "non-ascii.s6"], ""),
        (["analyze", "-i", "-"], "\u00e9\n"),
        (["scan", "-i", "-"], "\u00e9\n"),
        (["scan", "-i", "-"], "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"),
    ]


def _family_runs(family: str, request) -> list[tuple[list[str], str]]:
    """The (argv, stdin) pairs of one command family."""
    if family == "verify-simple-n12":
        return _verify_runs(_generated(12, multi=False))
    if family == "verify-multi-n8":
        return _verify_runs(_generated(8, multi=True))
    if family == "verify-fixtures":
        fixtures = [request.getfixturevalue(name) for name in NAMED_FIXTURES]
        return _verify_runs([emit_edgelist(g) for g in fixtures])
    if family == "analyze-n10":
        return [(["analyze", "--output", "json"], text) for text in _generated(10, multi=True)]
    if family == "analyze-text-n10":
        return [(["analyze", "--output", "text"], text) for text in _generated(10, multi=True)]
    if family == "analyze-random-simple":
        graphs = request.getfixturevalue("random_simple_graphs")
        return [(["analyze", "--output", "json"], _sparse6(g)) for g in graphs]
    if family == "scan":
        return [
            (["scan", "--n-max", "10", "--output", "json"], ""),
            (["scan", "--n-max", "8", "--multi"], ""),
        ]
    if family == "scan-multi-j2":
        return [(["scan", "--n-max", "10", "--multi", "--jobs", "2", "--output", "json"], "")]
    if family == "scan-corpus":
        return [(["scan", "-i", "-"], "".join(_generated(10, multi=True)))]
    if family == "generate":
        return [(["generate", "--n", "10"], "")]
    if family == "generate-multi-n8":
        return [(["generate", "--n", "8", "--multi"], "")]
    if family == "rejected":
        return _rejected_runs(request)
    raise AssertionError(f"unknown family {family}")


@pytest.mark.parametrize("family", sorted(PINNED))
def test_command_family_output_is_pinned(family, request, monkeypatch, capsys):
    digest = hashlib.sha256()
    for argv, stdin in _family_runs(family, request):
        digest.update(_transcript(monkeypatch, capsys, argv, stdin))
    assert digest.hexdigest() == PINNED[family], (
        f"the output of family {family!r} changed; its digest is now {digest.hexdigest()}"
    )


def test_json_reports_are_the_standard_library_dump(request, monkeypatch, capsys):
    # every pinned JSON report, and a scan -i one, as json.dumps writes its parse
    runs = [
        run
        for family in sorted(PINNED)
        for run in _family_runs(family, request)
        if "json" in run[0]
    ]
    runs.append((["scan", "-i", "-", "--output", "json"], "".join(_generated(10, multi=True))))
    kinds = set()
    for argv, stdin in runs:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", argv
        kinds.add((argv[0], "-i" in argv))
    assert kinds == {("analyze", False), ("verify", False), ("scan", False), ("scan", True)}
