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
        disconnected = request.getfixturevalue("two_k4s_disconnected_edges")
        edges = "".join(f"{u} {v}\n" for u, v in disconnected)
        return [
            (["verify", "--format", "edgelist"], f"8 12\n{edges}"),
            (["verify", "--format", "sparse6"], ":not a graph\n"),
        ]
    raise AssertionError(f"unknown family {family}")


@pytest.mark.parametrize("family", sorted(PINNED))
def test_command_family_output_is_pinned(family, request, monkeypatch, capsys):
    digest = hashlib.sha256()
    for argv, stdin in _family_runs(family, request):
        digest.update(_transcript(monkeypatch, capsys, argv, stdin))
    assert digest.hexdigest() == PINNED[family], (
        f"the output of family {family!r} changed; its digest is now {digest.hexdigest()}"
    )
