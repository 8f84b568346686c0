"""Command-line interface.

Subcommands: ``analyze`` one graph, ``verify`` the claim chain on one
graph, ``scan`` the exhaustive theorem check, ``generate`` a corpus.
The argument parser is built once per process, on the first ``main``
call, and serves every later call. A JSON report is written by
``_json_text``, which returns the text of
``json.dumps(report, sort_keys=True, indent=2)`` in one recursive pass
over the JSON types that reports are built from; the standard
library's encoder, which runs in pure Python once ``indent`` is set,
stays for the one-line witnesses of the text output.

Exit codes are a stable contract for CI use: 0 = success / expected
result; 1 = only a scan's verdict, that its positives falsify the
expected outcome; 2 = usage, parse or validation error, or an internal
error, which prints its traceback; 141 = stdout was closed before the
output was written (as when piped into ``head``; 128 + SIGPIPE, the
status a shell reports for a tool that SIGPIPE stopped).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import enumeration, matching, verifier
from .connectivity import bridges, edge_connectivity, girth
from .formats import CORPUS_PARSERS, emit_sparse6, iter_graph_lines, parse_auto, parse_edgelist
from .graphs import CubicGraph, CubicGraphError

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

# a dict of its own: single-graph input also takes an edge list, and the
# benchmark tracer (perfbench/tracing.py) wraps these entries in place
_PARSERS = {**CORPUS_PARSERS, "auto": parse_auto, "edgelist": parse_edgelist}


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _load_single_graph(args: argparse.Namespace) -> CubicGraph:
    return _PARSERS[args.format](_read_input(args.input))


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value: object, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a value built
    from dicts with str keys, lists, str, int, float, bool and None;
    any other type, a tuple or a non-str key included, raises
    ``TypeError``. ``indent`` is the line break and indentation that
    precede the value's own lines."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [
            f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
            for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, float):
        # json spells the values that are not finite as JavaScript does
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(payload: dict) -> None:
    sys.stdout.write(_json_text(payload) + "\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_single_graph(args)
    connectivity = edge_connectivity(g)  # rejects a disconnected graph before enumeration
    spectra = Counter(matching.two_factor_spectra(g))
    payload = {
        "report": "analyze",
        "n": g.n,
        "edge_count": len(g.edges),
        "girth": girth(g),
        "edge_connectivity": connectivity,
        "bridges": bridges(g),
        "perfect_matching_count": sum(spectra.values()),
        "two_factor_spectra": [
            {"spectrum": list(lengths), "count": count}
            for lengths, count in sorted(spectra.items())
        ],
        "all_two_factors_are_five_cycles": bool(spectra)
        and all(length == 5 for spectrum in spectra for length in spectrum),
    }
    if args.output == "json":
        _emit_json(payload)
    else:
        out = sys.stdout
        out.write(f"vertices            {payload['n']}\n")
        out.write(f"edges               {payload['edge_count']}\n")
        out.write(f"girth               {payload['girth']}\n")
        out.write(f"edge connectivity   {payload['edge_connectivity']}\n")
        out.write(f"bridges             {payload['bridges'] or 'none'}\n")
        out.write(f"perfect matchings   {payload['perfect_matching_count']}\n")
        for entry in payload["two_factor_spectra"]:
            cycles = ",".join(str(c) for c in entry["spectrum"])
            out.write(f"2-factor spectrum   {{{cycles}}} x{entry['count']}\n")
        verdict = "yes" if payload["all_two_factors_are_five_cycles"] else "no"
        out.write(f"all 2-factors 5-cycles  {verdict}\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_single_graph(args)
    report = verifier.verify_claims(g)
    if args.output == "json":
        _emit_json(report)
    else:
        out = sys.stdout
        out.write(f"certificate   {report['graph_certificate']}\n")
        out.write(f"premise       {'holds' if report['premise_holds'] else 'fails'}\n")
        if report["premise_witness"]:
            out.write(f"  witness     {json.dumps(report['premise_witness'], sort_keys=True)}\n")
        for cid in verifier.CLAIM_IDS:
            claim = report["claims"][cid]
            line = f"{cid:<6}{'holds' if claim['holds'] else 'FAILS'}"
            if claim["witness"] is not None:
                line += f"  {json.dumps(claim['witness'], sort_keys=True)}"
            out.write(line + "\n")
        out.write(f"is_petersen   {'yes' if report['is_petersen'] else 'no'}\n")
    return EXIT_OK


def _scan_exit_code(report: dict, from_corpus: bool) -> int:
    # the theorem: Petersen is the only positive, found once by a scan of n = 10
    positives = report["positives"]
    expected = 1 if any(n >= 10 for n in report["n_range"]) else 0
    ok = all(p["is_petersen"] for p in positives) and (from_corpus or len(positives) == expected)
    return EXIT_OK if ok else EXIT_FALSIFIED


def _render_scan(report: dict, args: argparse.Namespace) -> None:
    if args.output == "json":
        _emit_json(report)
        return
    out = sys.stdout
    out.write("   n  generated  bridgeless  positives\n")
    for n in report["n_range"]:
        stats = report["per_n"][str(n)]
        out.write(
            f"{n:>4}  {stats['generated']:>9}  {stats['bridgeless']:>10}  "
            f"{len(stats['premise_positive']):>9}\n"
        )
    for positive in report["positives"]:
        tag = "petersen" if positive["is_petersen"] else "UNEXPECTED"
        out.write(f"positive at n={positive['n']}: {positive['sparse6']} [{tag}]\n")
    out.write(f"elapsed {report['elapsed_seconds']:.2f}s\n")


def cmd_scan(args: argparse.Namespace) -> int:
    from_corpus = args.input is not None
    if from_corpus:
        if args.n_max is not None or args.multi:
            option = "--n-max" if args.n_max is not None else "--multi"
            raise CubicGraphError(
                f"scan --input cannot take {option}: the corpus gives the graphs"
            )
        lines = _read_input(args.input).splitlines()
        report = enumeration.scan_corpus(list(iter_graph_lines(lines, args.format)))
    elif args.n_max is None:
        raise CubicGraphError("scan requires --n-max")
    else:
        report = enumeration.scan_theorem(args.n_max, allow_multi=args.multi)
    _render_scan(report, args)
    return _scan_exit_code(report, from_corpus)


def cmd_generate(args: argparse.Namespace) -> int:
    for g in enumeration.generate_cubic_graphs(args.n, allow_multi=args.multi):
        sys.stdout.write(emit_sparse6(g).decode("ascii") + "\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicscan",
        description="Structural analysis and exhaustive scanning of cubic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", "-i", default="-", help="input path, or - for stdin")
        p.add_argument(
            "--format",
            choices=tuple(_PARSERS),
            default="auto",
            help="input format (default: sniff)",
        )

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=("text", "json"), default="text")

    p_analyze = sub.add_parser("analyze", help="profile a single graph")
    add_io(p_analyze)
    add_output(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="check the claim chain on a single graph")
    add_io(p_verify)
    add_output(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="exhaustive premise scan")
    p_scan.add_argument("--n-max", type=int, help="largest vertex count to scan")
    p_scan.add_argument("--multi", action="store_true", help="include multigraphs")
    p_scan.add_argument(
        "--jobs", type=int, help="accepted and ignored: the scan runs in one process"
    )
    p_scan.add_argument(
        "--input",
        "-i",
        default=None,
        help="scan a graph6/sparse6 corpus file instead of generating",
    )
    p_scan.add_argument("--format", choices=tuple(CORPUS_PARSERS), default="auto")
    add_output(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_generate = sub.add_parser("generate", help="emit a canonical corpus as sparse6")
    p_generate.add_argument("--n", type=int, required=True, help="vertex count")
    p_generate.add_argument("--multi", action="store_true", help="include multigraphs")
    p_generate.set_defaults(func=cmd_generate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send the rest to devnull, so that the
        # interpreter's last flush of stdout has nothing to complain about
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    # input that is not ASCII fails to decode (a file) or to encode (stdin)
    except (CubicGraphError, OSError, UnicodeError) as exc:
        print(f"cubicscan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a fault of the program, not of its input: its traceback stays visible,
        # printed as the interpreter prints an uncaught exception. The frames
        # below main's own have finished: clearing their locals first, as
        # traceback.clear_frames does, frees what they held (after a
        # MemoryError, what the printer needs) without importing a module
        tb = exc.__traceback__.tb_next
        while tb is not None:
            tb.tb_frame.clear()
            tb = tb.tb_next
        sys.excepthook(type(exc), exc, exc.__traceback__)
        print(f"cubicscan: error: internal error: {type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
