"""Command-line interface.

Subcommands: ``analyze`` one graph, ``verify`` the claim chain on one
graph, ``scan`` the exhaustive theorem check, ``generate`` a corpus.

Exit codes are a stable contract for CI use: 0 = success / expected
result, 1 = a scan found an unexpected premise-positive graph (which
would falsify the expected outcome), 2 = usage, parse, or validation
error, 141 = stdout was closed before the output was written (as when
piped into ``head``; 128 + SIGPIPE, the status a shell reports for a
tool that SIGPIPE stopped).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Sequence

from . import enumeration, matching, verifier
from .connectivity import bridges, edge_connectivity, girth
from .errors import CubicGraphError
from .formats import (
    emit_sparse6,
    iter_graph_lines,
    parse_auto,
    parse_edgelist,
    parse_graph6,
    parse_sparse6,
)
from .graphs import CubicGraph

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

_PARSERS = {
    "auto": parse_auto,
    "graph6": parse_graph6,
    "sparse6": parse_sparse6,
    "edgelist": parse_edgelist,
}


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _load_single_graph(args: argparse.Namespace) -> CubicGraph:
    return _PARSERS[args.format](_read_input(args.input))


def _emit_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_single_graph(args)
    connectivity = edge_connectivity(g)  # rejects a disconnected graph before enumeration
    matchings = matching.enumerate_perfect_matchings(g)
    spectra = Counter(matching.two_factor_spectra(g, matchings))
    payload = {
        "report": "analyze",
        "n": g.n,
        "edge_count": len(g.edges),
        "girth": girth(g),
        "edge_connectivity": connectivity,
        "bridges": bridges(g),
        "perfect_matching_count": len(matchings),
        "two_factor_spectra": [
            {"spectrum": list(lengths), "count": count}
            for lengths, count in sorted(spectra.items())
        ],
        "all_two_factors_are_five_cycles": bool(matchings)
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
    payload = {"report": "verify", **report.to_json_dict()}
    if args.output == "json":
        _emit_json(payload)
    else:
        out = sys.stdout
        out.write(f"certificate   {report.graph_certificate}\n")
        out.write(f"premise       {'holds' if report.premise_holds else 'fails'}\n")
        if report.premise_witness:
            out.write(f"  witness     {json.dumps(report.premise_witness, sort_keys=True)}\n")
        for cid in verifier.CLAIM_IDS:
            res = report.claim_results[cid]
            line = f"{cid:<6}{'holds' if res.holds else 'FAILS'}"
            if res.witness is not None:
                line += f"  {json.dumps(res.witness, sort_keys=True)}"
            out.write(line + "\n")
        out.write(f"is_petersen   {'yes' if report.is_petersen else 'no'}\n")
    return EXIT_OK


def _scan_exit_code(report: enumeration.ScanReport, from_corpus: bool) -> int:
    positives = report.positives
    if from_corpus:
        return EXIT_OK if all(p.is_petersen for p in positives) else EXIT_FALSIFIED
    expect_petersen = any(n >= 10 for n in report.n_range)
    if expect_petersen:
        ok = len(positives) == 1 and positives[0].is_petersen and positives[0].n == 10
    else:
        ok = not positives
    return EXIT_OK if ok else EXIT_FALSIFIED


def _render_scan(report: enumeration.ScanReport, args: argparse.Namespace) -> None:
    payload = {"report": "scan", **report.to_json_dict()}
    if args.output == "json":
        _emit_json(payload)
        return
    out = sys.stdout
    out.write("   n  generated  bridgeless  positives\n")
    for n in report.n_range:
        stats = report.per_n[n]
        out.write(
            f"{n:>4}  {stats.generated:>9}  {stats.bridgeless:>10}  "
            f"{len(stats.premise_positive):>9}\n"
        )
    for positive in report.positives:
        tag = "petersen" if positive.is_petersen else "UNEXPECTED"
        out.write(f"positive at n={positive.n}: {positive.sparse6} [{tag}]\n")
    out.write(f"elapsed {report.elapsed_seconds:.2f}s\n")


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
            choices=("auto", "graph6", "sparse6", "edgelist"),
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
    p_scan.add_argument(
        "--format", choices=("auto", "graph6", "sparse6"), default="auto"
    )
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
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (CubicGraphError, OSError, ValueError) as exc:
        print(f"cubicscan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
