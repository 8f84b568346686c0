"""Output checks for every benchmark op, run outside the timed region.

Each ``check_*`` function returns a list of problems; an empty list means
the op's output is correct. Scan reports are pinned to the published class
counts (OEIS A002851 for connected cubic simple graphs, A000421 for
connected cubic loopless multigraphs). Per-graph reports are compared with
facts computed by networkx from the benchmark's own edge lists. Every report
must also validate against the repository's JSON schema.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations, product
from pathlib import Path

import jsonschema
import networkx as nx

from inputs import CorpusGraph, Edges, connected

A002851 = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}
A000421 = {2: 1, 4: 2, 6: 6, 8: 20, 10: 91}


class SchemaCheck:
    def __init__(self, schema_path: Path) -> None:
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self._validator = jsonschema.Draft202012Validator(schema)

    def __call__(self, report: object) -> list[str]:
        return [f"schema: {error.message[:200]}" for error in self._validator.iter_errors(report)]


@dataclass(frozen=True)
class GraphFacts:
    n: int
    edges: tuple[tuple[int, int], ...]
    girth: int
    edge_connectivity: int
    bridges: list[int]
    has_parallel: bool
    has_triangle: bool
    is_petersen: bool
    # claim facts, worked out by brute force for verify only: too slow
    # for the analyze corpus, which does not need them
    has_adjacent_triangles: bool | None = None
    has_square_triangle: bool | None = None
    has_nonstar_3_cut: bool | None = None
    paths_extend: bool | None = None


def _component_labels(n: int, edges: Edges, skip: tuple[int, ...]) -> list[int]:
    """Component number per vertex once the edges in ``skip`` are gone."""
    label = [-1] * n
    count = 0
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = count
        stack = [root]
        while stack:
            u = stack.pop()
            for eid, (a, b) in enumerate(edges):
                if eid not in skip and u in (a, b):
                    w = b if u == a else a
                    if label[w] < 0:
                        label[w] = count
                        stack.append(w)
        count += 1
    return label


def boundary(edges: Edges, side: set[int]) -> list[int]:
    """Ids of the edges with exactly one end in ``side``."""
    return [eid for eid, (a, b) in enumerate(edges) if (a in side) != (b in side)]


def has_nonstar_3_cut(n: int, edges: Edges) -> bool:
    """Whether some vertex bipartition with exactly three edges across has more
    than one vertex on each side, by brute force over 3-edge subsets: the
    subset is such a boundary when the components left without it can be
    2-coloured with every subset edge joining the two colours."""
    for cut in combinations(range(len(edges)), 3):
        label = _component_labels(n, edges, cut)
        ends = [(label[edges[e][0]], label[edges[e][1]]) for e in cut]
        if any(a == b for a, b in ends):
            continue
        for colours in product((0, 1), repeat=max(label)):
            colour = (0, *colours)
            if all(colour[a] != colour[b] for a, b in ends):
                side = sum(1 for v in range(n) if colour[label[v]] == 0)
                if 1 < side < n - 1:
                    return True
    return False


def paths_extend_to_matchings(n: int, nbr: list[set[int]]) -> bool:
    """Whether every path u-v-w-x on four vertices has a perfect matching
    holding uv and wx, that is, one of the graph without u, v, w and x."""

    @cache
    def perfect(mask: int) -> bool:
        if not mask:
            return True
        v = (mask & -mask).bit_length() - 1
        return any(perfect(mask & ~(1 << v) & ~(1 << w)) for w in nbr[v] if mask >> w & 1)

    full = (1 << n) - 1
    return all(
        perfect(full & ~(1 << u | 1 << v | 1 << w | 1 << x))
        for v in range(n)
        for w in nbr[v]
        for u in nbr[v] - {w}
        for x in nbr[w] - {v, u}
    )


def graph_facts(g: CorpusGraph, claims: bool = False) -> GraphFacts:
    """What a report must say about a graph, from networkx or brute force;
    with ``claims``, also the facts behind the verify claims."""
    simple = nx.Graph()
    simple.add_nodes_from(range(g.n))
    multiplicity = Counter(g.edges)
    for (u, v), count in multiplicity.items():
        simple.add_edge(u, v, weight=count)
    has_parallel = max(multiplicity.values()) > 1
    bridge_pairs = {(min(u, v), max(u, v)) for u, v in nx.bridges(simple)}
    facts = GraphFacts(
        n=g.n,
        edges=g.edges,
        girth=2 if has_parallel else nx.girth(simple),
        edge_connectivity=nx.stoer_wagner(simple)[0],
        # a parallel edge is never a bridge
        bridges=[eid for eid, e in enumerate(g.edges) if e in bridge_pairs and multiplicity[e] == 1],
        has_parallel=has_parallel,
        has_triangle=any(nx.triangles(simple).values()),
        is_petersen=g.n == 10
        and not has_parallel
        and nx.is_isomorphic(simple, nx.petersen_graph()),
    )
    if not claims:
        return facts
    triangles = [set(c) for c in nx.simple_cycles(simple, length_bound=3)]
    squares = [c for c in nx.simple_cycles(simple, length_bound=4) if len(c) == 4]
    square_edges = [{frozenset((c[i], c[i - 1])) for i in range(4)} for c in squares]
    return replace(
        facts,
        # two triangles share an edge when they share two vertices
        has_adjacent_triangles=any(len(s & t) == 2 for s, t in combinations(triangles, 2)),
        # a square and a triangle on five vertices share two, and those
        # form an edge of the square
        has_square_triangle=any(
            len(t | set(c)) == 5 and frozenset(t & set(c)) in edges_of
            for t in triangles
            for c, edges_of in zip(squares, square_edges)
        ),
        has_nonstar_3_cut=has_nonstar_3_cut(g.n, g.edges),
        paths_extend=paths_extend_to_matchings(g.n, [set(simple[v]) for v in range(g.n)]),
    )


def _expect(problems: list[str], label: str, got: object, want: object) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def check_scan(report: dict, exit_code: int | None, n_max: int, multi: bool) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", exit_code, 0)
    table = A000421 if multi else A002851
    expected = {n: count for n, count in table.items() if n <= n_max}
    _expect(problems, "n_range", report.get("n_range"), sorted(expected))
    _expect(problems, "allow_multi", report.get("allow_multi"), multi)
    per_n = report.get("per_n", {})
    _expect(
        problems,
        "generated per n",
        {int(n): stats.get("generated") for n, stats in per_n.items()},
        expected,
    )
    for n, stats in per_n.items():
        if not 0 <= stats.get("bridgeless", -1) <= stats.get("generated", 0):
            problems.append(f"n={n}: bridgeless count {stats.get('bridgeless')!r} out of range")
        want = 1 if n == "10" else 0
        _expect(problems, f"n={n} positives", len(stats.get("premise_positive", [])), want)
    positives = report.get("positives", [])
    _expect(problems, "positive count", len(positives), 1)
    if len(positives) == 1:
        positive = positives[0]
        _expect(problems, "positive n", positive.get("n"), 10)
        _expect(problems, "positive is_petersen", positive.get("is_petersen"), True)
        try:
            decoded = nx.from_sparse6_bytes(positive.get("sparse6", "").encode("ascii"))
            is_petersen = nx.is_isomorphic(nx.Graph(decoded), nx.petersen_graph())
        except (nx.NetworkXError, ValueError, TypeError):
            is_petersen = False
        _expect(problems, "positive sparse6 decodes to Petersen", is_petersen, True)
    return problems


def _check_kind(report: dict, exit_code: int | None, kind: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", exit_code, 0)
    _expect(problems, "report", report.get("report"), kind)
    return problems


def check_analyze(report: dict, exit_code: int | None, facts: GraphFacts) -> list[str]:
    problems = _check_kind(report, exit_code, "analyze")
    _expect(problems, "n", report.get("n"), facts.n)
    _expect(problems, "edge_count", report.get("edge_count"), len(facts.edges))
    _expect(problems, "girth", report.get("girth"), facts.girth)
    _expect(problems, "edge_connectivity", report.get("edge_connectivity"), facts.edge_connectivity)
    _expect(problems, "bridges", report.get("bridges"), facts.bridges)
    spectra = report.get("two_factor_spectra", [])
    for entry in spectra:
        _expect(problems, f"spectrum {entry.get('spectrum')} sum", sum(entry.get("spectrum", [])), facts.n)
    _expect(
        problems,
        "spectrum counts sum",
        sum(entry.get("count", 0) for entry in spectra),
        report.get("perfect_matching_count"),
    )
    _expect(
        problems,
        "all_two_factors_are_five_cycles",
        report.get("all_two_factors_are_five_cycles"),
        facts.is_petersen,
    )
    return problems


def check_verify(report: dict, exit_code: int | None, facts: GraphFacts) -> list[str]:
    problems = _check_kind(report, exit_code, "verify")
    _expect(problems, "is_petersen", report.get("is_petersen"), facts.is_petersen)
    _expect(problems, "premise_holds", report.get("premise_holds"), facts.is_petersen)
    claims = report.get("claims", {})

    def claim(cid: str) -> dict:
        return claims.get(cid) or {}

    _expect(problems, "C1 holds", claim("C1").get("holds"), not facts.has_parallel)
    _expect(problems, "C4 holds", claim("C4").get("holds"), not facts.has_triangle)
    _expect(problems, "C5 holds", claim("C5").get("holds"), facts.girth == 5)
    if facts.girth != 5:
        _expect(problems, "C5 girth", (claim("C5").get("witness") or {}).get("girth"), facts.girth)
    _expect(problems, "C6 holds", claim("C6").get("holds"), facts.edge_connectivity == 3)
    if facts.edge_connectivity != 3:
        witness = claim("C6").get("witness") or {}
        _expect(problems, "C6 edge_connectivity", witness.get("edge_connectivity"), facts.edge_connectivity)
        cut = witness.get("cut") or []
        _expect(problems, "C6 cut size", len(cut), facts.edge_connectivity)
        if connected(facts.n, facts.edges, frozenset(cut)):
            problems.append(f"C6 cut {cut} does not disconnect the graph")
        if facts.edge_connectivity == 1:
            _expect(problems, "C6 cut is a bridge", cut[:1] and cut[0] in facts.bridges, True)
    _expect(problems, "C2 holds", claim("C2").get("holds"), not facts.has_adjacent_triangles)
    _expect(problems, "C3 holds", claim("C3").get("holds"), not facts.has_square_triangle)
    _expect(problems, "C7 holds", claim("C7").get("holds"), not facts.has_nonstar_3_cut)
    if facts.has_nonstar_3_cut:
        witness = claim("C7").get("witness") or {}
        side = set(witness.get("side") or [])
        if not 1 < len(side) < facts.n - 1:
            problems.append(f"C7 side {sorted(side)} is a vertex star or empty")
        _expect(problems, "C7 cut edges", witness.get("cut_edges"), boundary(facts.edges, side))
        _expect(problems, "C7 cut size", len(witness.get("cut_edges") or []), 3)
    _expect(problems, "C8 holds", claim("C8").get("holds"), facts.paths_extend)
    # a girth-5 graph whose 5-cycle neighborhoods pass every check is its own
    # closed second neighborhood: Petersen
    _expect(problems, "FINAL holds", claim("FINAL").get("holds"), facts.is_petersen)
    _expect(problems, "PROP4 holds", claim("PROP4").get("holds"), True)
    return problems
