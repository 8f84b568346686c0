"""Orderly generation of connected cubic graphs and the exhaustive scan.

Generation builds "block-wise" labeled graphs: vertices are completed in
label order and a new vertex may only enter as the smallest unused
label. Every lexicographically minimal labeling has this shape, so
emitting exactly the graphs that equal their own canonical form
(orderly generation) gives one representative per isomorphism class.

Canonicity is decided on prefixes (Read/Faradzev style): while the
labeled graph grows, the generator carries every partial relabeling that
ties with the identity on the completed vertices, and drops a subtree as
soon as one of them gives a smaller block. Relabelings that the prefix
cannot yet tell apart travel together as the cell records of ``graphs``,
through the tie step of the canonical form. When the last vertex is
complete they have run the whole lexmin search of the canonical form,
so every finished graph is canonical and is yielded as it is, with its
own sorted edge list stored as its certificate (see ``graphs``). The
tests check the output against the canonical form, a depth-first
canonicity oracle, brute-force labeled enumeration and a tie frontier
kept one relabeling per permutation.

The scan runs the all-5-cycle premise over every generated connected
bridgeless graph and reports the graphs that satisfy it. It takes the
graphs one at a time as the generator yields them and keeps only the
positives, so its memory does not grow with the class count. Both scans
return the dict that ``cubicscan scan --output json`` prints, built from
JSON types only; ``docs/report-schema.json`` defines its shape.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

from . import connectivity, matching
from .formats import emit_sparse6
from .graphs import CubicGraph, CubicGraphError, canonical_form, is_isomorphic, petersen
from .graphs import _cell_end, _certificate, _min_block, _ranked, _refine, _store_canonical
from .graphs import is_canonical_labeling  # unused here: perfbench/tracing.py wraps it by this name

__all__ = [
    "DEFAULT_SIMPLE_LIMIT",
    "DEFAULT_MULTI_LIMIT",
    "generate_cubic_graphs",
    "scan_theorem",
    "scan_corpus",
]

DEFAULT_SIMPLE_LIMIT = 16
DEFAULT_MULTI_LIMIT = 12


def _check_generation_bounds(n: int, allow_multi: bool) -> range:
    """The vertex counts served up to n, the even ones from the floor (2
    for multigraphs, 4 for simple graphs). Raises unless n is even, at
    least the floor and at most DEFAULT_MULTI_LIMIT or DEFAULT_SIMPLE_LIMIT."""
    if n % 2:
        raise CubicGraphError(f"no cubic graph has an odd vertex count (n={n})")
    floor = 2 if allow_multi else 4
    if n < floor:
        raise CubicGraphError(
            f"n={n} is below the smallest {'multigraph' if allow_multi else 'simple graph'} ({floor})"
        )
    cap = DEFAULT_MULTI_LIMIT if allow_multi else DEFAULT_SIMPLE_LIMIT
    if n > cap:
        raise CubicGraphError(f"n={n} exceeds the configured limit {cap}")
    return range(floor, n + 1, 2)


def _blockwise_labeled_graphs(n: int, allow_multi: bool) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield the edge lists of the canonical block-wise labeled connected
    cubic graphs, in ascending order.

    Vertex t's remaining edges go to higher labels, chosen as a
    non-decreasing multiset; an unused label may only be targeted if it
    is the smallest unused one. Connectivity is implied: every vertex
    beyond 0 is first reached from a smaller label.

    Alongside the blocks, the search carries the cell records (level, x,
    start, order) of ``graphs`` whose blocks 0..level-1 equal the
    identity's, and advances them with the tie step there. A record can
    compute its block once x is complete and blocks[level] is known, so
    it waits under the key max(x, level). A block smaller than
    blocks[level] drops the subtree, as no completion of the prefix is
    canonical; a larger one drops the record; on a tie each member of
    the refined cell at level + 1 becomes a record. When vertex t's block
    is chosen, t becomes a new root and every record waiting on t is
    extended through the completed vertices. Records are filed under
    their next key and unfiled on backtrack.

    No finished graph needs another canonicity test. Every record waits
    on a key of at most n - 1, so once vertex n - 1's block is chosen a
    relabeling has been started from every root and every tie has been
    extended through all n blocks: that is the whole lexmin search of the
    canonical form, and none of it beat the identity. The only ties not
    carried that far close a component before n vertices; their prefix
    belongs to a disconnected graph, which fill's connectivity cut
    removes.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    blocks: list[tuple[int, ...]] = []
    waiting: list[list[tuple[int, int, list[int], list[int]]]] = [[] for _ in range(n)]

    # ranked[x]: (neighbour, multiplicity) pairs of a complete vertex, highest multiplicity first
    ranked: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    def extend_ties(t: int, filed: list[int]) -> bool:
        """Advance the relabelings waiting on t; False once one beats the prefix."""
        root = [-1] * n
        root[t] = 0
        stack = [(0, t, root, [t])] + waiting[t]
        while stack:
            level, x, start, order = stack.pop()
            blk, touched = _min_block(ranked[x], level, start, len(order))
            ref = blocks[level]
            if blk < ref:
                return False
            if blk > ref:
                continue
            if not touched and len(order) == level + 1:
                continue  # a closed component; fill's connectivity check cuts it
            start, order = _refine(level, x, start, order, touched)
            level += 1
            for w in order[level:_cell_end(start, order, level)]:
                key = w if w > level else level
                if key <= t:
                    stack.append((level, w, start, order))
                else:
                    waiting[key].append((level, w, start, order))
                    filed.append(key)
        return True

    def fill(t: int, minimum: int, frontier: int) -> Iterator[tuple[tuple[int, int], ...]]:
        """Add vertex t's next neighbour, at least minimum, until t is
        complete, then go on to t + 1; frontier is the smallest unused label."""
        if len(adj[t]) == 3:
            blocks.append(tuple(w for w in adj[t] if w > t))
            ranked[t] = _ranked(adj[t])
            filed: list[int] = []
            if extend_ties(t, filed):
                if t + 1 == n:
                    yield tuple((u, v) for u, blk in enumerate(blocks) for v in blk)
                elif t + 1 < frontier:  # else vertex t + 1 is unreached: disconnected
                    yield from fill(t + 1, t + 2, frontier)
            for key in filed:
                waiting[key].pop()
            blocks.pop()
            return
        for w in range(minimum, min(frontier, n - 1) + 1):
            if w < frontier and len(adj[w]) >= 3:
                continue
            multiplicity = adj[t].count(w)
            if multiplicity >= (1 if not allow_multi else 3):
                continue
            if multiplicity == 2 and n != 2:
                continue  # a triple edge saturates both endpoints
            adj[w].append(t)
            adj[t].append(w)
            yield from fill(t, w, frontier + 1 if w == frontier else frontier)
            adj[t].pop()
            adj[w].pop()

    yield from fill(0, 1, 1)


def generate_cubic_graphs(n: int, allow_multi: bool = False) -> Iterator[CubicGraph]:
    """All connected cubic (multi)graphs on n vertices, one per
    isomorphism class, in ascending canonical edge-list order.

    Each graph is its own canonical form, which the generator has
    already proved, so its own edge list is stored as its certificate
    and ``canonical_form`` runs no search on it."""
    _check_generation_bounds(n, allow_multi)
    for edges in _blockwise_labeled_graphs(n, allow_multi):
        yield _store_canonical(CubicGraph(n=n, edges=edges), _certificate(n, edges))


def _scan_one_n(graphs: Iterable[CubicGraph]) -> dict:
    """One n's counts and its premise positives, sorted by certificate."""
    started = time.perf_counter()
    generated = bridgeless = 0
    positives = []
    for g in graphs:
        generated += 1
        if connectivity.bridges(g):
            continue
        bridgeless += 1
        if not matching.all_two_factors_are_five_cycles(g):
            continue
        positives.append(
            {
                "n": g.n,
                "certificate": canonical_form(g),
                "sparse6": emit_sparse6(g).decode("ascii"),
                "is_petersen": g.n == 10 and is_isomorphic(g, petersen()),
            }
        )
    positives.sort(key=lambda p: p["certificate"])
    return {
        "generated": generated,
        "bridgeless": bridgeless,
        "premise_positive": positives,
        "elapsed_seconds": round(time.perf_counter() - started, 6),
    }


def _scan_report(
    groups: Iterable[tuple[int, Iterable[CubicGraph]]], allow_multi: bool, started: float
) -> dict:
    """The scan report of (n, graphs) groups given in ascending n. per_n
    is keyed by str(n), as JSON keys are strings, so the report equals
    its own JSON round trip and a sorted dump orders the keys as text
    ("10" before "4")."""
    per_n = {n: _scan_one_n(graphs) for n, graphs in groups}
    return {
        "report": "scan",
        "n_range": list(per_n),
        "allow_multi": allow_multi,
        "per_n": {str(n): stats for n, stats in per_n.items()},
        "positives": [p for stats in per_n.values() for p in stats["premise_positive"]],
        "elapsed_seconds": round(time.perf_counter() - started, 6),
    }


def scan_theorem(n_max: int, allow_multi: bool = False) -> dict:
    """Run the all-5-cycle premise over every connected bridgeless cubic
    (multi)graph with up to n_max vertices.

    The expected outcome is a single positive, at n = 10, isomorphic to
    the Petersen graph (none at all when n_max < 10).
    """
    n_range = _check_generation_bounds(n_max, allow_multi)
    groups = ((n, generate_cubic_graphs(n, allow_multi)) for n in n_range)
    return _scan_report(groups, allow_multi, started=time.perf_counter())


def scan_corpus(graphs: Iterable[CubicGraph]) -> dict:
    """Scan a user-supplied corpus instead of the internal generator.

    Raises CubicGraphError at the first disconnected graph, since the
    theorem is about connected graphs; at the first graph isomorphic to
    an earlier one, since counts are per isomorphism class; and for a
    corpus with no graph at all, since a scan of nothing answers nothing.
    """
    started = time.perf_counter()
    by_n: dict[int, list[CubicGraph]] = {}
    seen: set[str] = set()
    any_multi = False
    for g in graphs:
        if not connectivity.is_connected(g):
            raise CubicGraphError("scan requires connected graphs")
        cert = canonical_form(g)
        if cert in seen:
            raise CubicGraphError("corpus contains isomorphic duplicates")
        seen.add(cert)
        by_n.setdefault(g.n, []).append(g)
        any_multi = any_multi or g.has_parallel_edges
    if not by_n:
        raise CubicGraphError("corpus has no graphs")
    return _scan_report(sorted(by_n.items()), any_multi, started)
