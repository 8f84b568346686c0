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
so every finished graph is canonical and is yielded as it is. The tests
check the output against the canonical form, a depth-first canonicity
oracle, brute-force labeled enumeration and a tie frontier kept one
relabeling per permutation.

The scan runs the all-5-cycle premise over every generated connected
bridgeless graph and reports the graphs that satisfy it. It takes the
graphs one at a time as the generator yields them and keeps only the
positives, so its memory does not grow with the class count.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from . import connectivity, matching
from .errors import (
    DisconnectedError,
    DuplicateGraphError,
    GenerationLimitError,
    OddVertexCountError,
    PreconditionError,
)
from .formats import emit_sparse6
from .graphs import CubicGraph, canonical_form, is_isomorphic, petersen
from .graphs import _cell_end, _min_block, _ranked, _refine
from .graphs import is_canonical_labeling  # unused here: perfbench/tracing.py wraps it by this name

__all__ = [
    "DEFAULT_SIMPLE_LIMIT",
    "DEFAULT_MULTI_LIMIT",
    "PositiveRecord",
    "NScanStats",
    "ScanReport",
    "generate_cubic_graphs",
    "filter_bridgeless",
    "scan_theorem",
    "scan_corpus",
]

DEFAULT_SIMPLE_LIMIT = 16
DEFAULT_MULTI_LIMIT = 12


def _check_generation_bounds(n: int, allow_multi: bool, limit: int | None) -> None:
    if n % 2:
        raise OddVertexCountError(f"no cubic graph has an odd vertex count (n={n})")
    floor = 2 if allow_multi else 4
    if n < floor:
        raise GenerationLimitError(
            f"n={n} is below the smallest {'multigraph' if allow_multi else 'simple graph'} ({floor})"
        )
    cap = limit if limit is not None else (
        DEFAULT_MULTI_LIMIT if allow_multi else DEFAULT_SIMPLE_LIMIT
    )
    if n > cap:
        raise GenerationLimitError(f"n={n} exceeds the configured limit {cap}")


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


def generate_cubic_graphs(
    n: int, allow_multi: bool = False, limit: int | None = None
) -> Iterator[CubicGraph]:
    """All connected cubic (multi)graphs on n vertices, one per
    isomorphism class, in ascending canonical edge-list order."""
    _check_generation_bounds(n, allow_multi, limit)
    for edges in _blockwise_labeled_graphs(n, allow_multi):
        yield CubicGraph(n=n, edges=edges)


def filter_bridgeless(stream: Iterable[CubicGraph]) -> Iterator[CubicGraph]:
    """Pass exactly the graphs with no bridge."""
    for g in stream:
        if not connectivity.bridges(g):
            yield g


@dataclass(frozen=True)
class PositiveRecord:
    """One graph satisfying the all-5-cycle premise."""

    n: int
    certificate: str
    sparse6: str
    is_petersen: bool


@dataclass(frozen=True)
class NScanStats:
    generated: int
    bridgeless: int
    premise_positive: tuple[PositiveRecord, ...]
    elapsed_seconds: float


@dataclass(frozen=True)
class ScanReport:
    n_range: tuple[int, ...]
    allow_multi: bool
    per_n: dict[int, NScanStats]
    elapsed_seconds: float

    @property
    def positives(self) -> tuple[PositiveRecord, ...]:
        return tuple(p for n in self.n_range for p in self.per_n[n].premise_positive)

    def to_json_dict(self) -> dict:
        return {
            "n_range": list(self.n_range),
            "allow_multi": self.allow_multi,
            "per_n": {str(n): asdict(stats) for n, stats in sorted(self.per_n.items())},
            "positives": [asdict(p) for p in self.positives],
            "elapsed_seconds": self.elapsed_seconds,
        }


def _scan_one_n(graphs: Iterable[CubicGraph], n: int) -> NScanStats:
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
        cert = canonical_form(g).certificate
        positives.append(
            PositiveRecord(
                n=n,
                certificate=cert.decode("ascii"),
                sparse6=emit_sparse6(g).decode("ascii"),
                is_petersen=is_isomorphic(g, petersen()),
            )
        )
    positives.sort(key=lambda p: p.certificate)
    return NScanStats(
        generated=generated,
        bridgeless=bridgeless,
        premise_positive=tuple(positives),
        elapsed_seconds=round(time.perf_counter() - started, 6),
    )


def scan_theorem(n_max: int, allow_multi: bool = False) -> ScanReport:
    """Run the all-5-cycle premise over every connected bridgeless cubic
    (multi)graph with up to n_max vertices.

    The expected outcome is a single positive, at n = 10, isomorphic to
    the Petersen graph (none at all when n_max < 10).
    """
    _check_generation_bounds(n_max, allow_multi, None)
    started = time.perf_counter()
    lowest = 2 if allow_multi else 4
    n_range = tuple(range(lowest, n_max + 1, 2))
    per_n = {}
    for n in n_range:
        per_n[n] = _scan_one_n(generate_cubic_graphs(n, allow_multi), n)
    return ScanReport(
        n_range=n_range,
        allow_multi=allow_multi,
        per_n=per_n,
        elapsed_seconds=round(time.perf_counter() - started, 6),
    )


def scan_corpus(graphs: Iterable[CubicGraph]) -> ScanReport:
    """Scan a user-supplied corpus instead of the internal generator.

    The theorem is about connected graphs, so the first disconnected
    graph raises DisconnectedError; counts are per isomorphism class, so
    the first graph isomorphic to an earlier one raises
    DuplicateGraphError. A corpus with no graph at all raises
    PreconditionError, since a scan of nothing answers nothing.
    """
    started = time.perf_counter()
    by_n: dict[int, list[CubicGraph]] = {}
    seen: set[bytes] = set()
    any_multi = False
    for g in graphs:
        if not connectivity.is_connected(g):
            raise DisconnectedError("scan requires connected graphs")
        cert = canonical_form(g).certificate
        if cert in seen:
            raise DuplicateGraphError("corpus contains isomorphic duplicates")
        seen.add(cert)
        by_n.setdefault(g.n, []).append(g)
        any_multi = any_multi or g.has_parallel_edges
    if not by_n:
        raise PreconditionError("corpus has no graphs")
    n_range = tuple(sorted(by_n))
    per_n = {n: _scan_one_n(by_n[n], n) for n in n_range}
    return ScanReport(
        n_range=n_range,
        allow_multi=any_multi,
        per_n=per_n,
        elapsed_seconds=round(time.perf_counter() - started, 6),
    )
