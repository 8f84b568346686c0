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
cannot yet tell apart travel together as one ordered partition of their
labels into cells (partition backtracking, after McKay, "Practical graph
isomorphism", 1981, restricted to the refinement the block order
allows). When the last vertex is complete these relabelings have run the
whole lexmin search of the canonical form, so every finished graph is
canonical and is yielded as it is. The test suite checks the output
against the canonical form, a depth-first canonicity oracle, brute-force
labeled enumeration and a tie frontier kept one relabeling per
permutation.

The scan runs the all-5-cycle premise over every generated connected
bridgeless graph and reports the graphs that satisfy it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import connectivity, matching
from .errors import (
    DisconnectedError,
    DuplicateGraphError,
    GenerationLimitError,
    OddVertexCountError,
)
from .formats import emit_sparse6
from .graphs import CubicGraph, canonical_form, is_isomorphic, petersen
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

    Alongside the blocks, the search keeps the partial relabelings of
    the canonical-form search whose blocks 0..level-1 equal the
    identity's, grouped into records (level, x, start, order). ``order``
    lists the labeled vertices by label, and ``start[v]`` is the first
    label of v's cell: a label range whose members the blocks so far
    cannot tell apart, so every assignment of a cell's labels to its
    members ties. Vertex x takes label ``level`` (individualization) and
    the rest of its cell moves up to level + 1; when a level starts
    inside a cell of k members, k records are filed, one per member.

    The block of x can be computed once x is complete (its block is
    chosen) and blocks[level] is known, so a record waits under the key
    max(x, level). Its minimal block gives, inside each cell that x
    touches, the lower labels to the members with more edges to x, and
    orders x's unlabeled neighbours, which open new cells after the last
    label, the same way. Refinement splits each touched cell and the new
    neighbours by that multiplicity, so the relabelings that reach the
    minimal block are exactly the permutations inside the new cells. If
    the minimal block is smaller than blocks[level], no completion of the
    prefix is canonical and the subtree is dropped; if it is larger, the
    record is dropped. When vertex t's block is chosen, t becomes a new
    root and every record waiting on t is extended through the completed
    vertices. Records are filed under their next key and unfiled on
    backtrack.

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

    def cell_end(start: list[int], order: list[int], s: int) -> int:
        end = s + 1
        while end < len(order) and start[order[end]] == s:
            end += 1
        return end

    def split(start: list[int], order: list[int], s: int, hits: list[tuple[int, int]]) -> None:
        """Reorder the cell that starts at label s: the hit vertices first, in
        their order, then the rest; each run of equal multiplicity becomes a cell."""
        end = cell_end(start, order, s)
        if end - s == len(hits) and hits[0][1] == hits[-1][1]:
            return
        hit = [w for w, _ in hits]
        rest = [(w, 0) for w in order[s:end] if w not in hit]
        first = prev = -1
        for pos, (w, m) in enumerate(hits + rest, s):
            if m != prev:
                first, prev = pos, m
            order[pos] = w
            start[w] = first

    def extend_ties(t: int, filed: list[int]) -> bool:
        """Advance the relabelings waiting on t; False once one beats the prefix."""
        root = [-1] * n
        root[t] = 0
        stack = [(0, t, root, [t])] + waiting[t]
        while stack:
            level, x, start, order = stack.pop()
            base = len(order)
            # the minimal block: in each cell the higher multiplicities take
            # the lower labels, and so do they among the unlabeled neighbours
            labels: list[int] = []
            touched: dict[int, list[tuple[int, int]]] = {}
            fresh: list[tuple[int, int]] = []
            for pair in ranked[x]:
                w, m = pair
                s = start[w]
                if s >= level:
                    if s == level:
                        s += 1  # the rest of x's own cell
                    hits = touched.setdefault(s, [])
                    labels += [s + len(hits)] * m
                    hits.append(pair)
                elif s < 0:
                    labels += [base + len(fresh)] * m
                    fresh.append(pair)
            blk = tuple(sorted(labels))
            ref = blocks[level]
            if blk < ref:
                return False
            if blk > ref:
                continue
            if base + len(fresh) == level + 1:
                continue  # a closed component; fill's connectivity check cuts it
            start = start.copy()
            order = order + [w for w, _ in fresh]
            for w, _ in fresh:
                start[w] = base
            # x leads its own cell, then the cells it touches and its new
            # neighbours split by multiplicity; singletons need no split
            if level + 1 < base and start[order[level + 1]] == level:
                split(start, order, level, [(x, 1)])
            for s, hits in touched.items():
                split(start, order, s, hits)
            if len(fresh) > 1:
                split(start, order, base, fresh)
            level += 1
            for w in order[level:cell_end(start, order, level)]:
                key = max(w, level)
                if key <= t:
                    stack.append((level, w, start, order))
                else:
                    waiting[key].append((level, w, start, order))
                    filed.append(key)
        return True

    def fill(t: int, next_new: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if t == n:
            yield tuple((u, v) for u, blk in enumerate(blocks) for v in blk)
            return
        if t > 0 and t >= next_new:
            return  # vertex t untouched by smaller labels: disconnected
        need = 3 - len(adj[t])
        chosen: list[int] = []

        def choose(minimum: int, left: int, frontier: int) -> Iterator[tuple[tuple[int, int], ...]]:
            if left == 0:
                blocks.append(tuple(chosen))
                adj[t].extend(chosen)
                mult = {w: adj[t].count(w) for w in adj[t]}
                ranked[t] = sorted(mult.items(), key=lambda pair: -pair[1])
                filed: list[int] = []
                if extend_ties(t, filed):
                    yield from fill(t + 1, frontier)
                for key in filed:
                    waiting[key].pop()
                del adj[t][3 - need:]
                blocks.pop()
                return
            for w in range(max(minimum, t + 1), min(frontier, n - 1) + 1):
                if w < frontier and len(adj[w]) >= 3:
                    continue
                multiplicity = chosen.count(w)
                if multiplicity >= (1 if not allow_multi else 3):
                    continue
                if multiplicity == 2 and n != 2:
                    continue  # a triple edge saturates both endpoints
                adj[w].append(t)
                chosen.append(w)
                yield from choose(w, left - 1, frontier + 1 if w == frontier else frontier)
                chosen.pop()
                adj[w].pop()

        yield from choose(t + 1, need, next_new if t > 0 else 1)

    yield from fill(0, 0)


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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "certificate": self.certificate,
            "sparse6": self.sparse6,
            "is_petersen": self.is_petersen,
        }


@dataclass(frozen=True)
class NScanStats:
    generated: int
    bridgeless: int
    premise_positive: tuple[PositiveRecord, ...]
    elapsed_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "generated": self.generated,
            "bridgeless": self.bridgeless,
            "premise_positive": [p.to_json_dict() for p in self.premise_positive],
            "elapsed_seconds": self.elapsed_seconds,
        }


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
            "per_n": {str(n): stats.to_json_dict() for n, stats in sorted(self.per_n.items())},
            "positives": [p.to_json_dict() for p in self.positives],
            "elapsed_seconds": self.elapsed_seconds,
        }


def _scan_one_n(graphs: list[CubicGraph], n: int) -> NScanStats:
    started = time.perf_counter()
    bridgeless = list(filter_bridgeless(graphs))
    positives = []
    for g in bridgeless:
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
        generated=len(graphs),
        bridgeless=len(bridgeless),
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
        graphs = list(generate_cubic_graphs(n, allow_multi))
        per_n[n] = _scan_one_n(graphs, n)
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
    DuplicateGraphError.
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
    n_range = tuple(sorted(by_n))
    per_n = {n: _scan_one_n(by_n[n], n) for n in n_range}
    return ScanReport(
        n_range=n_range,
        allow_multi=any_multi,
        per_n=per_n,
        elapsed_seconds=round(time.perf_counter() - started, 6),
    )
