"""Cubic multigraph representation, canonical forms, and isomorphism.

A graph is stored as an immutable edge list over dense vertex indices.
Edges are first-class: the id of an edge is its position in the edge
tuple, so parallel edges stay distinguishable. All operations in this
package treat graphs as read-only values.

Canonical form is defined as the relabeling whose sorted edge list is
lexicographically smallest over all vertex permutations. The "block" of
label t is the sorted tuple of higher labels adjacent to the vertex
labeled t, so the blocks concatenate to the sorted edge list. The search
visits "block-wise" labelings only: label 0 goes to a root, and whenever
a vertex's adjacency is completed its still-unlabeled neighbors receive
the next consecutive labels. Every lexicographically minimal labeling
has this shape, so the search is exhaustive.

Tied relabelings travel as records (level, x, start, order): ``order``
lists the labeled vertices by label, ``start[v]`` is the first label of
v's cell (labels the blocks so far cannot tell apart), and x, a member
of the cell at ``level``, takes that label. The tie step computes a
record's minimal block (``_min_block``); once it ties, ``_refine``
splits the touched cells by multiplicity, so the new cells hold exactly
the relabelings that reach it (partition backtracking, after McKay,
"Practical graph isomorphism", 1981). The canonical search runs the
step level by level on all records, the orderly generator in
``enumeration`` on those of its growing prefix.

A graph's canonical form is its certificate, the text every report
prints: the vertex count, then the canonical sorted edge list, as in
``"10|0-1,0-2,..."``. Certificates are equal exactly for isomorphic
graphs; the tests check them against permutation brute force and a
search with one relabeling per permutation, and read the relabeling
that reaches them from the last order ``_lexmin_blocks`` yields.

Two certificates are known without the search, so they are stored on
the graph (``_store_canonical``) and the search never runs for them:
``petersen()`` stores a constant, because every ``verify`` and every
scan positive compares with it; and ``enumeration.generate_cubic_graphs``
stores the graph's own sorted edge list, because orderly generation
yields only graphs that are their own canonical form. The tests check
both against the search on an unstored copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

__all__ = [
    "CubicGraphError",
    "CubicGraph",
    "from_edge_list",
    "petersen",
    "relabeled",
    "canonical_form",
    "is_isomorphic",
    "is_canonical_labeling",
]


class CubicGraphError(Exception):
    """Every failure this package detects in a graph or its input: a
    non-cubic or disconnected graph, a malformed encoding or a vertex
    count the generator does not serve. A bad argument to a library
    function raises ``ValueError`` instead (a non-permutation for
    ``relabeled``, a non-endpoint for ``CubicGraph.other_endpoint``, k
    out of range for ``edge_cuts`` or ``find_cycle_of_length``, a
    non-cut for ``cut_side``); no command passes such an argument."""


@dataclass(frozen=True)
class CubicGraph:
    """Loopless multigraph in which every vertex has degree exactly 3.

    ``edges[i]`` is the endpoint pair of the edge with id ``i``, stored
    as ``(u, v)`` with ``u < v``. Parallel edges appear as repeated
    pairs with distinct ids.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2:
            raise CubicGraphError(
                f"cubic graphs need an even vertex count >= 2, got n={self.n}"
            )
        if len(self.edges) != 3 * self.n // 2:
            raise CubicGraphError(
                f"a cubic graph on {self.n} vertices has {3 * self.n // 2} "
                f"edges, got {len(self.edges)}"
            )
        degree = [0] * self.n
        for u, v in self.edges:
            if u == v:
                raise CubicGraphError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise CubicGraphError(f"edge ({u}, {v}) has an endpoint outside [0, {self.n})")
            if u > v:
                raise CubicGraphError(f"edge ({u}, {v}) is not ordered u < v; use from_edge_list")
            degree[u] += 1
            degree[v] += 1
        bad = [v for v, d in enumerate(degree) if d != 3]
        if bad:
            raise CubicGraphError(f"vertices {bad} do not have degree 3")

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of ``(neighbor, edge_id)``, sorted, length 3."""
        lists: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            lists[u].append((v, eid))
            lists[v].append((u, eid))
        return tuple(tuple(sorted(entries)) for entries in lists)

    @cached_property
    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex neighbors with multiplicity (parallel edges repeat)."""
        return tuple(tuple(nbr for nbr, _ in row) for row in self.adjacency)

    @cached_property
    def has_parallel_edges(self) -> bool:
        return len(set(self.edges)) != len(self.edges)

    @cached_property
    def _canonical(self) -> str:
        blocks = _lexmin_blocks(self.n, self.neighbor_lists)
        return _certificate(self.n, [(t, w) for t, (blk, _) in enumerate(blocks) for w in blk])

    def other_endpoint(self, eid: int, vertex: int) -> int:
        u, v = self.edges[eid]
        if vertex == u:
            return v
        if vertex == v:
            return u
        raise ValueError(f"vertex {vertex} is not an endpoint of edge {eid}")


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> CubicGraph:
    """Build a cubic multigraph from endpoint pairs.

    Edge ids are assigned in input order. Raises CubicGraphError for
    odd n, loops, and degree violations.
    """
    normalized = tuple((u, v) if u < v else (v, u) for u, v in pairs)
    return CubicGraph(n=n, edges=normalized)


# the certificate the search gives the Petersen graph
_PETERSEN_CERTIFICATE = "10|0-1,0-2,0-3,1-4,1-5,2-6,2-7,3-8,3-9,4-6,4-8,5-7,5-9,6-9,7-8"


def petersen() -> CubicGraph:
    """The Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes.

    Its certificate is stored as a constant, so comparing a graph with
    it runs no search on the Petersen side."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return _store_canonical(from_edge_list(10, outer + inner + spokes), _PETERSEN_CERTIFICATE)


def relabeled(g: CubicGraph, mapping: Sequence[int]) -> CubicGraph:
    """Apply a vertex permutation; edge ids keep their input order."""
    if sorted(mapping) != list(range(g.n)):
        raise ValueError("mapping is not a permutation of the vertex set")
    return from_edge_list(g.n, [(mapping[u], mapping[v]) for u, v in g.edges])


def canonical_form(g: CubicGraph) -> str:
    """The certificate: vertex count, then the lexicographically smallest
    sorted edge list over all relabelings, as ``"n|u-v,u-v,..."``.
    Equal exactly for isomorphic graphs."""
    return g._canonical


def is_isomorphic(g: CubicGraph, h: CubicGraph) -> bool:
    """True iff an edge-multiplicity-preserving vertex bijection exists."""
    return g.n == h.n and g._canonical == h._canonical


def is_canonical_labeling(g: CubicGraph) -> bool:
    """True iff g's own labeling is the canonical one: each vertex's
    sorted higher neighbors form the minimal block of its label. Equal
    blocks mean equal sorted edge lists, since every edge carries its
    lower label; the search stops at the first block that differs."""
    upward: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in sorted(g.edges):
        upward[u].append(v)
    search = _lexmin_blocks(g.n, g.neighbor_lists)
    return all(blk == tuple(up) for (blk, _), up in zip(search, upward))


def _store_canonical(g: CubicGraph, certificate: str) -> CubicGraph:
    """g, with ``certificate``, which the caller knows to be g's, stored
    in the slot that ``_canonical`` caches into."""
    g.__dict__["_canonical"] = certificate
    return g


def _certificate(n: int, edges: Iterable[tuple[int, int]]) -> str:
    """The vertex count, then the sorted edge list as ``u-v`` pairs."""
    return f"{n}|" + ",".join(f"{u}-{v}" for u, v in edges)


def _ranked(row: Sequence[int]) -> list[tuple[int, int]]:
    """A vertex's (neighbor, multiplicity) pairs, highest multiplicity first."""
    mult = {w: row.count(w) for w in row}
    return sorted(mult.items(), key=lambda pair: -pair[1])


def _cell_end(start: list[int], order: list[int], s: int) -> int:
    """One past the last label of the cell that starts at label s."""
    end = s + 1
    while end < len(order) and start[order[end]] == s:
        end += 1
    return end


def _split(start: list[int], order: list[int], s: int, hits: list[tuple[int, int]]) -> None:
    """Reorder the cell that starts at label s: the hit vertices first, in
    their order, then the rest; each run of equal multiplicity becomes a cell."""
    past = s + len(hits)
    if hits[0][1] == hits[-1][1] and (past == len(order) or start[order[past]] != s):
        return  # the hits fill the cell with one multiplicity
    end = _cell_end(start, order, s)
    hit = [w for w, _ in hits]
    rest = [(w, 0) for w in order[s:end] if w not in hit]
    first = prev = -1
    for pos, (w, m) in enumerate(hits + rest, s):
        if m != prev:
            first, prev = pos, m
        order[pos] = w
        start[w] = first


def _min_block(
    ranked: list[tuple[int, int]], level: int, start: list[int], base: int
) -> tuple[tuple[int, ...], dict[int, list[tuple[int, int]]]]:
    """The block of a record whose vertex, with neighbors ``ranked``,
    takes label ``level`` while ``base`` labels are in use, and its
    neighbors per cell, keyed by first label; the unlabeled ones form a
    new cell at ``base``. Higher multiplicities take lower labels."""
    labels: list[int] = []
    touched: dict[int, list[tuple[int, int]]] = {}
    for pair in ranked:
        s = start[pair[0]]
        if s < 0:
            s = base
        elif s < level:
            continue
        elif s == level:
            s += 1  # the rest of x's own cell
        hits = touched.setdefault(s, [])
        labels += [s + len(hits)] * pair[1]
        hits.append(pair)
    return tuple(sorted(labels)), touched


def _refine(
    level: int, x: int, start: list[int], order: list[int], touched: dict[int, list[tuple[int, int]]]
) -> tuple[list[int], list[int]]:
    """New (start, order) once x's minimal block ties: x holds label
    ``level``, and the cells after it hold the relabelings reaching it."""
    base = len(order)
    start = start.copy()
    order = order + [w for w, _ in touched.get(base, ())]
    for w in order[base:]:
        start[w] = base
    if level + 1 < base and start[order[level + 1]] == level:
        _split(start, order, level, [(x, 1)])
    for s, hits in touched.items():
        _split(start, order, s, hits)
    return start, order


def _lexmin_blocks(
    n: int, adj: Sequence[Sequence[int]]
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Yield, for t = 0..n-1, the minimal block of label t and the order
    of a relabeling reaching blocks 0..t. Only the records whose block is
    the minimum are refined; ``start`` and ``order`` hold the last one."""
    ranked = [_ranked(row) for row in adj]
    start, order = [-1] * n, []
    for t in range(n):
        if t == len(order):
            # a component opens at any unlabeled vertex
            records = [(r, start[:r] + [t] + start[r + 1:], order + [r])
                       for r in range(n) if start[r] < 0]
        best, ties = None, []
        for x, start, order in records:
            blk, touched = _min_block(ranked[x], t, start, len(order))
            if best is None or blk < best:
                best, ties = blk, [(x, start, order, touched)]
            elif blk == best:
                ties.append((x, start, order, touched))
        records = []
        for x, start, order, touched in ties:
            start, order = _refine(t, x, start, order, touched)
            if len(order) == t + 1:
                # The component closed in every tie with the same blocks, so
                # the unlabeled rests are isomorphic. The first tie keeps the
                # labeling; the rest would multiply the work per component.
                break
            records += [(w, start, order) for w in order[t + 1:_cell_end(start, order, t + 1)]]
        yield best, order
