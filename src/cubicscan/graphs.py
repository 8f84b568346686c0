"""Cubic multigraph representation, canonical labeling, and isomorphism.

A graph is stored as an immutable edge list over dense vertex indices.
Edges are first-class: the id of an edge is its position in the edge
tuple, so parallel edges stay distinguishable. All operations in this
package treat graphs as read-only values.

Canonical form is defined as the relabeling whose sorted edge list is
lexicographically smallest over all vertex permutations. It is computed
by a level-synchronized search over "block-wise" labelings: label 0 is
assigned to a root, and whenever a vertex's adjacency is completed its
still-unlabeled neighbors receive the next consecutive labels. Every
lexicographically minimal labeling has this shape (new labels appear in
first-use order in the sorted edge list), so searching block-wise
labelings only is exhaustive. Certificates are equal exactly for
isomorphic graphs; this is cross-checked against a brute-force
permutation oracle in the test suite. The same search answers whether a
labeling is canonical: its sorted edge list must equal the certificate's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Iterable, Sequence

from .errors import DegreeError, LoopError, OddVertexCountError

__all__ = [
    "CubicGraph",
    "CanonicalForm",
    "from_edge_list",
    "petersen",
    "relabeled",
    "canonical_form",
    "is_isomorphic",
]


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
            raise OddVertexCountError(
                f"cubic graphs need an even vertex count >= 2, got n={self.n}"
            )
        if len(self.edges) != 3 * self.n // 2:
            raise DegreeError(
                f"a cubic graph on {self.n} vertices has {3 * self.n // 2} "
                f"edges, got {len(self.edges)}"
            )
        degree = [0] * self.n
        for u, v in self.edges:
            if u == v:
                raise LoopError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise DegreeError(f"edge ({u}, {v}) has an endpoint outside [0, {self.n})")
            degree[u] += 1
            degree[v] += 1
        bad = [v for v, d in enumerate(degree) if d != 3]
        if bad:
            raise DegreeError(f"vertices {bad} do not have degree 3")

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
    def _canonical(self) -> "CanonicalForm":
        blocks, order = _lexmin_blocks(self.n, self.neighbor_lists)
        labeling = [0] * self.n
        for new, old in enumerate(order):
            labeling[old] = new
        edges = [(t, w) for t, blk in enumerate(blocks) for w in blk]
        return CanonicalForm(labeling=tuple(labeling), certificate=_certificate(self.n, edges))

    def other_endpoint(self, eid: int, vertex: int) -> int:
        u, v = self.edges[eid]
        if vertex == u:
            return v
        if vertex == v:
            return u
        raise ValueError(f"vertex {vertex} is not an endpoint of edge {eid}")


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical labeling of a graph plus its isomorphism certificate.

    ``labeling[v]`` is the canonical label of vertex ``v``; applying it
    yields the lexicographically smallest edge list among all
    relabelings. Two graphs are isomorphic iff their certificates are
    equal byte strings.
    """

    labeling: tuple[int, ...]
    certificate: bytes


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> CubicGraph:
    """Build a cubic multigraph from endpoint pairs.

    Edge ids are assigned in input order. Raises a distinct
    ConstructionError subclass for odd n, loops, and degree violations.
    """
    normalized = tuple((u, v) if u < v else (v, u) for u, v in pairs)
    return CubicGraph(n=n, edges=normalized)


def petersen() -> CubicGraph:
    """The Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return from_edge_list(10, outer + inner + spokes)


def relabeled(g: CubicGraph, mapping: Sequence[int]) -> CubicGraph:
    """Apply a vertex permutation; edge ids keep their input order."""
    if sorted(mapping) != list(range(g.n)):
        raise ValueError("mapping is not a permutation of the vertex set")
    return from_edge_list(g.n, [(mapping[u], mapping[v]) for u, v in g.edges])


def canonical_form(g: CubicGraph) -> CanonicalForm:
    """Canonical labeling and certificate (invariant under relabeling)."""
    return g._canonical


def is_isomorphic(g: CubicGraph, h: CubicGraph) -> bool:
    """True iff an edge-multiplicity-preserving vertex bijection exists."""
    if g.n != h.n:
        return False
    return g._canonical.certificate == h._canonical.certificate


def is_canonical_labeling(g: CubicGraph) -> bool:
    """True iff g's own labeling is the canonical one: its sorted edge
    list is the certificate's. The canonical form stays cached on g."""
    return g._canonical.certificate == _certificate(g.n, sorted(g.edges))


def _certificate(n: int, edges: Iterable[tuple[int, int]]) -> bytes:
    """The vertex count, then the sorted edge list as ``u-v`` pairs."""
    return (f"{n}|" + ",".join(f"{u}-{v}" for u, v in edges)).encode("ascii")


def _lexmin_blocks(
    n: int, adj: Sequence[Sequence[int]]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Find the lexicographically smallest block-wise labeling.

    The "block" of label t is the sorted tuple of higher labels adjacent
    to the vertex labeled t; the concatenation of blocks is the sorted
    edge list. The search keeps, level by level, every partial labeling
    achieving the minimal block prefix, so ties (automorphisms) never
    cut off the true minimum.
    """
    frontier: list[tuple[list[int], list[int]]] = [([-1] * n, [])]
    blocks: list[tuple[int, ...]] = []
    for t in range(n):
        if t == len(frontier[0][1]):
            # A new component opens. Every tie has closed components with
            # the same blocks, so the unlabeled rests are isomorphic and
            # give the same remaining blocks. The first tie keeps the
            # labeling; the rest would multiply the work per component.
            frontier = frontier[:1]
        best_blk: tuple[int, ...] | None = None
        children: list[tuple[list[int], list[int]]] = []
        for lab, order in frontier:
            if t == len(order):
                # previous component exhausted: open a new one at any root
                starts = []
                for root in range(n):
                    if lab[root] < 0:
                        lab2 = lab.copy()
                        lab2[root] = t
                        starts.append((lab2, order + [root]))
            else:
                starts = [(lab, order)]
            for lab0, order0 in starts:
                x = order0[t]
                unlabeled = sorted({w for w in adj[x] if lab0[w] < 0})
                base = len(order0)
                for perm in permutations(unlabeled):
                    lab2 = lab0.copy()
                    for i, w in enumerate(perm):
                        lab2[w] = base + i
                    blk = tuple(sorted(lab2[w] for w in adj[x] if lab2[w] > t))
                    if best_blk is None or blk < best_blk:
                        best_blk = blk
                        children = [(lab2, order0 + list(perm))]
                    elif blk == best_blk:
                        children.append((lab2, order0 + list(perm)))
        assert best_blk is not None
        blocks.append(best_blk)
        frontier = children
    return blocks, frontier[0][1]
