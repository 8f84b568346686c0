"""Cuts, connectivity, girth, and small-cycle pattern detectors.

All functions are pure and operate on immutable graphs. Detectors
return the lexicographically smallest witness so that reports and
golden tests are stable. Connectivity, bridges, edge connectivity and
edge cuts all read one labeling: each edge's set of fundamental cycles
as a bitmask, under which an edge set is a cut iff its labels XOR to 0.
The spanning tree that the labeling is built on also gives each cut's
two sides, read down the tree from vertex 0.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import DisconnectedError
from .graphs import CubicGraph

__all__ = [
    "CutSet",
    "is_connected",
    "bridges",
    "edge_connectivity",
    "girth",
    "find_two_cycle",
    "find_adjacent_triangles",
    "find_square_triangle_pair",
    "find_cycle_of_length",
    "edge_cuts",
    "enumerate_3_edge_cuts",
    "has_only_trivial_3_edge_cuts",
]


@dataclass(frozen=True)
class CutSet:
    """An edge cut together with the two sides it separates.

    Removing ``edges`` disconnects ``side_u`` from ``side_ubar``; the
    sides partition the vertex set and every cut edge crosses between
    them.
    """

    edges: frozenset[int]
    side_u: tuple[int, ...]
    side_ubar: tuple[int, ...]

    @property
    def is_vertex_star(self) -> bool:
        return len(self.side_u) == 1 or len(self.side_ubar) == 1


def _cycle_labels(g: CubicGraph) -> tuple[int, list[int], list[int], list[int]]:
    """Component count; per edge id, the set of fundamental cycles
    through that edge as a bitmask; and the BFS spanning forest the
    labels come from, as the tree edge into each vertex (-1 at a root)
    and the visit order, which puts every vertex after its parent.

    A BFS spanning forest is built; the i-th non-tree edge gets bit
    ``1 << i`` (its own fundamental cycle), and the tree edge into v
    gets the XOR of the non-tree bits at the vertices of v's subtree,
    accumulated in reverse BFS order: a fundamental cycle passes
    through that tree edge iff exactly one end of its non-tree edge
    lies in the subtree.

    An edge set is an edge cut (the edges between some vertex set and
    its complement) iff it meets every cycle an even number of times.
    The fundamental cycles span the cycle space, so a set is a cut iff
    the XOR of its labels is 0 (after Pritchard and Thurimella, "Fast
    computation of small cuts via cycle space sampling", ACM TALG 2011,
    with one bit per fundamental cycle instead of a random sample, so
    the test is exact). In particular the bridges are the edges with
    label 0, and two edges form a cut iff their labels are equal.
    """
    via = [-1] * g.n  # tree edge into each vertex, -1 at a root
    seen = [False] * g.n
    order: list[int] = []
    count = 0
    for root in range(g.n):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w, eid in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    via[w] = eid
                    queue.append(w)
    tree = set(via)
    labels = [0] * len(g.edges)
    acc = [0] * g.n  # XOR of the non-tree bits in each vertex's subtree
    bit = 1
    for eid, (u, v) in enumerate(g.edges):
        if eid not in tree:
            labels[eid] = bit
            acc[u] ^= bit
            acc[v] ^= bit
            bit <<= 1
    for v in reversed(order):
        if via[v] >= 0:
            labels[via[v]] = acc[v]
            acc[g.other_endpoint(via[v], v)] ^= acc[v]
    return count, labels, via, order


def is_connected(g: CubicGraph) -> bool:
    return _cycle_labels(g)[0] == 1


def bridges(g: CubicGraph) -> list[int]:
    """Edge ids whose removal increases the component count, ascending."""
    return [eid for eid, label in enumerate(_cycle_labels(g)[1]) if label == 0]


def edge_connectivity(g: CubicGraph) -> int:
    """Size of a minimum edge cut; in {1, 2, 3} for connected cubic graphs.

    1 if some edge is a bridge, 2 if two edges share a label (see
    ``_cycle_labels``), else 3, which every vertex star reaches.
    """
    count, labels, _, _ = _cycle_labels(g)
    if count != 1:
        raise DisconnectedError("edge connectivity requires a connected graph")
    if 0 in labels:
        return 1
    return 2 if len(set(labels)) < len(labels) else 3


def girth(g: CubicGraph) -> int:
    """Length of the shortest cycle; a parallel edge pair has girth 2."""
    if g.has_parallel_edges:
        return 2
    best = g.n + 1
    for start in range(g.n):
        dist = [-1] * g.n
        via = [-1] * g.n
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                continue
            for w, eid in g.adjacency[u]:
                if eid == via[u]:
                    continue
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    via[w] = eid
                    queue.append(w)
                else:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def find_two_cycle(g: CubicGraph) -> tuple[int, int] | None:
    """Smallest pair of parallel edge ids, or None if the graph is simple."""
    seen: dict[tuple[int, int], int] = {}
    for eid, pair in enumerate(g.edges):
        if pair in seen:
            return (seen[pair], eid)
        seen[pair] = eid
    return None


def _simple_neighbor_sets(g: CubicGraph) -> list[set[int]]:
    return [set(nbrs) for nbrs in g.neighbor_lists]


def find_adjacent_triangles(g: CubicGraph) -> tuple[int, int, tuple[int, int]] | None:
    """Two triangles sharing an edge, as (u, u', shared edge (v, w))."""
    nbr = _simple_neighbor_sets(g)
    for v, w in sorted(set(g.edges)):
        commons = sorted(nbr[v] & nbr[w])
        if len(commons) >= 2:
            return (commons[0], commons[1], (v, w))
    return None


def find_square_triangle_pair(
    g: CubicGraph,
) -> tuple[tuple[int, int, int, int], tuple[int, int, int], tuple[int, int]] | None:
    """A 4-cycle and a triangle on five distinct vertices sharing one edge.

    Returns (square as cycle u-v-x-w, triangle as cycle v-y-x, shared
    edge (v, x)), lexicographically smallest in (v, x, y, u, w).
    """
    nbr = _simple_neighbor_sets(g)
    for v, x in sorted(set(g.edges)):
        apexes = sorted(nbr[v] & nbr[x])
        if not apexes:
            continue
        for y in apexes:
            for u in sorted(nbr[v] - {x, y}):
                for w in sorted(nbr[x] - {v, y, u}):
                    if u in nbr[w]:
                        return ((u, v, x, w), (v, y, x), (v, x))
    return None


def find_cycle_of_length(g: CubicGraph, k: int) -> tuple[int, ...] | None:
    """Lexicographically smallest cycle on k distinct vertices, k in {3, 4}.

    Paths grow from each a through higher vertices in ascending order, so
    the first that closes back to a with path[1] < path[-1] (one
    orientation) is the smallest.
    """
    if k not in (3, 4):
        raise ValueError(f"k must be 3 or 4, got {k}")
    nbr = [sorted(row) for row in _simple_neighbor_sets(g)]

    def cycles(path: list[int]) -> Iterator[tuple[int, ...]]:
        if len(path) == k:
            if path[1] < path[-1] and path[0] in nbr[path[-1]]:
                yield tuple(path)
            return
        for w in nbr[path[-1]]:
            if w > path[0] and w not in path:
                yield from cycles(path + [w])

    return next((c for a in range(g.n) for c in cycles([a])), None)


def edge_cuts(g: CubicGraph, k: int) -> Iterator[CutSet]:
    """Every edge cut of size exactly k >= 1, each with its two sides,
    ordered by sorted cut edge ids.

    A k-subset is a cut iff its labels XOR to 0 (see ``_cycle_labels``).
    The (k-1)-subsets are walked in ``combinations`` order, and each is
    completed by every higher edge id whose label cancels the subset's
    XOR, looked up by label. The sides are read down the labeling's BFS
    tree from vertex 0, which is in ``side_u``: a vertex switches side
    from its parent when its tree edge is in the cut. A cut meets every
    cycle evenly, so every path gives a vertex the same side, and the
    tree path is one. Sides need not be connected, which matters below
    k-edge-connectivity. A bad k or a disconnected graph raises at the
    call, before the first cut.
    """
    if k < 1:
        raise ValueError(f"cut size k must be at least 1, got k={k}")
    count, labels, via, order = _cycle_labels(g)
    if count != 1:
        raise DisconnectedError("cut enumeration requires a connected graph")
    return _labeled_cuts(g, labels, via, order, k)


def _labeled_cuts(
    g: CubicGraph, labels: list[int], via: list[int], order: list[int], k: int
) -> Iterator[CutSet]:
    # (vertex, parent, tree edge) below the root 0, parents first
    tree = [(v, g.other_endpoint(via[v], v), via[v]) for v in order[1:]]
    by_label: dict[int, list[int]] = {}
    for eid, label in enumerate(labels):
        by_label.setdefault(label, []).append(eid)
    for prefix in combinations(range(len(labels)), k - 1):
        rest = 0
        for eid in prefix:
            rest ^= labels[eid]
        last = by_label.get(rest, ())
        for eid in last[bisect_right(last, prefix[-1]) if prefix else 0 :]:
            cut = (*prefix, eid)
            side = [1] * g.n
            for v, parent, e in tree:
                side[v] = side[parent] ^ (e in cut)
            yield CutSet(
                edges=frozenset(cut),
                side_u=tuple(v for v in range(g.n) if side[v]),
                side_ubar=tuple(v for v in range(g.n) if not side[v]),
            )


def enumerate_3_edge_cuts(g: CubicGraph) -> list[CutSet]:
    """All edge cuts of size exactly 3; see ``edge_cuts``."""
    return list(edge_cuts(g, 3))


def has_only_trivial_3_edge_cuts(g: CubicGraph) -> bool:
    """True iff every 3-edge-cut isolates a single vertex (is a vertex star)."""
    return all(cut.is_vertex_star for cut in enumerate_3_edge_cuts(g))
