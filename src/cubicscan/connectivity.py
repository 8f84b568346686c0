"""Cuts, connectivity, girth, and small-cycle pattern detectors.

All functions are pure and operate on immutable graphs. Each detector
returns the witness that ``verify`` prints for its claim (C1 to C4, C5
at girth 4, C6 and C7), or None when the claim holds; the witness is
fixed by the labeling alone, so that reports and golden tests are
stable. Connectivity, bridges, edge connectivity and edge cuts all read
one labeling: each edge's set of fundamental cycles as a bitmask, under
which an edge set is a cut iff its labels XOR to 0. The labeling is
built once per graph and kept on it, as ``adjacency`` is, so a graph
asked several cut questions builds it once. A cut is the ascending
tuple of its edge ids.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import combinations
from typing import Iterator

from .graphs import CubicGraph, CubicGraphError

__all__ = [
    "is_connected",
    "bridges",
    "edge_connectivity",
    "girth",
    "find_two_cycle",
    "find_adjacent_triangles",
    "find_square_triangle_pair",
    "find_cycle_of_length",
    "enumerate_3_edge_cuts",
    "find_small_edge_cut",
    "find_nonstar_3_edge_cut",
]


_CycleLabels = tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _cycle_labels(g: CubicGraph) -> _CycleLabels:
    """``_build_cycle_labels(g)``, built on the first call for g and kept
    in g's instance dict, where ``cached_property`` keeps ``adjacency``."""
    labels = g.__dict__.get("_cycle_labels")
    if labels is None:
        labels = g.__dict__["_cycle_labels"] = _build_cycle_labels(g)
    return labels


def _build_cycle_labels(g: CubicGraph) -> _CycleLabels:
    """Component count; per edge id, the set of fundamental cycles
    through that edge as a bitmask; and the BFS spanning forest the
    labels come from, as the tree edge into each vertex and each
    vertex's parent (both -1 at a root), and the visit order, which puts
    every vertex after its parent.

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
    parent = [-1] * g.n
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
                    parent[w] = u
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
            acc[parent[v]] ^= acc[v]
    return count, tuple(labels), tuple(via), tuple(parent), tuple(order)


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
    count, labels, *_ = _cycle_labels(g)
    if count != 1:
        raise CubicGraphError("edge connectivity requires a connected graph")
    if 0 in labels:
        return 1
    return 2 if len(set(labels)) < len(labels) else 3


def girth(g: CubicGraph) -> int:
    """Length of the shortest cycle; a parallel edge pair has girth 2."""
    if g.has_parallel_edges:
        return 2
    best = g.n + 1
    for start in range(g.n):
        if best == 3:  # a simple graph has no shorter cycle
            break
        dist = [-1] * g.n
        via = [-1] * g.n
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            # the queue is in distance order: no later vertex closes a shorter cycle
            if 2 * dist[u] >= best:
                break
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


def find_two_cycle(g: CubicGraph) -> dict | None:
    """C1's witness, ``{"parallel_edge_ids": [a, b]}`` for the first pair
    of parallel edge ids, or None if the graph is simple.

    It is the first repeated endpoint pair in edge-id order, not the
    smallest pair: on edges (0,1), (2,3), (2,3), (0,1), ... it is
    [1, 2], not [0, 3].
    """
    seen: dict[tuple[int, int], int] = {}
    for eid, pair in enumerate(g.edges):
        if pair in seen:
            return {"parallel_edge_ids": [seen[pair], eid]}
        seen[pair] = eid
    return None


def _simple_neighbor_sets(g: CubicGraph) -> list[set[int]]:
    return [set(nbrs) for nbrs in g.neighbor_lists]


def find_adjacent_triangles(g: CubicGraph) -> dict | None:
    """C2's witness, two triangles sharing an edge, as
    ``{"apexes": [u, u'], "shared_edge": [v, w]}``, or None."""
    nbr = _simple_neighbor_sets(g)
    for v, w in sorted(set(g.edges)):
        commons = sorted(nbr[v] & nbr[w])
        if len(commons) == 2:  # v's two other neighbours are the only candidates
            return {"apexes": commons, "shared_edge": [v, w]}
    return None


def find_square_triangle_pair(g: CubicGraph) -> dict | None:
    """C3's witness, a 4-cycle and a triangle on five distinct vertices
    sharing one edge, or None.

    Returns ``{"square": [u, v, x, w], "triangle": [v, y, x],
    "shared_edge": [v, x]}``, each cycle in its walking order,
    lexicographically smallest in (v, x, y, u, w).
    """
    nbr = _simple_neighbor_sets(g)
    for v, x in sorted(set(g.edges)):
        for y in sorted(nbr[v] & nbr[x]):
            for u in sorted(nbr[v] - {x, y}):
                for w in sorted(nbr[x] - {v, y, u}):
                    if u in nbr[w]:
                        return dict(square=[u, v, x, w], triangle=[v, y, x], shared_edge=[v, x])
    return None


def find_cycle_of_length(g: CubicGraph, k: int) -> dict | None:
    """``{"cycle": [...]}`` for the lexicographically smallest cycle on k
    distinct vertices, k in {3, 4}, or None: C4's witness at k = 3, and
    C5's at girth 4 for k = 4.

    Paths grow from each a through higher vertices in ascending order, so
    the first that closes back to a with path[1] < path[-1] (one
    orientation) is the smallest.
    """
    if k not in (3, 4):
        raise ValueError(f"k must be 3 or 4, got {k}")
    nbr = [sorted(row) for row in _simple_neighbor_sets(g)]

    def cycles(path: list[int]) -> Iterator[dict]:
        if len(path) == k:
            if path[1] < path[-1] and path[0] in nbr[path[-1]]:
                yield {"cycle": path}
            return
        for w in nbr[path[-1]]:
            if w > path[0] and w not in path:
                yield from cycles(path + [w])

    return next((c for a in range(g.n) for c in cycles([a])), None)


def _labeled_cuts(labels: tuple[int, ...], k: int) -> Iterator[tuple[int, ...]]:
    """Every edge cut of size exactly k >= 1 of the connected graph these
    ``_cycle_labels`` labels come from, as its ascending edge ids, in
    ``combinations`` order.

    A k-subset is a cut iff its labels XOR to 0 (see ``_cycle_labels``).
    The (k-1)-subsets are walked in ``combinations`` order, and each is
    completed by every higher edge id whose label cancels the subset's
    XOR, looked up by label.
    """
    by_label: dict[int, list[int]] = {}
    for eid, label in enumerate(labels):
        by_label.setdefault(label, []).append(eid)
    for prefix in combinations(range(len(labels)), k - 1):
        rest = 0
        for eid in prefix:
            rest ^= labels[eid]
        last = by_label.get(rest, ())
        for eid in last[bisect_right(last, prefix[-1]) if prefix else 0 :]:
            yield (*prefix, eid)


def enumerate_3_edge_cuts(g: CubicGraph) -> list[tuple[int, ...]]:
    """All edge cuts of size exactly 3; see ``_labeled_cuts``."""
    count, labels, *_ = _cycle_labels(g)
    if count != 1:
        raise CubicGraphError("cut enumeration requires a connected graph")
    return list(_labeled_cuts(labels, 3))


def _cut_side(g: CubicGraph, cut: tuple[int, ...]) -> list[int]:
    """The side of an edge cut of a connected graph that holds vertex 0,
    ascending.

    A vertex switches side from its parent in the BFS tree of
    ``_cycle_labels`` when its tree edge is in the cut. A cut meets
    every cycle evenly, so every path gives a vertex the same side, and
    the tree path is one. A side need not be connected; tree parity,
    not a search of G - cut from vertex 0, gives such a side whole.
    """
    _, _, via, parent, order = _cycle_labels(g)
    side = [True] * g.n
    for v in order[1:]:  # parents first, below the root 0
        side[v] = side[parent[v]] ^ (via[v] in cut)
    return [v for v in range(g.n) if side[v]]


def find_small_edge_cut(g: CubicGraph) -> dict | None:
    """C6's witness, ``{"edge_connectivity": k, "cut": [...]}`` for the
    first edge cut of the minimum size k < 3, in ``combinations`` order,
    or None if g is 3-edge-connected."""
    k = edge_connectivity(g)
    if k == 3:
        return None
    return {"edge_connectivity": k, "cut": list(next(_labeled_cuts(_cycle_labels(g)[1], k)))}


def find_nonstar_3_edge_cut(g: CubicGraph) -> dict | None:
    """C7's witness, ``{"cut_edges": [...], "side": [...]}`` for the first
    3-edge cut that is not a vertex star, with its side that holds
    vertex 0, or None if every 3-edge cut is a vertex star."""
    # in a connected graph a cut fixes its sides, so a cut is a vertex
    # star exactly when it is one vertex's three edge ids
    stars = {frozenset(eid for _, eid in row) for row in g.adjacency}
    for cut in enumerate_3_edge_cuts(g):
        if frozenset(cut) not in stars:
            return {"cut_edges": list(cut), "side": _cut_side(g, cut)}
    return None
