"""Cuts, connectivity, girth, and small-cycle pattern detectors.

All functions are pure and operate on immutable graphs. Detectors
return the lexicographically smallest witness so that reports and
golden tests are stable.
"""

from __future__ import annotations

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


def is_connected(g: CubicGraph) -> bool:
    return max(_components(g, ())) == 0


def _components(g: CubicGraph, removed: tuple[int, ...]) -> list[int]:
    """Component index of each vertex of G minus the ``removed`` edge ids,
    numbered in order of each component's smallest vertex."""
    comp = [-1] * g.n
    count = 0
    for start in range(g.n):
        if comp[start] >= 0:
            continue
        comp[start] = count
        stack = [start]
        while stack:
            u = stack.pop()
            for w, eid in g.adjacency[u]:
                if comp[w] < 0 and eid not in removed:
                    comp[w] = count
                    stack.append(w)
        count += 1
    return comp


def bridges(g: CubicGraph) -> list[int]:
    """Edge ids whose removal increases the component count, ascending."""
    # DFS low-link; an edge is a bridge iff no back edge (other than
    # itself) spans it, which makes parallel copies non-bridges.
    preorder = [-1] * g.n
    low = [0] * g.n
    found: list[int] = []
    counter = 0

    def visit(root: int) -> None:
        nonlocal counter
        stack: list[tuple[int, int | None, int]] = [(root, None, 0)]
        preorder[root] = low[root] = counter
        counter += 1
        while stack:
            u, via, idx = stack.pop()
            entries = g.adjacency[u]
            if idx < len(entries):
                stack.append((u, via, idx + 1))
                w, eid = entries[idx]
                if eid == via:
                    continue
                if preorder[w] < 0:
                    preorder[w] = low[w] = counter
                    counter += 1
                    stack.append((w, eid, 0))
                else:
                    low[u] = min(low[u], preorder[w])
            else:
                if via is not None:
                    parent = g.other_endpoint(via, u)
                    low[parent] = min(low[parent], low[u])
                    if low[u] == preorder[u]:
                        found.append(via)

    for v in range(g.n):
        if preorder[v] < 0:
            visit(v)
    return sorted(found)


def edge_connectivity(g: CubicGraph) -> int:
    """Size of a minimum edge cut; in {1, 2, 3} for connected cubic graphs.

    Computed as the minimum over targets t of the maximum number of
    edge-disjoint 0-t paths (unit-capacity max-flow).
    """
    if not is_connected(g):
        raise DisconnectedError("edge connectivity requires a connected graph")
    best = 3  # min degree bounds any cut
    for t in range(1, g.n):
        best = min(best, _max_edge_disjoint_paths(g, 0, t, stop_at=best))
        if best == 1:
            break
    return best


def _max_edge_disjoint_paths(g: CubicGraph, s: int, t: int, stop_at: int = 3) -> int:
    # residual capacity per (edge id, direction); an undirected edge is a
    # pair of opposite unit arcs, flow cancellation handles reuse
    cap: dict[tuple[int, int], int] = {}
    for eid, (u, v) in enumerate(g.edges):
        cap[(eid, u)] = 1  # arc u -> v
        cap[(eid, v)] = 1  # arc v -> u
    flow = 0
    while flow < stop_at:
        parent: dict[int, tuple[int, int]] = {s: (-1, s)}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for w, eid in g.adjacency[u]:
                if w not in parent and cap[(eid, u)] > 0:
                    parent[w] = (eid, u)
                    queue.append(w)
        if t not in parent:
            break
        node = t
        while node != s:
            eid, prev = parent[node]
            cap[(eid, prev)] -= 1
            cap[(eid, node)] += 1
            node = prev
        flow += 1
    return flow


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
    """Lexicographically smallest cycle on k distinct vertices, k in {3, 4}."""
    if k not in (3, 4):
        raise ValueError(f"k must be 3 or 4, got {k}")
    nbr = _simple_neighbor_sets(g)
    if k == 3:
        for a in range(g.n):
            for b in sorted(nbr[a]):
                if b <= a:
                    continue
                for c in sorted(nbr[a] & nbr[b]):
                    if c > b:
                        return (a, b, c)
        return None
    for a in range(g.n):
        for b in sorted(nbr[a]):
            if b <= a:
                continue
            for c in sorted(nbr[b]):
                if c <= a or c == b:
                    continue
                for d in sorted(nbr[c] & nbr[a]):
                    # b < d keeps one orientation of the cycle a-b-c-d
                    if d <= b or d == a or d == c:
                        continue
                    return (a, b, c, d)
    return None


def edge_cuts(g: CubicGraph, k: int) -> Iterator[CutSet]:
    """Every edge cut of size exactly k, each with its two sides, ordered
    by sorted cut edge ids.

    A k-subset of edges is a cut iff the components of G minus the
    subset can be 2-coloured so that every subset edge crosses. G is
    connected, so the subset edges join those components into a
    connected graph, which has at most one such colouring with vertex
    0 on ``side_u``: each subset bounds at most one bipartition, and
    every bipartition is found once, from its own boundary. Sides need
    not be connected, which matters below k-edge-connectivity.
    Costs O(m^k * (n + m)).
    """
    if not is_connected(g):
        raise DisconnectedError("cut enumeration requires a connected graph")
    for subset in combinations(range(len(g.edges)), k):
        comp = _components(g, subset)
        arcs = [(comp[g.edges[eid][0]], comp[g.edges[eid][1]]) for eid in subset]
        side = {0: True}
        # at most k components wait for a colour, and each pass colours
        # at least one of them
        for _ in subset:
            for a, b in arcs:
                if a in side:
                    side.setdefault(b, not side[a])
                if b in side:
                    side.setdefault(a, not side[b])
        if any(side[a] == side[b] for a, b in arcs):
            continue  # some subset edge lies inside one side
        yield CutSet(
            edges=frozenset(subset),
            side_u=tuple(v for v in range(g.n) if side[comp[v]]),
            side_ubar=tuple(v for v in range(g.n) if not side[comp[v]]),
        )


def enumerate_3_edge_cuts(g: CubicGraph) -> list[CutSet]:
    """All edge cuts of size exactly 3; see ``edge_cuts``."""
    return list(edge_cuts(g, 3))


def has_only_trivial_3_edge_cuts(g: CubicGraph) -> bool:
    """True iff every 3-edge-cut isolates a single vertex (is a vertex star)."""
    return all(cut.is_vertex_star for cut in enumerate_3_edge_cuts(g))
