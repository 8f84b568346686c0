"""Perfect matchings, complementary 2-factors, and cycle spectra.

In a cubic graph the complement of a perfect matching is always a
2-factor and vice versa, so 2-factor questions are answered through
perfect matching enumeration. Matchings are sets of edge ids, which
keeps parallel edges distinct.

One depth-first search over vertex bitmasks, ``_perfect_matchings``,
serves every caller. It cuts a branch as soon as an uncovered vertex
next to the two just matched has no uncovered neighbor left. Only
subtrees without a perfect matching are cut, so enumeration order,
the premise witness and every ``exists_*`` answer are those of the
plain search; the test suite keeps the plain search as an ordered
oracle.

Everything here is a pure function of an immutable graph; enumeration
results are value snapshots, safe to share across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import MatchingError, MultigraphError
from .graphs import CubicGraph

__all__ = [
    "PerfectMatching",
    "FactorCycle",
    "TwoFactor",
    "CycleSpectrum",
    "TutteCheck",
    "tutte_condition",
    "exists_perfect_matching",
    "enumerate_perfect_matchings",
    "complementary_two_factor",
    "cycle_spectrum",
    "five_cycle_premise_witness",
    "all_two_factors_are_five_cycles",
    "exists_pm_with_edge",
    "exists_pm_avoiding_edge",
    "exists_pm_with_edge_pair",
    "exists_two_factor_through_edges",
    "exists_triangle_free_two_factor",
]

PerfectMatching = frozenset[int]
CycleSpectrum = tuple[int, ...]


@dataclass(frozen=True)
class FactorCycle:
    """One cycle of a 2-factor: vertices in cyclic order plus the edge ids.

    ``edge_ids[i]`` connects ``vertices[i]`` to ``vertices[(i+1) % k]``.
    A parallel edge pair forms a valid cycle of length 2.
    """

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class TwoFactor:
    """Spanning disjoint cycles: the complement of a perfect matching."""

    cycles: tuple[FactorCycle, ...]

    @property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(eid for cycle in self.cycles for eid in cycle.edge_ids)


class TutteCheck(NamedTuple):
    odd_components: int
    satisfied: bool


def tutte_condition(g: CubicGraph, subset: set[int]) -> TutteCheck:
    """Count odd components of g - S and compare against |S|.

    The graph has a perfect matching iff the check is satisfied for
    every vertex subset S.
    """
    removed = set(subset)
    if not removed <= set(range(g.n)):
        raise ValueError("subset contains vertices outside the graph")
    seen = [False] * g.n
    odd = 0
    for start in range(g.n):
        if seen[start] or start in removed:
            continue
        size = 0
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            size += 1
            for w, _ in g.adjacency[u]:
                if not seen[w] and w not in removed:
                    seen[w] = True
                    stack.append(w)
        odd += size % 2
    return TutteCheck(odd_components=odd, satisfied=odd <= len(removed))


def _perfect_matchings(g: CubicGraph) -> Iterator[PerfectMatching]:
    """Depth-first enumeration over vertex bitmasks, branching on the
    lowest uncovered vertex and cutting dead ends.

    Branches follow ascending (neighbor, edge id) order, so the output
    order is deterministic; parallel edges are explored as distinct
    branches. Matching v to w takes one option away from each other
    neighbor of v and of w, and only from them. A branch is cut when
    one of those neighbors is still uncovered but has no uncovered
    neighbor left: that vertex can never be matched, so the cut subtree
    holds no perfect matching, and the matchings that remain come out in
    the same order as from the search without the cut.
    """
    full = (1 << g.n) - 1
    bit = [1 << v for v in range(g.n)]
    nbrs = g.neighbor_lists
    neighbor_mask = [bit[a] | bit[b] | bit[c] for a, b, c in nbrs]
    watch = [
        ((bit[a], neighbor_mask[a]), (bit[b], neighbor_mask[b]), (bit[c], neighbor_mask[c]))
        for a, b, c in nbrs
    ]
    # per vertex v, one (bit of w, edge id, watched) per edge vw in
    # adjacency order; watched pairs each neighbor of v and of w with its
    # neighbor mask, v and w included: the cut skips them as covered
    branches = [
        [(bit[w], eid, watch[v] + watch[w]) for w, eid in row]
        for v, row in enumerate(g.adjacency)
    ]
    chosen: list[int] = []

    def extend(covered: int) -> Iterator[PerfectMatching]:
        if covered == full:
            yield frozenset(chosen)
            return
        lowest = ~covered & (covered + 1)
        covered |= lowest
        for w_bit, eid, watched in branches[lowest.bit_length() - 1]:
            if covered & w_bit:
                continue
            now = covered | w_bit
            for u_bit, mask in watched:
                if not u_bit & now and mask | now == now:
                    break
            else:
                chosen.append(eid)
                yield from extend(now)
                chosen.pop()

    yield from extend(0)


def enumerate_perfect_matchings(g: CubicGraph) -> tuple[PerfectMatching, ...]:
    """All perfect matchings as edge-id sets, in deterministic order."""
    return tuple(_perfect_matchings(g))


def exists_perfect_matching(g: CubicGraph) -> bool:
    return next(_perfect_matchings(g), None) is not None


def complementary_two_factor(g: CubicGraph, matching: PerfectMatching) -> TwoFactor:
    """Decompose the complement of a perfect matching into cycles.

    Each cycle starts at its smallest vertex and walks toward the
    smaller (neighbor, edge id) entry first; cycles are ordered by
    their smallest vertex. Raises ``MatchingError`` unless every id is
    an edge id and every vertex keeps exactly two non-matching entries,
    which in a cubic graph holds exactly when the ids are a perfect
    matching.
    """
    for eid in matching:
        if not 0 <= eid < len(g.edges):
            raise MatchingError(f"edge id {eid} out of range")
    # g.adjacency is sorted by (neighbor, edge id), and so is each row here
    factor_adj = [[entry for entry in row if entry[1] not in matching] for row in g.adjacency]
    for v, entries in enumerate(factor_adj):
        if len(entries) != 2:
            raise MatchingError(f"matching covers vertex {v} {3 - len(entries)} times, not once")
    cycles = []
    visited = [False] * g.n
    for start in range(g.n):
        if visited[start]:
            continue
        vertices = [start]
        edge_ids = []
        visited[start] = True
        current, via = factor_adj[start][0]
        edge_ids.append(via)
        while current != start:
            visited[current] = True
            vertices.append(current)
            first, second = factor_adj[current]
            nxt, eid = second if first[1] == via else first
            edge_ids.append(eid)
            current, via = nxt, eid
        cycles.append(FactorCycle(vertices=tuple(vertices), edge_ids=tuple(edge_ids)))
    return TwoFactor(cycles=tuple(cycles))


def cycle_spectrum(factor: TwoFactor) -> CycleSpectrum:
    """Sorted multiset of cycle lengths; the sum is the vertex count."""
    return tuple(sorted(len(cycle) for cycle in factor.cycles))


def five_cycle_premise_witness(g: CubicGraph) -> dict | None:
    """None iff g has a perfect matching and every complementary 2-factor
    splits into 5-cycles only; otherwise a JSON-ready witness.

    The witness is ``{"reason": "no perfect matching"}`` for a graph
    without one, which keeps it from passing vacuously, or
    ``{"matching": [edge ids, ascending], "spectrum": [cycle lengths]}``
    for the first matching, in enumeration order, whose 2-factor has a
    cycle of another length.
    """
    found = False
    for matching in _perfect_matchings(g):
        found = True
        spectrum = cycle_spectrum(complementary_two_factor(g, matching))
        if any(length != 5 for length in spectrum):
            return {"matching": sorted(matching), "spectrum": list(spectrum)}
    return None if found else {"reason": "no perfect matching"}


def all_two_factors_are_five_cycles(g: CubicGraph) -> bool:
    """The all-5-cycle premise: ``five_cycle_premise_witness`` finds none."""
    return five_cycle_premise_witness(g) is None


def exists_pm_with_edge(g: CubicGraph, eid: int) -> bool:
    """Some perfect matching contains the edge with this id."""
    return any(eid in m for m in _perfect_matchings(g))


def exists_pm_avoiding_edge(g: CubicGraph, eid: int) -> bool:
    """Some perfect matching avoids the edge with this id."""
    return any(eid not in m for m in _perfect_matchings(g))


def exists_pm_with_edge_pair(g: CubicGraph, eid: int, fid: int) -> bool:
    """Some perfect matching contains both edges; they must be disjoint."""
    if eid == fid:
        raise ValueError("the two edges must be distinct")
    if set(g.edges[eid]) & set(g.edges[fid]):
        raise ValueError("the two edges must not share an endpoint")
    return any(eid in m and fid in m for m in _perfect_matchings(g))


def exists_two_factor_through_edges(g: CubicGraph, eid: int, fid: int) -> bool:
    """Some 2-factor contains both edges, i.e. some matching avoids both."""
    if eid == fid:
        raise ValueError("the two edges must be distinct")
    return any(eid not in m and fid not in m for m in _perfect_matchings(g))


def exists_triangle_free_two_factor(g: CubicGraph) -> bool:
    """Some 2-factor has minimum cycle length >= 4; simple graphs only."""
    if g.has_parallel_edges:
        raise MultigraphError("triangle-free 2-factor check is defined for simple graphs")
    return any(
        cycle_spectrum(complementary_two_factor(g, m))[0] >= 4
        for m in _perfect_matchings(g)
    )
