"""Perfect matchings, complementary 2-factors, and cycle spectra.

In a cubic graph the complement of a perfect matching is always a
2-factor and vice versa, so 2-factor questions are answered through
perfect matching enumeration. Matchings are sets of edge ids, which
keeps parallel edges distinct.

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
    """Depth-first enumeration, branching on the lowest uncovered vertex.

    Branches follow ascending (neighbor, edge id) order, so the output
    order is deterministic; parallel edges are explored as distinct
    branches.
    """
    covered = [False] * g.n
    chosen: list[int] = []

    def extend(lowest: int) -> Iterator[PerfectMatching]:
        while lowest < g.n and covered[lowest]:
            lowest += 1
        if lowest == g.n:
            yield frozenset(chosen)
            return
        covered[lowest] = True
        for w, eid in g.adjacency[lowest]:
            if covered[w]:
                continue
            covered[w] = True
            chosen.append(eid)
            yield from extend(lowest + 1)
            chosen.pop()
            covered[w] = False
        covered[lowest] = False

    yield from extend(0)


def enumerate_perfect_matchings(g: CubicGraph) -> tuple[PerfectMatching, ...]:
    """All perfect matchings as edge-id sets, in deterministic order."""
    return tuple(_perfect_matchings(g))


def exists_perfect_matching(g: CubicGraph) -> bool:
    return next(_perfect_matchings(g), None) is not None


def _validate_matching(g: CubicGraph, matching: PerfectMatching) -> None:
    covered: set[int] = set()
    for eid in matching:
        if not 0 <= eid < len(g.edges):
            raise MatchingError(f"edge id {eid} out of range")
        u, v = g.edges[eid]
        if u in covered or v in covered:
            raise MatchingError(f"edge {eid} double-covers a vertex")
        covered.update((u, v))
    if len(covered) != g.n:
        raise MatchingError("matching does not cover every vertex")


def complementary_two_factor(g: CubicGraph, matching: PerfectMatching) -> TwoFactor:
    """Decompose the complement of a perfect matching into cycles.

    Each cycle starts at its smallest vertex and walks toward the
    smaller (neighbor, edge id) entry first; cycles are ordered by
    their smallest vertex.
    """
    _validate_matching(g, matching)
    factor_adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        if eid not in matching:
            factor_adj[u].append((v, eid))
            factor_adj[v].append((u, eid))
    cycles = []
    visited = [False] * g.n
    for start in range(g.n):
        if visited[start]:
            continue
        entries = sorted(factor_adj[start])
        vertices = [start]
        edge_ids = []
        visited[start] = True
        current, via = entries[0]
        edge_ids.append(via)
        while current != start:
            visited[current] = True
            vertices.append(current)
            first, second = sorted(factor_adj[current])
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
