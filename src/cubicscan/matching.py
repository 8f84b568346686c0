"""Perfect matchings, complementary 2-factors, and cycle spectra.

In a cubic graph the complement of a perfect matching is always a
2-factor and vice versa, so 2-factor questions are answered through
perfect matching enumeration. Matchings are sets of edge ids, which
keeps parallel edges distinct.

One depth-first search over vertex bitmasks, ``_matching_search``,
serves every caller. It branches on the lowest uncovered vertex and,
after each match, propagates forced vertices: an uncovered vertex with
no uncovered neighbor left ends the branch, and one with a single
uncovered neighbor, joined by a single edge, is matched to it at once.
A forced vertex has the same edge in every perfect matching below its
node, so forcing removes only subtrees without a perfect matching and
chains of single children. Enumeration order and the premise witness
are therefore those of the plain search, which the test suite keeps as
an ordered oracle.

The search can start with edges already matched. Every ``exists_*``
predicate is its argument checks plus one call of ``_exists``, which
asks first-leaf queries of that kind: one for required edges, and an
avoided edge uv becomes a choice of the other two edges at u, since a
matching avoids uv exactly when it matches u by another edge.
``_matching_search(g)`` does the per-graph setup once and returns the
search, so a caller with many such questions about one graph, as the
verifier's claim C8 asks one per 3-edge path, pays for it once.

Every premise answer reads only cycle lengths: the paper's premise is
that each complementary 2-factor splits into 5-cycles, which is a
statement about the spectrum alone. ``two_factor_spectra`` and the
premise functions therefore walk the 2-factor without building cycle
objects. Per graph they store, for each edge id, the XOR of its two
endpoints and, for each vertex, the sum of its three edge ids. Per
matching they record each vertex's matched edge id; entering a vertex
by edge ``e``, the walk leaves it by ``total[v] - e - matched[v]``, the
one edge that is neither, and reaches ``v ^ ends_xor[e']``. Edge ids
keep parallel edges apart, so a doubled edge still closes a 2-cycle.
``complementary_two_factor`` and ``cycle_spectrum`` remain for callers
that need the cycles themselves, and the test suite checks that both
give the same spectrum for every matching.

Everything here is a pure function of an immutable graph; enumeration
results are value snapshots, safe to share across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple

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
    "two_factor_spectra",
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


def _matching_search(g: CubicGraph) -> Callable[..., Iterator[PerfectMatching]]:
    """The per-graph setup of the perfect matching search.

    The returned ``search(*forced)`` enumerates depth-first over vertex
    bitmasks, branching on the lowest uncovered vertex and matching
    forced vertices at once. ``forced`` holds ids of pairwise disjoint
    edges; the search starts with them matched, so it yields exactly the
    perfect matchings that contain them. Branches follow ascending
    (neighbor, edge id) order; parallel edges are explored as distinct
    branches. Each call has its own state, so searches from one setup
    can run interleaved.

    After each match the search propagates, as unit propagation does
    (Davis, Logemann and Loveland, 1962). A worklist bitmask holds the
    uncovered neighbors of the vertices just covered. One with no
    uncovered neighbor left ends the branch. One whose only uncovered
    neighbor is joined to it by a single edge is matched along that
    edge, and the neighbors of the new pair join the worklist. A vertex
    whose last uncovered neighbor is joined by parallel edges still
    branches, in edge id order.

    Forcing keeps the lowest-vertex order. Two leaves of the search
    part at the lowest uncovered vertex of their last common node, and
    every lower vertex is matched alike in both, so the leaves come out
    ordered by their matched (neighbor, edge id) at the smallest vertex
    where they differ; that order does not depend on the tree. A
    forced vertex has the same edge in every perfect matching below its
    node, so forcing only removes subtrees without a perfect matching
    and chains of single children: the matchings, and their order, are
    those of the plain search, which the test suite keeps as an oracle.

    Matched edge ids go into one per-vertex list, and a leaf yields
    ``frozenset(matched)``, since each id appears there twice. Every
    vertex covered on the path to a leaf was written when it was
    covered, so entries left by abandoned branches never reach a leaf.
    """
    full = (1 << g.n) - 1
    neighbor_mask = [1 << a | 1 << b | 1 << c for a, b, c in g.neighbor_lists]
    # the id of the edge joining two vertices, keyed by their two bits;
    # None for two vertices joined by parallel edges
    pair_edge: dict[int, int | None] = {}
    for eid, (u, v) in enumerate(g.edges):
        pair = 1 << u | 1 << v
        pair_edge[pair] = None if pair in pair_edge else eid
    # per vertex v, one (bit of w, w, edge id, worklist) per edge vw in
    # adjacency order; the worklist holds the neighbors of v and of w
    branches = [
        [(1 << w, w, eid, neighbor_mask[v] | neighbor_mask[w]) for w, eid in row]
        for v, row in enumerate(g.adjacency)
    ]

    def search(*forced: int) -> Iterator[PerfectMatching]:
        matched = [-1] * g.n

        def propagate(covered: int, work: int) -> int | None:
            """``covered`` with every forced vertex matched; None at a dead end."""
            work &= ~covered
            while work:
                u_bit = work & -work
                work ^= u_bit
                u = u_bit.bit_length() - 1
                free = neighbor_mask[u] & ~covered
                if not free:
                    return None
                # u_bit | free is a key only when one neighbor is left
                eid = pair_edge.get(u_bit | free)
                if eid is not None:
                    x = free.bit_length() - 1
                    covered |= u_bit | free
                    matched[u] = matched[x] = eid
                    work = (work | neighbor_mask[x]) & ~covered
            return covered

        def extend(covered: int) -> Iterator[PerfectMatching]:
            if covered == full:
                yield frozenset(matched)
                return
            lowest = ~covered & (covered + 1)
            v = lowest.bit_length() - 1
            covered |= lowest
            for w_bit, w, eid, work in branches[v]:
                if covered & w_bit:
                    continue
                now = propagate(covered | w_bit, work)
                if now is not None:
                    matched[v] = matched[w] = eid
                    yield from extend(now)

        covered = work = 0
        for eid in forced:
            u, v = g.edges[eid]
            covered |= 1 << u | 1 << v
            work |= neighbor_mask[u] | neighbor_mask[v]
            matched[u] = matched[v] = eid
        start = propagate(covered, work)
        if start is not None:
            yield from extend(start)

    return search


def enumerate_perfect_matchings(g: CubicGraph) -> tuple[PerfectMatching, ...]:
    """All perfect matchings as edge-id sets, in deterministic order."""
    return tuple(_matching_search(g)())


def exists_perfect_matching(g: CubicGraph) -> bool:
    return _exists(g)


def _matched_edge_ids(g: CubicGraph, matching: Iterable[int]) -> list[int]:
    """Each vertex's matched edge id.

    Raises ``MatchingError`` unless the ids are a perfect matching,
    naming the first id out of range or else the first vertex not
    covered exactly once.
    """
    edges = g.edges
    matched = [-1] * g.n
    size = 0
    for eid in matching:
        if not 0 <= eid < len(edges):
            raise MatchingError(f"edge id {eid} out of range")
        u, v = edges[eid]
        matched[u] = matched[v] = eid
        size += 1
    # n/2 ids that leave no vertex uncovered cover every vertex once
    if 2 * size != g.n or -1 in matched:
        covers = [0] * g.n
        for eid in matching:
            for v in edges[eid]:
                covers[v] += 1
        v = next(v for v, count in enumerate(covers) if count != 1)
        raise MatchingError(f"matching covers vertex {v} {covers[v]} times, not once")
    return matched


def complementary_two_factor(g: CubicGraph, matching: PerfectMatching) -> TwoFactor:
    """Decompose the complement of a perfect matching into cycles.

    Each cycle starts at its smallest vertex and walks toward the
    smaller (neighbor, edge id) entry first; cycles are ordered by
    their smallest vertex. Raises ``MatchingError`` unless the ids are
    a perfect matching.
    """
    matched = _matched_edge_ids(g, matching)
    # g.adjacency is sorted by (neighbor, edge id), and so is each row here
    factor_adj = [
        [entry for entry in row if entry[1] != matched[v]] for v, row in enumerate(g.adjacency)
    ]
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


def _spectrum_walk(g: CubicGraph) -> Callable[[Iterable[int]], CycleSpectrum]:
    """The per-graph setup of the length-only 2-factor walk.

    The returned function maps a perfect matching to the sorted cycle
    lengths of its complementary 2-factor. It raises ``MatchingError``
    as ``complementary_two_factor`` does, before the walk starts, so the
    walk only ever follows a 2-factor and always closes its cycles.
    """
    ends_xor = [u ^ v for u, v in g.edges]
    ids = [(a, b, c) for (_, a), (_, b), (_, c) in g.adjacency]
    total = [a + b + c for a, b, c in ids]

    def spectrum(matching: Iterable[int]) -> CycleSpectrum:
        # a vertex's entry becomes -1 once the walk has passed it
        matched = _matched_edge_ids(g, matching)
        lengths = []
        for start, (a, b, _) in enumerate(ids):
            if matched[start] < 0:
                continue
            eid = b if matched[start] == a else a
            matched[start] = -1
            current = start ^ ends_xor[eid]
            length = 1
            while current != start:
                eid = total[current] - eid - matched[current]
                matched[current] = -1
                current ^= ends_xor[eid]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths))

    return spectrum


def two_factor_spectra(
    g: CubicGraph, matchings: Iterable[PerfectMatching]
) -> tuple[CycleSpectrum, ...]:
    """``cycle_spectrum(complementary_two_factor(g, m))`` for each matching,
    in order, without building the cycles.

    Raises ``MatchingError``, as ``complementary_two_factor`` does, for
    ids that are not a perfect matching.
    """
    return tuple(map(_spectrum_walk(g), matchings))


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
    spectrum = _spectrum_walk(g)
    for matching in _matching_search(g)():
        found = True
        lengths = spectrum(matching)
        if any(length != 5 for length in lengths):
            return {"matching": sorted(matching), "spectrum": list(lengths)}
    return None if found else {"reason": "no perfect matching"}


def all_two_factors_are_five_cycles(g: CubicGraph) -> bool:
    """The all-5-cycle premise: ``five_cycle_premise_witness`` finds none."""
    return five_cycle_premise_witness(g) is None


def _check_edge_ids(g: CubicGraph, *ids: int) -> None:
    for eid in ids:
        if not 0 <= eid < len(g.edges):
            raise ValueError(f"edge id {eid} out of range")


def _exists(g: CubicGraph, required: tuple[int, ...] = (), avoided: tuple[int, ...] = ()) -> bool:
    """Some perfect matching holds every required edge and no avoided one.

    A matching avoids uv exactly when it matches u by another edge, so each
    avoided edge becomes a choice of one of the other two edges at its first
    endpoint. Choices run in ``product`` order; one made twice is asked once,
    and a set of edges that share an endpoint is not asked.
    """
    search = _matching_search(g)
    choices = [[o for _, o in g.adjacency[g.edges[e][0]] if o != e] for e in avoided]
    for chosen in product(*choices):
        forced = (*required, *dict.fromkeys(chosen))
        ends = [v for eid in forced for v in g.edges[eid]]
        if len(set(ends)) == len(ends) and next(search(*forced), None) is not None:
            return True
    return False


def exists_pm_with_edge(g: CubicGraph, eid: int) -> bool:
    """Some perfect matching contains the edge with this id."""
    _check_edge_ids(g, eid)
    return _exists(g, (eid,))


def exists_pm_avoiding_edge(g: CubicGraph, eid: int) -> bool:
    """Some perfect matching avoids the edge with this id."""
    _check_edge_ids(g, eid)
    return _exists(g, avoided=(eid,))


def exists_pm_with_edge_pair(g: CubicGraph, eid: int, fid: int) -> bool:
    """Some perfect matching contains both edges; they must be disjoint."""
    _check_edge_ids(g, eid, fid)
    if eid == fid:
        raise ValueError("the two edges must be distinct")
    if set(g.edges[eid]) & set(g.edges[fid]):
        raise ValueError("the two edges must not share an endpoint")
    return _exists(g, (eid, fid))


def exists_two_factor_through_edges(g: CubicGraph, eid: int, fid: int) -> bool:
    """Some 2-factor contains both edges, i.e. some matching avoids both."""
    _check_edge_ids(g, eid, fid)
    if eid == fid:
        raise ValueError("the two edges must be distinct")
    return _exists(g, avoided=(eid, fid))


def exists_triangle_free_two_factor(g: CubicGraph) -> bool:
    """Some 2-factor has minimum cycle length >= 4; simple graphs only."""
    if g.has_parallel_edges:
        raise MultigraphError("triangle-free 2-factor check is defined for simple graphs")
    spectrum = _spectrum_walk(g)
    return any(spectrum(m)[0] >= 4 for m in _matching_search(g)())
