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

The search can start with edges already matched, so it yields only
the perfect matchings through them. ``_matching_search(g)`` does the
per-graph setup once and returns the search, so a caller with many
questions about one graph, as the verifier's claim C8 asks one
first-leaf query per 3-edge path, pays for it once.

Every premise answer reads only cycle lengths: the paper's premise is
that each complementary 2-factor splits into 5-cycles, which is a
statement about the spectrum alone. One walk, ``_two_factor_walks``,
therefore serves ``two_factor_spectra`` and the premise functions: it
reads each leaf of the search, each vertex's matched edge id, and
yields the leaf with its sorted cycle lengths, building neither a
matching's edge-id set nor its cycles, and keeping no leaf it has
passed. Per graph it stores, for each edge id, the XOR of its two
endpoints and, for each vertex, the sum of its three edge ids;
entering v by edge ``e``, the walk leaves by ``total[v] - e - matched[v]``,
the one edge that is neither, and reaches ``v ^ ends_xor[e']``. Edge
ids keep parallel edges apart, so a doubled edge still closes a 2-cycle.
The walk only reads the leaf: a bitmask of the vertices that no cycle
has passed yet gives each cycle's start, its lowest set bit, and each
cycle's own bitmask gives its length, ``int.bit_count()``.
``enumerate_perfect_matchings``, ``complementary_two_factor`` and
``cycle_spectrum`` remain for callers that need the matchings or the
cycles themselves, and the test suite checks that both routes give the
same spectra in the same order.

Everything here is a pure function of an immutable graph; enumeration
results are value snapshots, safe to share across threads or processes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .graphs import CubicGraph, CubicGraphError

__all__ = [
    "PerfectMatching",
    "FactorCycle",
    "CycleSpectrum",
    "enumerate_perfect_matchings",
    "complementary_two_factor",
    "cycle_spectrum",
    "two_factor_spectra",
    "five_cycle_premise_witness",
    "all_two_factors_are_five_cycles",
]

PerfectMatching = frozenset[int]
# one cycle of a 2-factor: its vertices in cyclic order, and its edge ids,
# edge_ids[i] joining vertices[i] to vertices[(i + 1) % k]; a parallel
# edge pair is a cycle of length 2
FactorCycle = tuple[tuple[int, ...], tuple[int, ...]]
CycleSpectrum = tuple[int, ...]


def _matching_search(g: CubicGraph) -> Callable[..., Iterator[tuple[int, ...]]]:
    """The per-graph setup of the perfect matching search.

    The returned ``search(*forced)`` enumerates the perfect matchings of
    g depth-first over vertex bitmasks, branching on the lowest
    uncovered vertex and matching forced vertices at once. ``forced``
    holds ids of pairwise disjoint edges; the search starts with them
    matched, so it yields exactly the perfect matchings that contain
    them. Branches follow ascending (neighbor, edge id) order; parallel
    edges are explored as distinct branches. Each call has its own
    state, so searches from one setup can run interleaved.

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

    Each vertex's matched edge id goes into one list, and a leaf yields
    it as a tuple, so each id appears twice. Every vertex covered on the
    path to a leaf was written when it was covered, so entries left by
    abandoned branches never reach a leaf.

    The path from the root is a stack of per-node child generators, not
    a chain of recursive calls, so a search up to n/2 branchings deep
    does not meet the interpreter's recursion limit.
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
        [(1 << w, w, e, neighbor_mask[v] | neighbor_mask[w]) for w, e in row]
        for v, row in enumerate(g.adjacency)
    ]

    def search(*forced: int) -> Iterator[tuple[int, ...]]:
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

        def children(covered: int) -> Iterator[int]:
            """The covered masks of a node's children, in branch order."""
            lowest = ~covered & (covered + 1)
            v = lowest.bit_length() - 1
            covered |= lowest
            for w_bit, w, eid, work in branches[v]:
                if covered & w_bit:
                    continue
                now = propagate(covered | w_bit, work)
                if now is not None:
                    matched[v] = matched[w] = eid
                    yield now

        covered = work = 0
        for eid in forced:
            u, v = g.edges[eid]
            covered |= 1 << u | 1 << v
            work |= neighbor_mask[u] | neighbor_mask[v]
            matched[u] = matched[v] = eid
        # the root is the one child of a virtual node, so a forced start
        # that already covers every vertex is a leaf like any other
        start = propagate(covered, work)
        stack = [] if start is None else [iter((start,))]
        while stack:
            covered = next(stack[-1], None)
            if covered is None:
                stack.pop()
            elif covered == full:
                yield tuple(matched)
            else:
                stack.append(children(covered))

    return search


def enumerate_perfect_matchings(g: CubicGraph) -> tuple[PerfectMatching, ...]:
    """All perfect matchings as edge-id sets, in deterministic order."""
    return tuple(map(frozenset, _matching_search(g)()))


def _matched_edge_ids(g: CubicGraph, matching: Iterable[int]) -> list[int]:
    """Each vertex's matched edge id.

    Raises ``CubicGraphError`` unless the ids are a perfect matching,
    naming the first id out of range or else the first vertex not
    covered exactly once.
    """
    edges = g.edges
    matched = [-1] * g.n
    size = 0
    for eid in matching:
        if not 0 <= eid < len(edges):
            raise CubicGraphError(f"edge id {eid} out of range")
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
        raise CubicGraphError(f"matching covers vertex {v} {covers[v]} times, not once")
    return matched


def complementary_two_factor(g: CubicGraph, matching: PerfectMatching) -> tuple[FactorCycle, ...]:
    """The 2-factor complementary to a perfect matching, as its spanning
    disjoint cycles, each a ``(vertices, edge_ids)`` pair.

    Each cycle starts at its smallest vertex and walks toward the
    smaller (neighbor, edge id) entry first; cycles are ordered by
    their smallest vertex. Raises ``CubicGraphError`` unless the ids are
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
        cycles.append((tuple(vertices), tuple(edge_ids)))
    return tuple(cycles)


def cycle_spectrum(factor: tuple[FactorCycle, ...]) -> CycleSpectrum:
    """Sorted multiset of cycle lengths; the sum is the vertex count."""
    return tuple(sorted(len(vertices) for vertices, _ in factor))


def _two_factor_walks(g: CubicGraph) -> Iterator[tuple[tuple[int, ...], CycleSpectrum]]:
    """Each leaf of the perfect matching search, in enumeration order,
    with the sorted cycle lengths of its complementary 2-factor.

    The walk reads only the search's leaves, so it checks nothing, and
    it writes nothing into them.
    """
    full = (1 << g.n) - 1
    bits = [1 << v for v in range(g.n)]
    ends_xor = [u ^ v for u, v in g.edges]
    ids = [(a, b, c) for (_, a), (_, b), (_, c) in g.adjacency]
    total = [a + b + c for a, b, c in ids]
    for leaf in _matching_search(g)():
        # ``left`` holds the vertices no cycle has passed yet; each cycle
        # starts at its lowest and collects its own vertices in ``cycle``
        lengths = []
        left = full
        while left:
            start_bit = left & -left
            start = start_bit.bit_length() - 1
            a, b, _ = ids[start]
            eid = b if leaf[start] == a else a
            cycle = start_bit
            current = start ^ ends_xor[eid]
            while current != start:
                cycle |= bits[current]
                eid = total[current] - eid - leaf[current]
                current ^= ends_xor[eid]
            left ^= cycle
            lengths.append(cycle.bit_count())
        yield leaf, tuple(sorted(lengths))


def two_factor_spectra(g: CubicGraph) -> Iterator[CycleSpectrum]:
    """``cycle_spectrum(complementary_two_factor(g, m))`` for each ``m`` of
    ``enumerate_perfect_matchings(g)``, lazily and in that order, without
    keeping the matchings or building the cycles."""
    return (lengths for _, lengths in _two_factor_walks(g))


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
    for leaf, lengths in _two_factor_walks(g):
        found = True
        if any(length != 5 for length in lengths):
            return {"matching": sorted(set(leaf)), "spectrum": list(lengths)}
    return None if found else {"reason": "no perfect matching"}


def all_two_factors_are_five_cycles(g: CubicGraph) -> bool:
    """The all-5-cycle premise: ``five_cycle_premise_witness`` finds none."""
    return five_cycle_premise_witness(g) is None
