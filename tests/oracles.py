"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the package's clever paths: labeled
enumeration is plain backtracking over endpoint pairs, isomorphism goes
through all n! permutations, matchings come from subsets of the edge
list, and cuts from edge triples or vertex bipartitions. Slow but
obviously correct at the sizes the tests use them. Tutte's condition
counts the odd components left by one vertex subset, so a graph has a
perfect matching iff no subset of its 2^n fails it. The canonicity
oracle is a depth-first lexmin search, independent of the package's
breadth-first one; the certificate oracle is that breadth-first search
as it was before cells, keeping one relabeling per permutation of a
vertex's new neighbours. Ordered oracles pin the order of a pruned search,
not just its output set: one generation oracle filters every block-wise
labeled graph through the canonicity oracle, with no prefix pruning; a
second prunes prefixes with a tie frontier that keeps one relabeling per
permutation of new neighbours instead of cells; and the matching oracle
is the plain depth-first search, with no dead-end cut. The premise
oracle reads every spectrum off the cycles that
``complementary_two_factor`` builds, not off the length-only walk, and
the C8 oracle filters a table of every perfect matching instead of
asking the matching search about each path. The short-cycle oracle is
one loop nest per cycle length, where the package runs one path search
for both. The FINAL oracle scans all three 5-cycle neighborhood
conditions in turn, where the package scans the 3-edge paths alone.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable, Iterator, NamedTuple, Sequence

from cubicscan.graphs import CubicGraph
from cubicscan.matching import (
    complementary_two_factor,
    cycle_spectrum,
    enumerate_perfect_matchings,
)
from cubicscan.verifier import _three_edge_paths


def labeled_cubic_edge_lists(n: int, allow_multi: bool) -> set[tuple[tuple[int, int], ...]]:
    """All labeled connected cubic (multi)graphs on n vertices."""
    pairs = list(combinations(range(n), 2))
    out: set[tuple[tuple[int, int], ...]] = set()
    target = 3 * n // 2

    def connected(edges: list[tuple[int, int]]) -> bool:
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    def rec(i: int, left: int, deg: list[int], edges: list[tuple[int, int]]) -> None:
        if left == 0:
            if all(d == 3 for d in deg) and connected(edges):
                out.add(tuple(sorted(edges)))
            return
        if i == len(pairs):
            return
        u, v = pairs[i]
        cap = 3 if (allow_multi and n == 2) else (2 if allow_multi else 1)
        cap = min(cap, left, 3 - deg[u], 3 - deg[v])
        for mult in range(cap, -1, -1):
            deg[u] += mult
            deg[v] += mult
            # (u, n - 1) is the last pair at u, so u must be complete after it
            if v < n - 1 or deg[u] == 3:
                rec(i + 1, left - mult, deg, edges + [(u, v)] * mult)
            deg[u] -= mult
            deg[v] -= mult

    rec(0, target, [0] * n, [])
    return out


def isomorphism_classes(n: int, allow_multi: bool) -> set[tuple[tuple[int, int], ...]]:
    """One representative per class: the orbit minimum of each labeled graph."""
    remaining = set(labeled_cubic_edge_lists(n, allow_multi))
    reps: set[tuple[tuple[int, int], ...]] = set()
    while remaining:
        current = min(remaining)
        orbit = set()
        for perm in permutations(range(n)):
            orbit.add(
                tuple(
                    sorted(
                        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in current
                    )
                )
            )
        assert min(orbit) == current, "orbit representative must be its own minimum"
        reps.add(current)
        remaining -= orbit
    return reps


def _upward_blocks(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Blocks of the identity labeling: blocks[u] lists v over edges (u, v), u < v."""
    blocks: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        blocks[u].append(v)
    return [tuple(sorted(b)) for b in blocks]


def dfs_is_canonical_labeling(g: CubicGraph) -> bool:
    """True iff g's own labeling is already the canonical one.

    Depth-first lexmin search over block-wise labelings, independent of
    the breadth-first search in ``cubicscan.graphs``: prune any branch
    whose block exceeds the identity's and stop outright when one drops
    below it. It rejects most unpruned candidates early, which keeps
    :func:`orderly_cubic_graphs` fast.
    """
    n = g.n
    adj = g.neighbor_lists
    ref = _upward_blocks(n, g.edges)
    lab = [-1] * n
    order: list[int] = []
    smaller_found = False

    def step(t: int) -> None:
        nonlocal smaller_found
        if t == n:
            return
        if t == len(order):
            for root in range(n):
                if lab[root] >= 0:
                    continue
                lab[root] = t
                order.append(root)
                step(t)
                order.pop()
                lab[root] = -1
                if smaller_found:
                    return
            return
        x = order[t]
        unlabeled = sorted({w for w in adj[x] if lab[w] < 0})
        base = len(order)
        for perm in permutations(unlabeled):
            for i, w in enumerate(perm):
                lab[w] = base + i
                order.append(w)
            blk = tuple(sorted(lab[w] for w in adj[x] if lab[w] > t))
            if blk < ref[t]:
                smaller_found = True
            elif blk == ref[t]:
                step(t + 1)
            for w in perm:
                lab[w] = -1
            del order[base:]
            if smaller_found:
                return

    step(0)
    return not smaller_found


def lexmin_blocks_per_permutation(
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


def orderly_cubic_graphs(n: int, allow_multi: bool) -> list[tuple[tuple[int, int], ...]]:
    """Edge lists of every block-wise labeled connected cubic graph that
    passes dfs_is_canonical_labeling, in generation order.

    Vertex t's remaining edges go to higher labels as a non-decreasing
    multiset, and an unused label may only be targeted if it is the
    smallest unused one. Every candidate is built and tested; nothing is
    pruned before the test.
    """
    deg = [0] * n
    blocks: list[tuple[int, ...]] = []
    out: list[tuple[tuple[int, int], ...]] = []

    def fill(t: int, next_new: int) -> None:
        if t == n:
            edges = tuple((u, v) for u, blk in enumerate(blocks) for v in blk)
            if dfs_is_canonical_labeling(CubicGraph(n=n, edges=edges)):
                out.append(edges)
            return
        if t > 0 and t >= next_new:
            return  # vertex t untouched by smaller labels: disconnected
        chosen: list[int] = []

        def choose(minimum: int, left: int, frontier: int) -> None:
            if left == 0:
                blocks.append(tuple(chosen))
                fill(t + 1, frontier)
                blocks.pop()
                return
            for w in range(max(minimum, t + 1), min(frontier, n - 1) + 1):
                multiplicity = chosen.count(w)
                if (w < frontier and deg[w] >= 3) or multiplicity >= (3 if allow_multi else 1):
                    continue
                if multiplicity == 2 and n != 2:
                    continue  # a triple edge saturates both endpoints
                deg[w] += 1
                chosen.append(w)
                choose(w, left - 1, frontier + 1 if w == frontier else frontier)
                chosen.pop()
                deg[w] -= 1

        choose(t + 1, 3 - deg[t], next_new if t > 0 else 1)

    fill(0, 0)
    return out


def permutation_tie_cubic_graphs(n: int, allow_multi: bool) -> list[tuple[tuple[int, int], ...]]:
    """Edge lists of the prefix-pruned generation, in generation order,
    with every tied relabeling carried on its own.

    The same block-wise tree as :func:`orderly_cubic_graphs`. Each
    relabeling (level, lab, order) whose blocks 0..level-1 equal the
    identity's waits under max(order[level], level) until it can compute
    its next block; every permutation of the unlabeled neighbours that
    ties becomes its own relabeling, and a prefix is dropped as soon as
    one gives a smaller block. No leaf is tested afterwards.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    blocks: list[tuple[int, ...]] = []
    waiting: list[list[tuple[int, list[int], list[int]]]] = [[] for _ in range(n)]
    out: list[tuple[tuple[int, int], ...]] = []

    def extend_ties(t: int, filed: list[int]) -> bool:
        root = [-1] * n
        root[t] = 0
        stack = [(0, root, [t])] + waiting[t]
        while stack:
            level, lab, order = stack.pop()
            nbrs = adj[order[level]]
            ref = blocks[level]
            base = len(order)
            labeled = tuple(sorted(lab[w] for w in nbrs if lab[w] > level))
            unlabeled = [w for w in nbrs if lab[w] < 0]
            new = sorted(set(unlabeled))
            for perm in permutations(new):
                blk = labeled + tuple(sorted(base + perm.index(w) for w in unlabeled))
                if blk < ref:
                    return False
                if blk > ref:
                    continue
                if base + len(perm) == level + 1:
                    continue  # a closed component: its graph is disconnected
                lab2 = lab.copy()
                for i, w in enumerate(perm):
                    lab2[w] = base + i
                order2 = order + list(perm)
                key = max(order2[level + 1], level + 1)
                if key <= t:
                    stack.append((level + 1, lab2, order2))
                else:
                    waiting[key].append((level + 1, lab2, order2))
                    filed.append(key)
        return True

    def fill(t: int, next_new: int) -> None:
        if t == n:
            out.append(tuple((u, v) for u, blk in enumerate(blocks) for v in blk))
            return
        if t > 0 and t >= next_new:
            return  # vertex t untouched by smaller labels: disconnected
        need = 3 - len(adj[t])
        chosen: list[int] = []

        def choose(minimum: int, left: int, frontier: int) -> None:
            if left == 0:
                blocks.append(tuple(chosen))
                adj[t].extend(chosen)
                filed: list[int] = []
                if extend_ties(t, filed):
                    fill(t + 1, frontier)
                for key in filed:
                    waiting[key].pop()
                del adj[t][3 - need:]
                blocks.pop()
                return
            for w in range(max(minimum, t + 1), min(frontier, n - 1) + 1):
                multiplicity = chosen.count(w)
                if (w < frontier and len(adj[w]) >= 3) or multiplicity >= (3 if allow_multi else 1):
                    continue
                if multiplicity == 2 and n != 2:
                    continue  # a triple edge saturates both endpoints
                adj[w].append(t)
                chosen.append(w)
                choose(w, left - 1, frontier + 1 if w == frontier else frontier)
                chosen.pop()
                adj[w].pop()

        choose(t + 1, need, next_new if t > 0 else 1)

    fill(0, 0)
    return out


def brute_isomorphic(g: CubicGraph, h: CubicGraph) -> bool:
    """Permutation brute force over all n! vertex bijections."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    target = tuple(sorted(h.edges))
    for perm in permutations(range(g.n)):
        mapped = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges)
        )
        if mapped == target:
            return True
    return False


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


def brute_perfect_matchings(g: CubicGraph) -> set[frozenset[int]]:
    """All perfect matchings found by scanning (n/2)-subsets of the edges."""
    out = set()
    for subset in combinations(range(len(g.edges)), g.n // 2):
        covered: set[int] = set()
        ok = True
        for eid in subset:
            u, v = g.edges[eid]
            if u in covered or v in covered:
                ok = False
                break
            covered.update((u, v))
        if ok and len(covered) == g.n:
            out.add(frozenset(subset))
    return out


def unpruned_perfect_matchings(g: CubicGraph) -> Iterator[frozenset[int]]:
    """Depth-first enumeration, branching on the lowest uncovered vertex.

    Branches follow ascending (neighbor, edge id) order, so the output
    order is deterministic; parallel edges are explored as distinct
    branches.
    """
    covered = [False] * g.n
    chosen: list[int] = []

    def extend(lowest: int) -> Iterator[frozenset[int]]:
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


def premise_witness_by_two_factors(g: CubicGraph) -> dict | None:
    """``five_cycle_premise_witness`` as a loop over the cycle objects of
    each matching's 2-factor, in the unpruned search's order."""
    found = False
    for matching in unpruned_perfect_matchings(g):
        found = True
        spectrum = cycle_spectrum(complementary_two_factor(g, matching))
        if any(length != 5 for length in spectrum):
            return {"matching": sorted(matching), "spectrum": list(spectrum)}
    return None if found else {"reason": "no perfect matching"}


def c8_by_enumeration(g: CubicGraph) -> dict:
    """Claim C8's report entry by filtering a table of every perfect
    matching, as vertex pairs, once per 3-edge path in the verifier's
    path order."""
    pair_sets = [
        frozenset(g.edges[eid] for eid in m)
        for m in enumerate_perfect_matchings(g)
    ]
    for u, v, w, x in _three_edge_paths(g):
        first = (min(u, v), max(u, v))
        second = (min(w, x), max(w, x))
        if not any(first in pairs and second in pairs for pairs in pair_sets):
            return {"holds": False, "witness": {"path": [u, v, w, x]}}
    return {"holds": True, "witness": None}


def two_edge_paths(g: CubicGraph) -> Iterator[tuple[int, int, int]]:
    """All paths u-v-w on three distinct vertices, with u < w."""
    nbr = g.neighbor_lists
    for v in range(g.n):
        candidates = sorted(set(nbr[v]))
        for i, u in enumerate(candidates):
            for w in candidates[i + 1 :]:
                yield (u, v, w)


def count_five_cycles_through_path(nbr: list[set[int]], u: int, v: int, w: int) -> int:
    """Number of distinct 5-cycles containing the path u-v-w, given each
    vertex's neighbour set."""
    count = 0
    for x in nbr[w] - {u, v}:
        for y in nbr[u] - {v, w, x}:
            if x in nbr[y]:
                count += 1
    return count


def neighborhood_structure_by_parts(g: CubicGraph) -> tuple[bool, dict | None]:
    """The FINAL check on a girth-5 graph with all three conditions
    scanned in turn: (a) the 3-edge paths, (b) the 2-edge paths, and (c)
    the closed second neighborhoods, where the package scans (a) alone."""
    nbr = [set(row) for row in g.neighbor_lists]
    for u, v, w, x in _three_edge_paths(g):
        if not any(y in nbr[u] for y in nbr[x] - {u, v, w}):
            return False, {"check": "3-edge path not on a 5-cycle", "path": [u, v, w, x]}
    for u, v, w in two_edge_paths(g):
        if count_five_cycles_through_path(nbr, u, v, w) < 2:
            return False, {
                "check": "2-edge path on fewer than two 5-cycles",
                "path": [u, v, w],
            }
    for u in range(g.n):
        v, w, x = sorted(nbr[u])
        blocks = [sorted(nbr[b] - {u}) for b in (v, w, x)]
        names = [u, v, w, x] + [vertex for block in blocks for vertex in block]
        if len(set(names)) != 10:
            return False, {
                "check": "closed second neighborhood is not 10 distinct vertices",
                "vertex": u,
            }
        for i in range(3):
            for j in range(i + 1, 3):
                between = sum(
                    1
                    for a, b in g.edges
                    if (a in blocks[i] and b in blocks[j])
                    or (a in blocks[j] and b in blocks[i])
                )
                if between != 2:
                    return False, {
                        "check": "second-neighborhood blocks not joined by exactly two edges",
                        "vertex": u,
                        "blocks": [blocks[i], blocks[j]],
                        "edges_between": between,
                    }
    return True, None


def removal_disconnects(g: CubicGraph, removed: set[int]) -> bool:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        if eid not in removed:
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) != g.n


def brute_bridges(g: CubicGraph) -> list[int]:
    return [eid for eid in range(len(g.edges)) if removal_disconnects(g, {eid})]


def brute_edge_connectivity(g: CubicGraph) -> int:
    """Minimum cut size by trying all edge subsets of size 1, 2, then 3."""
    for size in (1, 2, 3):
        for subset in combinations(range(len(g.edges)), size):
            if removal_disconnects(g, set(subset)):
                return size
    return 3


def brute_3_cut_edge_sets(g: CubicGraph) -> set[frozenset[int]]:
    """Edge triples that are the exact boundary of some vertex bipartition."""
    out = set()
    for triple in combinations(range(len(g.edges)), 3):
        removed = set(triple)
        color = [-1] * g.n
        for start in range(g.n):
            if color[start] >= 0:
                continue
            color[start] = start
            stack = [start]
            while stack:
                u = stack.pop()
                for eid, (a, b) in enumerate(g.edges):
                    if eid in removed:
                        continue
                    if a == u and color[b] < 0:
                        color[b] = start
                        stack.append(b)
                    elif b == u and color[a] < 0:
                        color[a] = start
                        stack.append(a)
        components = sorted(set(color))
        if len(components) < 2:
            continue
        # the triple is a boundary iff some union of components has
        # exactly these three edges crossing to the rest
        comp_index = {c: i for i, c in enumerate(components)}
        k = len(components)
        for mask in range(1, 1 << (k - 1)):
            crossing = set()
            for eid in triple:
                a, b = g.edges[eid]
                side_a = (mask >> comp_index[color[a]]) & 1
                side_b = (mask >> comp_index[color[b]]) & 1
                if side_a != side_b:
                    crossing.add(eid)
            if crossing == removed:
                out.add(frozenset(triple))
                break
    return out


def brute_edge_cuts_by_bipartition(
    g: CubicGraph, k: int
) -> list[tuple[list[int], tuple[int, ...], tuple[int, ...]]]:
    """Every k-edge cut as (sorted edges, side_u, side_ubar), ordered by
    sorted edges, from a scan of all 2^(n-1) vertex bipartitions."""
    cuts = []
    # masks with bit 0 set cover each bipartition exactly once; the
    # all-ones mask (empty complement) is excluded by the range bound
    for mask in range(1, (1 << g.n) - 1, 2):
        boundary = [
            eid
            for eid, (u, v) in enumerate(g.edges)
            if ((mask >> u) & 1) != ((mask >> v) & 1)
        ]
        if len(boundary) != k:
            continue
        side_u = tuple(v for v in range(g.n) if (mask >> v) & 1)
        side_ubar = tuple(v for v in range(g.n) if not (mask >> v) & 1)
        cuts.append((boundary, side_u, side_ubar))
    return sorted(cuts, key=lambda cut: cut[0])


def cycle_of_length_by_loops(g: CubicGraph, k: int) -> tuple[int, ...] | None:
    """Lexicographically smallest cycle on k distinct vertices, k in {3, 4},
    by one loop nest per length."""
    nbr = [set(row) for row in g.neighbor_lists]
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


def brute_triangle_patterns(g: CubicGraph) -> dict[str, bool]:
    """Pattern presence flags by raw vertex-subset scanning."""
    nbr = [set(row) for row in g.neighbor_lists]
    triangles = [
        (a, b, c)
        for a, b, c in combinations(range(g.n), 3)
        if b in nbr[a] and c in nbr[a] and c in nbr[b]
    ]
    squares = []
    for quad in combinations(range(g.n), 4):
        for perm in permutations(quad):
            a, b, c, d = perm
            if a != min(perm) or b > d:
                continue
            if b in nbr[a] and c in nbr[b] and d in nbr[c] and a in nbr[d]:
                squares.append((a, b, c, d))
    adjacent_triangles = any(
        len(set(t1) & set(t2)) == 2 for t1, t2 in combinations(triangles, 2)
    )
    square_triangle = False
    for square in squares:
        square_edges = {
            frozenset(pair)
            for pair in zip(square, square[1:] + square[:1])
        }
        for tri in triangles:
            tri_edges = {frozenset(pair) for pair in combinations(tri, 2)}
            shared = square_edges & tri_edges
            if len(shared) == 1 and len(set(square) | set(tri)) == 5:
                square_triangle = True
    return {
        "triangle": bool(triangles),
        "square": bool(squares),
        "adjacent_triangles": adjacent_triangles,
        "square_triangle_pair": square_triangle,
    }
