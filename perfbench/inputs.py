"""Seeded input corpora for the benchmark, built with the standard library only.

Graphs come from the pairing (configuration) model: 3n points, three per
vertex, are shuffled and paired off, and the draw is repeated until it
meets the wanted properties. Two-edge-connected graphs glue two random
graphs across an edge pair; bridged graphs subdivide one edge on each side
and join the two new vertices. Nothing here calls ``cubicscan``, so the
program under test sees only the edge-list files written at the end.

The same seed always gives byte-identical corpora: every graph draws from
its own ``random.Random`` seeded with a string, which does not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CorpusGraph:
    name: str
    n: int
    edges: Edges


def _adjacency(n: int, edges: Edges, skip: frozenset[int] = frozenset()) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        if eid not in skip:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def connected(n: int, edges: Edges, skip: frozenset[int] = frozenset()) -> bool:
    adj = _adjacency(n, edges, skip)
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def edge_connectivity(n: int, edges: Edges) -> int:
    """Edge connectivity of a connected cubic graph (1, 2 or 3), by removal."""
    m = len(edges)
    if any(not connected(n, edges, frozenset({e})) for e in range(m)):
        return 1
    if any(not connected(n, edges, frozenset(pair)) for pair in combinations(range(m), 2)):
        return 2
    return 3


def pairing_graph(
    rng: random.Random, n: int, *, simple: bool, min_lambda: int = 1
) -> Edges:
    """A connected loopless cubic graph from the pairing model.

    ``simple`` rejects parallel edges and ``min_lambda`` sets the least edge
    connectivity. Draws repeat until every condition holds.
    """
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = tuple(
            (min(a, b), max(a, b)) for a, b in zip(points[0::2], points[1::2])
        )
        if any(u == v for u, v in edges):
            continue
        if simple and len(set(edges)) != len(edges):
            continue
        if not connected(n, edges):
            continue
        if min_lambda > 1 and edge_connectivity(n, edges) < min_lambda:
            continue
        return edges


def _relabel(rng: random.Random, n: int, edges: Edges) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return tuple((min(u, v), max(u, v)) for u, v in out)


def petersen_edges() -> Edges:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return tuple(outer + inner + spokes)


def glued(rng: random.Random, n1: int, n2: int) -> Edges:
    """Two 3-edge-connected graphs glued across one edge of each: a 2-edge cut."""
    left = list(pairing_graph(rng, n1, simple=True, min_lambda=3))
    right = [(u + n1, v + n1) for u, v in pairing_graph(rng, n2, simple=True, min_lambda=3)]
    a, b = left.pop(rng.randrange(len(left)))
    c, d = right.pop(rng.randrange(len(right)))
    return tuple(left + right + [(a, c), (b, d)])


def bridged(rng: random.Random, n1: int, n2: int) -> Edges:
    """Subdivide one edge on each of two 3-edge-connected graphs and join the
    two new vertices: the joining edge is a bridge."""
    left = list(pairing_graph(rng, n1, simple=True, min_lambda=3))
    right = [(u + n1, v + n1) for u, v in pairing_graph(rng, n2, simple=True, min_lambda=3)]
    x, y = n1 + n2, n1 + n2 + 1
    a, b = left.pop(rng.randrange(len(left)))
    c, d = right.pop(rng.randrange(len(right)))
    return tuple(left + right + [(a, x), (x, b), (c, y), (y, d), (x, y)])


def multigraph(rng: random.Random, n: int) -> Edges:
    """A connected loopless cubic multigraph with at least one parallel pair."""
    while True:
        edges = pairing_graph(rng, n, simple=False)
        if len(set(edges)) != len(edges):
            return edges


# (name, build function) per graph; each call gets its own seeded generator.
# Half the graphs have n = 16, so the median op is the middle of eight
# graphs of one size and moves little from seed to seed.
VERIFY_PLAN = (
    ("petersen", lambda rng: petersen_edges()),
    ("random3ec-n14", lambda rng: pairing_graph(rng, 14, simple=True, min_lambda=3)),
    ("random3ec-n16", lambda rng: pairing_graph(rng, 16, simple=True, min_lambda=3)),
    ("random3ec-n18", lambda rng: pairing_graph(rng, 18, simple=True, min_lambda=3)),
    ("random3ec-n20", lambda rng: pairing_graph(rng, 20, simple=True, min_lambda=3)),
    ("glued-n14", lambda rng: glued(rng, 6, 8)),
    ("glued-n16", lambda rng: glued(rng, 8, 8)),
    ("glued-n20", lambda rng: glued(rng, 10, 10)),
    ("bridged-n14", lambda rng: bridged(rng, 6, 6)),
    ("bridged-n16", lambda rng: bridged(rng, 6, 8)),
    ("bridged-n18", lambda rng: bridged(rng, 8, 8)),
    ("multi-n16", lambda rng: multigraph(rng, 16)),
    ("random3ec-n16", lambda rng: pairing_graph(rng, 16, simple=True, min_lambda=3)),
    ("glued-n16", lambda rng: glued(rng, 6, 10)),
    ("bridged-n16", lambda rng: bridged(rng, 6, 8)),
    ("glued-n16", lambda rng: glued(rng, 8, 8)),
)

# Matching search time varies several-fold between random graphs of one
# size, so the corpus is many mid-sized graphs of one size rather than a few
# large ones: the pass time and the latency percentiles then move little
# from seed to seed. With 120 graphs on 34 vertices op_p90_ms still spread
# by 0.07-0.10 between seeds; with 360 on 30 it spreads by about 0.02.
ANALYZE_N = 30
ANALYZE_GRAPHS = 360


def invariant(n: int, edges: Edges) -> tuple:
    """Sorted BFS layer sizes from every vertex, plus edge multiplicities.

    Graphs with different invariants are not isomorphic, so a corpus whose
    invariants are pairwise distinct holds no two copies of one graph.
    """
    adj = _adjacency(n, edges)
    profiles = []
    for v in range(n):
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        layers = [0] * (max(dist.values()) + 1)
        for d in dist.values():
            layers[d] += 1
        profiles.append(tuple(layers))
    multiplicities = sorted(edges.count(e) for e in set(edges))
    return (n, tuple(sorted(profiles)), tuple(multiplicities))


def _distinct(plan, key: str) -> list[CorpusGraph]:
    graphs: list[CorpusGraph] = []
    seen: set[tuple] = set()
    for index, (name, build) in enumerate(plan):
        attempt = 0
        while True:
            rng = random.Random(f"{key}:{index}:{attempt}")
            edges = build(rng)
            n = 1 + max(v for _, v in edges)
            inv = invariant(n, edges)
            if inv not in seen:
                break
            attempt += 1
        seen.add(inv)
        graphs.append(CorpusGraph(name=name, n=n, edges=_relabel(rng, n, edges)))
    return graphs


def verify_corpus(seed: int) -> list[CorpusGraph]:
    """Petersen, random 3-edge-connected graphs at n = 14..20, glued
    2-edge-connected graphs, bridged graphs and one multigraph."""
    return _distinct(VERIFY_PLAN, f"verify-corpus:{seed}")


def analyze_corpus(seed: int) -> list[CorpusGraph]:
    """ANALYZE_GRAPHS random connected simple graphs on ANALYZE_N vertices."""
    plan = [
        (f"random-n{ANALYZE_N}", lambda rng: pairing_graph(rng, ANALYZE_N, simple=True))
        for _ in range(ANALYZE_GRAPHS)
    ]
    return _distinct(plan, f"analyze-corpus:{seed}")


def edgelist_text(n: int, edges: Edges) -> str:
    """The program's plain edge-list format: ``n m`` then one ``u v`` per line."""
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def write_corpus(graphs: list[CorpusGraph], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, g in enumerate(graphs):
        path = directory / f"{index:03d}-{g.name}.txt"
        path.write_text(edgelist_text(g.n, g.edges), encoding="ascii")
        paths.append(path)
    return paths
