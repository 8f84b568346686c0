"""Shared fixture graphs.

The small named graphs exercised throughout the suite:

* triple_edge: two vertices joined by three parallel edges
* k4: complete graph on four vertices
* k33: complete bipartite 3+3
* prism: two triangles joined by a perfect matching
* bridged8: smallest bridged cubic multigraph (3-vertex double-edge
  block, bridge, 5-vertex subdivided-K4 block); no simple bridged cubic
  graph exists below 10 vertices
* bridged10: two subdivided-K4 blocks joined by a bridge (simple)
* heawood: the 14-vertex girth-6 graph, taken from networkx
* prism15: the 15-prism C15 x K2 (n = 30), too large for any search
  over vertex subsets
* prisms: the k-prisms C_k x K2 for k = 3..15, keyed by k
* prism5000: the 2500-prism (n = 5000), deeper than the interpreter's
  recursion limit for a search that recurses once per match
* no_perfect_matching10: three bridges from one vertex, each to a
  triangle with a doubled edge (n = 10); removing that vertex leaves
  three odd components, so it has no perfect matching
* small_graphs: every generated connected cubic multigraph with
  n <= 10 (simple graphs included), then bridged8 and bridged10
* doubled_edge_ring: three doubled edges joined in a ring by single
  edges (n = 6); once one of a vertex's neighbours is covered, its last
  uncovered neighbour can be the one joined by the doubled edge
* random_multigraphs: 40 seeded pairing-model multigraphs, eight each
  for n = 12..20; they may be disconnected or lack a perfect matching
* random_simple_graphs: 20 seeded pairing-model simple graphs with
  n = 30, all of them connected
* random_girth5_graphs: 40 seeded pairing-model simple graphs of girth
  exactly 5: one for each even n = 20..60, then one more for each even
  n = 20..56
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from cubicscan.connectivity import girth
from cubicscan.enumeration import generate_cubic_graphs
from cubicscan.graphs import CubicGraph, from_edge_list, petersen


@pytest.fixture(scope="session")
def triple_edge() -> CubicGraph:
    return from_edge_list(2, [(0, 1), (0, 1), (0, 1)])


@pytest.fixture(scope="session")
def k4() -> CubicGraph:
    return from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture(scope="session")
def k33() -> CubicGraph:
    return from_edge_list(
        6, [(u, v) for u in range(3) for v in range(3, 6)]
    )


@pytest.fixture(scope="session")
def prism() -> CubicGraph:
    return from_edge_list(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


@pytest.fixture(scope="session")
def petersen_graph() -> CubicGraph:
    return petersen()


def _subdivided_k4_block(offset: int) -> list[tuple[int, int]]:
    """Five-vertex block: K4 on offset+1..offset+4 with the edge between
    the first two replaced by a path through the attachment vertex."""
    s, a, b, c, d = range(offset, offset + 5)
    return [(s, a), (s, b), (a, c), (a, d), (b, c), (b, d), (c, d)]


@pytest.fixture(scope="session")
def bridged8() -> CubicGraph:
    edges = [(0, 1), (0, 2), (1, 2), (1, 2), (0, 3)] + _subdivided_k4_block(3)
    return from_edge_list(8, edges)


@pytest.fixture(scope="session")
def bridged10() -> CubicGraph:
    edges = _subdivided_k4_block(0) + _subdivided_k4_block(5) + [(0, 5)]
    return from_edge_list(10, edges)


@pytest.fixture(scope="session")
def heawood() -> CubicGraph:
    g = nx.heawood_graph()
    return from_edge_list(g.number_of_nodes(), list(g.edges()))


def _k_prism(k: int) -> CubicGraph:
    rungs = [(i, i + k) for i in range(k)]
    cycles = [(i, (i + 1) % k) for i in range(k)] + [
        (i + k, (i + 1) % k + k) for i in range(k)
    ]
    return from_edge_list(2 * k, rungs + cycles)


@pytest.fixture(scope="session")
def prism15() -> CubicGraph:
    return _k_prism(15)


@pytest.fixture(scope="session")
def prism32() -> CubicGraph:
    return _k_prism(32)


@pytest.fixture(scope="session")
def prism50() -> CubicGraph:
    return _k_prism(50)


@pytest.fixture(scope="session")
def prism5000() -> CubicGraph:
    return _k_prism(2500)


@pytest.fixture
def prism258048() -> CubicGraph:
    # one vertex past sparse6's 18-bit size field; not kept for the session
    return _k_prism(129024)


@pytest.fixture(scope="session")
def prisms() -> dict[int, CubicGraph]:
    return {k: _k_prism(k) for k in range(3, 16)}


@pytest.fixture(scope="session")
def no_perfect_matching10() -> CubicGraph:
    edges = []
    for a in (1, 4, 7):
        edges += [(0, a), (a, a + 1), (a, a + 2), (a + 1, a + 2), (a + 1, a + 2)]
    return CubicGraph(n=10, edges=tuple(edges))


@pytest.fixture(scope="session")
def small_graphs(bridged8, bridged10) -> list[CubicGraph]:
    generated = [
        g for n in range(2, 11, 2) for g in generate_cubic_graphs(n, allow_multi=True)
    ]
    return generated + [bridged8, bridged10]


@pytest.fixture(scope="session")
def two_k4s_disconnected_edges() -> list[tuple[int, int]]:
    block = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return block + [(u + 4, v + 4) for u, v in block]


@pytest.fixture(scope="session")
def doubled_edge_ring() -> CubicGraph:
    doubled = [(0, 1), (0, 1), (2, 3), (2, 3), (4, 5), (4, 5)]
    return from_edge_list(6, doubled + [(1, 2), (3, 4), (5, 0)])


def _pairing_multigraph(rng: random.Random, n: int) -> CubicGraph:
    """A loopless cubic multigraph from the pairing model; it may be
    disconnected or have no perfect matching."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = list(zip(points[0::2], points[1::2]))
        if all(u != v for u, v in edges):
            return from_edge_list(n, edges)


@pytest.fixture(scope="session")
def random_multigraphs() -> list[CubicGraph]:
    rng = random.Random(12)
    return [_pairing_multigraph(rng, n) for n in range(12, 21, 2) for _ in range(8)]


@pytest.fixture(scope="session")
def random_simple_graphs() -> list[CubicGraph]:
    rng = random.Random(30)
    graphs = []
    while len(graphs) < 20:
        g = _pairing_multigraph(rng, 30)
        if not g.has_parallel_edges:
            graphs.append(g)
    return graphs


@pytest.fixture(scope="session")
def random_girth5_graphs() -> list[CubicGraph]:
    rng = random.Random(5)
    graphs = []
    for i in range(40):
        while True:
            g = _pairing_multigraph(rng, 20 + 2 * (i % 21))
            if not g.has_parallel_edges and girth(g) == 5:
                graphs.append(g)
                break
    return graphs
