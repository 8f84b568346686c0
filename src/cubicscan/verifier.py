"""Structural claim checks on a single graph, and the 10-vertex
uniqueness check for the all-5-cycle property.

``verify_claims`` evaluates every claim predicate unconditionally, so
the resulting report doubles as a structural profile of the graph even
when the all-5-cycle premise fails. When the premise holds, the claim
chain C1..C8 plus the final neighborhood check must all hold; the scan
in :mod:`cubicscan.enumeration` asserts exactly that.

No claim enumerates perfect matchings. C8 sets up the matching search
once per graph and asks it a first-leaf query for each 3-edge path that
no matching found so far answers, so the cost of ``verify_claims`` does
not follow the matching count.

Claim ids:
  C1  no cycle of length two (no parallel edge pair)
  C2  no two triangles sharing an edge
  C3  no square and triangle sharing an edge
  C4  no triangle
  C5  girth is exactly five
  C6  3-edge-connected
  C7  every 3-edge-cut is a vertex star
  C8  every 3-edge path extends to a perfect matching through its
      outer edges
  FINAL  5-cycle neighborhood structure, decided by its 3-edge-path
         condition, which on girth 5 forces the other two (see
         verify_neighborhood_structure)
  PROP4  a 10-vertex girth-5 graph must be the Petersen graph
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from . import connectivity, matching
from .errors import DisconnectedError, DuplicateGraphError, PreconditionError
from .graphs import CubicGraph, canonical_form, is_isomorphic, petersen
from .matching import _matched_edge_ids, _matching_search

__all__ = [
    "CLAIM_IDS",
    "ClaimResult",
    "ClaimReport",
    "verify_claims",
    "verify_neighborhood_structure",
    "verify_petersen_uniqueness",
]

CLAIM_IDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "FINAL", "PROP4")


@dataclass(frozen=True)
class ClaimResult:
    holds: bool
    witness: object = None


@dataclass(frozen=True)
class ClaimReport:
    """Per-graph record of every claim predicate plus the premise."""

    graph_certificate: str
    premise_holds: bool
    premise_witness: dict | None
    claim_results: dict[str, ClaimResult] = field(compare=False)
    is_petersen: bool = False

    def to_json_dict(self) -> dict:
        return {
            "graph_certificate": self.graph_certificate,
            "premise_holds": self.premise_holds,
            "premise_witness": self.premise_witness,
            "claims": {
                cid: {"holds": res.holds, "witness": res.witness}
                for cid, res in sorted(self.claim_results.items())
            },
            "is_petersen": self.is_petersen,
        }


def _three_edge_paths(g: CubicGraph) -> Iterator[tuple[int, int, int, int]]:
    """All paths u-v-w-x on four distinct vertices, one orientation each."""
    nbr = g.neighbor_lists
    for v in range(g.n):
        for w in set(nbr[v]):
            if w < v:
                continue  # orient the middle edge
            for u in set(nbr[v]) - {w}:
                for x in set(nbr[w]) - {v, u}:
                    if u != x:
                        yield (u, v, w, x)


def _check_c8(g: CubicGraph) -> ClaimResult:
    """The first 3-edge path u-v-w-x with no perfect matching through
    uv and wx, by first-leaf queries on one matching search.

    Parallel edges swap in and out of a perfect matching, so the first
    id of a doubled uv or wx stands for both. A found matching M answers
    more than its own query: each edge ab, a < b, joins the M-edges at a
    and b, so that pair of ids extends. A path whose pair is kept needs
    no query, so every query that succeeds finds a new matching, and C8
    never asks more of them than the graph has perfect matchings."""
    search = _matching_search(g)
    extends: set[tuple[int, int]] = set()
    for u, v, w, x in _three_edge_paths(g):
        e = next(eid for y, eid in g.adjacency[u] if y == v)
        f = next(eid for y, eid in g.adjacency[w] if y == x)
        if (e, f) in extends:
            continue
        found = next(search(e, f), None)
        if found is None:
            return ClaimResult(False, {"path": [u, v, w, x]})
        at = _matched_edge_ids(g, found)
        extends.update((at[a], at[b]) for a, b in g.edges)
    return ClaimResult(True)


def _neighborhood_structure(g: CubicGraph) -> tuple[bool, dict | None]:
    nbr = [set(row) for row in g.neighbor_lists]
    for u, v, w, x in _three_edge_paths(g):
        if not any(y in nbr[u] for y in nbr[x] - {u, v, w}):
            return False, {"check": "3-edge path not on a 5-cycle", "path": [u, v, w, x]}
    return True, None


class NeighborhoodCheck(NamedTuple):
    holds: bool
    witness: dict | None


def verify_neighborhood_structure(g: CubicGraph) -> NeighborhoodCheck:
    """Check the three 5-cycle neighborhood conditions on a girth-5 graph.

    (a) every 3-edge path lies on a 5-cycle; (b) every 2-edge path lies
    on at least two distinct 5-cycles; (c) each closed second
    neighborhood has 10 distinct vertices with exactly two edges
    between each pair of second-neighborhood blocks.

    Only (a) is scanned: on girth 5 it forces (b) and (c). Let v have
    neighbours a, b, c, and let A = N(a) - v and B = N(b) - v. Girth 5
    makes v, its neighbours and their six other neighbours ten distinct
    vertices, and the 5-cycles through a-v-b are exactly the edges
    between A and B. A vertex of A with two neighbours in B would close
    a 4-cycle through b, so there are at most two such edges; (a) on
    each path x-a-v-b, x in A, gives x a neighbour in B, so there are
    exactly two. A graph that fails (b) or (c) therefore fails (a)
    first, and the witness is the first 3-edge path on no 5-cycle.
    """
    girth_value = connectivity.girth(g)
    if girth_value != 5:
        raise PreconditionError(
            f"neighborhood structure needs girth 5, got {girth_value}"
        )
    return NeighborhoodCheck(*_neighborhood_structure(g))


def verify_claims(g: CubicGraph) -> ClaimReport:
    """Evaluate the premise and every claim predicate on one graph."""
    if not connectivity.is_connected(g):
        raise DisconnectedError("claim verification requires a connected graph")

    results: dict[str, ClaimResult] = {}

    two_cycle = connectivity.find_two_cycle(g)
    results["C1"] = ClaimResult(
        two_cycle is None,
        None if two_cycle is None else {"parallel_edge_ids": list(two_cycle)},
    )

    adjacent = connectivity.find_adjacent_triangles(g)
    results["C2"] = ClaimResult(
        adjacent is None,
        None
        if adjacent is None
        else {"apexes": [adjacent[0], adjacent[1]], "shared_edge": list(adjacent[2])},
    )

    square_triangle = connectivity.find_square_triangle_pair(g)
    results["C3"] = ClaimResult(
        square_triangle is None,
        None
        if square_triangle is None
        else {
            "square": list(square_triangle[0]),
            "triangle": list(square_triangle[1]),
            "shared_edge": list(square_triangle[2]),
        },
    )

    triangle = connectivity.find_cycle_of_length(g, 3)
    results["C4"] = ClaimResult(
        triangle is None, None if triangle is None else {"cycle": list(triangle)}
    )

    girth_value = connectivity.girth(g)
    if girth_value == 5:
        results["C5"] = ClaimResult(True)
    else:
        short: object = None
        if girth_value == 2:
            short = {"parallel_edge_ids": list(two_cycle)}
        elif girth_value in (3, 4):
            short = {"cycle": list(connectivity.find_cycle_of_length(g, girth_value))}
        results["C5"] = ClaimResult(False, {"girth": girth_value, "witness": short})

    lam = connectivity.edge_connectivity(g)
    results["C6"] = ClaimResult(
        lam == 3,
        None
        if lam == 3
        else {
            "edge_connectivity": lam,
            "cut": sorted(next(connectivity.edge_cuts(g, lam)).edges),
        },
    )

    nonstar = next(
        (c for c in connectivity.enumerate_3_edge_cuts(g) if not c.is_vertex_star), None
    )
    results["C7"] = ClaimResult(
        nonstar is None,
        None
        if nonstar is None
        else {"cut_edges": sorted(nonstar.edges), "side": list(nonstar.side_u)},
    )

    results["C8"] = _check_c8(g)

    if girth_value == 5:
        holds, witness = _neighborhood_structure(g)
        results["FINAL"] = ClaimResult(holds, witness)
    else:
        results["FINAL"] = ClaimResult(False, {"girth": girth_value})

    petersen_like = is_isomorphic(g, petersen())
    results["PROP4"] = ClaimResult(not (g.n == 10 and girth_value == 5) or petersen_like)

    premise_witness = matching.five_cycle_premise_witness(g)
    return ClaimReport(
        graph_certificate=canonical_form(g).certificate.decode("ascii"),
        premise_holds=premise_witness is None,
        premise_witness=premise_witness,
        claim_results=results,
        is_petersen=petersen_like,
    )


def verify_petersen_uniqueness(stream: Iterable[CubicGraph]) -> bool:
    """Among all connected cubic simple graphs on 10 vertices, exactly one
    has girth 5 and it is the Petersen graph.

    The stream must be duplicate-free up to isomorphism; duplicate
    certificates raise DuplicateGraphError.
    """
    seen: set[bytes] = set()
    girth_five: list[CubicGraph] = []
    for g in stream:
        cert = canonical_form(g).certificate
        if cert in seen:
            raise DuplicateGraphError("stream contains isomorphic duplicates")
        seen.add(cert)
        if connectivity.girth(g) == 5:
            girth_five.append(g)
    return len(girth_five) == 1 and is_isomorphic(girth_five[0], petersen())
