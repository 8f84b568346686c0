"""Structural claim checks on a single graph, from C1 to the 10-vertex
uniqueness of the Petersen graph (PROP4).

``verify_claims`` evaluates every claim predicate unconditionally, so
the resulting report doubles as a structural profile of the graph even
when the all-5-cycle premise fails. When the premise holds, the claim
chain C1..C8 plus the final neighborhood check must all hold. The scan
in :mod:`cubicscan.enumeration` does not run these claims: it checks
each graph for bridges, each bridgeless one for the premise and each
positive for isomorphism to Petersen, and ``cli._scan_exit_code`` turns
that into its verdict.

The report is the dict that ``cubicscan verify --output json`` prints,
built from JSON types only; ``docs/report-schema.json`` defines its
shape. It holds ``report`` ("verify"), ``graph_certificate``,
``premise_holds``, ``premise_witness``, ``is_petersen`` and ``claims``,
which maps each claim id to ``{"holds": bool, "witness": ...}``. Each
claim check (the :mod:`cubicscan.connectivity` detectors for C1 to C4,
C5 at girth 4, C6 and C7; ``_check_c8``; ``_neighborhood_structure``)
returns the witness the report prints, or None, and ``_claim`` wraps it.

No claim enumerates perfect matchings. C8 sets up the matching search
once per graph and asks it a first-leaf query for each 3-edge path that
no matching found so far answers. The premise walks the matchings in
order until one has a cycle of another length; on Petersen it walks all six.

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
         _neighborhood_structure)
  PROP4  a 10-vertex girth-5 graph must be the Petersen graph
"""

from __future__ import annotations

from typing import Iterator

from . import connectivity, matching
from .graphs import CubicGraph, CubicGraphError, canonical_form, is_isomorphic, petersen
from .matching import _matching_search

__all__ = [
    "CLAIM_IDS",
    "verify_claims",
]

CLAIM_IDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "FINAL", "PROP4")


def _claim(witness: dict | None) -> dict:
    """A claim entry: the claim holds exactly when no witness refutes it."""
    return {"holds": witness is None, "witness": witness}


def _three_edge_paths(g: CubicGraph) -> Iterator[tuple[int, int, int, int]]:
    """All paths u-v-w-x on four distinct vertices, one orientation each,
    in the ``set`` order of the neighbours: CPython's slot order for small
    ints, not ascending (``list(set([3, 4, 11]))`` is ``[11, 3, 4]``), so
    C8's and FINAL's witness, the first failing path, follows it too."""
    nbr = g.neighbor_lists
    for v in range(g.n):
        for w in set(nbr[v]):
            if w < v:
                continue  # orient the middle edge
            for u in set(nbr[v]) - {w}:
                for x in set(nbr[w]) - {v, u}:
                    yield (u, v, w, x)


def _check_c8(g: CubicGraph) -> dict | None:
    """C8's witness, ``{"path": [u, v, w, x]}`` for the first 3-edge path
    u-v-w-x with no perfect matching through uv and wx, or None; found
    by first-leaf queries on one matching search.

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
            return {"path": [u, v, w, x]}
        extends.update((found[a], found[b]) for a, b in g.edges)
    return None


def _neighborhood_structure(g: CubicGraph) -> dict | None:
    """Check the three 5-cycle neighborhood conditions on a girth-5 graph,
    returning the witness against them, or None when they hold.

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
    nbr = [set(row) for row in g.neighbor_lists]
    for u, v, w, x in _three_edge_paths(g):
        if not any(y in nbr[u] for y in nbr[x] - {u, v, w}):
            return {"check": "3-edge path not on a 5-cycle", "path": [u, v, w, x]}
    return None


def verify_claims(g: CubicGraph) -> dict:
    """Evaluate the premise and every claim predicate on one graph, as
    the dict that ``verify --output json`` prints."""
    if not connectivity.is_connected(g):
        raise CubicGraphError("claim verification requires a connected graph")

    claims = {
        "C1": _claim(connectivity.find_two_cycle(g)),
        "C2": _claim(connectivity.find_adjacent_triangles(g)),
        "C3": _claim(connectivity.find_square_triangle_pair(g)),
        "C4": _claim(connectivity.find_cycle_of_length(g, 3)),
    }

    girth_value = connectivity.girth(g)
    # a 2-cycle is C1's witness and a triangle C4's; girth 6+ has none
    short = {2: claims["C1"]["witness"], 3: claims["C4"]["witness"]}.get(girth_value)
    if girth_value == 4:
        short = connectivity.find_cycle_of_length(g, 4)
    claims["C5"] = _claim(None if girth_value == 5 else {"girth": girth_value, "witness": short})

    claims["C6"] = _claim(connectivity.find_small_edge_cut(g))
    claims["C7"] = _claim(connectivity.find_nonstar_3_edge_cut(g))
    claims["C8"] = _claim(_check_c8(g))

    claims["FINAL"] = _claim(
        _neighborhood_structure(g) if girth_value == 5 else {"girth": girth_value}
    )

    petersen_like = g.n == 10 and is_isomorphic(g, petersen())
    claims["PROP4"] = {
        "holds": not (g.n == 10 and girth_value == 5) or petersen_like,
        "witness": None,
    }

    premise_witness = matching.five_cycle_premise_witness(g)
    return {
        "report": "verify",
        "graph_certificate": canonical_form(g),
        "premise_holds": premise_witness is None,
        "premise_witness": premise_witness,
        "claims": claims,
        "is_petersen": petersen_like,
    }
