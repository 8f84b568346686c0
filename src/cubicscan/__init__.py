"""Cubic-graph structural analysis and exhaustive scanning toolkit."""

from .graphs import (
    CubicGraph,
    CubicGraphError,
    canonical_form,
    from_edge_list,
    is_isomorphic,
    petersen,
    relabeled,
)

__version__ = "0.1.0"

__all__ = [
    "CubicGraph",
    "CubicGraphError",
    "canonical_form",
    "from_edge_list",
    "is_isomorphic",
    "petersen",
    "relabeled",
    "__version__",
]
