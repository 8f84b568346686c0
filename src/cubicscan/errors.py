"""Exception hierarchy shared across the package."""


class CubicGraphError(Exception):
    """Base class for all errors raised by this package."""


class ConstructionError(CubicGraphError):
    """A graph fails the cubic multigraph invariants."""


class DegreeError(ConstructionError):
    """Some vertex does not have degree exactly 3."""


class LoopError(ConstructionError):
    """An edge has equal endpoints."""


class OddVertexCountError(ConstructionError):
    """The vertex count is odd (or too small to be cubic)."""


class FormatError(CubicGraphError):
    """Malformed graph6/sparse6/edge-list input."""


class DisconnectedError(CubicGraphError):
    """The operation requires a connected graph."""


class PreconditionError(CubicGraphError):
    """A documented precondition of the operation does not hold."""


class MatchingError(CubicGraphError):
    """An edge set is not a perfect matching of the given graph."""


class GenerationLimitError(CubicGraphError):
    """Requested vertex count is outside the generator's supported range."""


class DuplicateGraphError(CubicGraphError):
    """An input stream expected to be isomorphism-free contains duplicates."""
