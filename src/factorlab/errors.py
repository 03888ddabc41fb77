"""Exception types shared across the package."""


class FactorLabError(Exception):
    """Base class for all package errors."""


class EmptyGraphError(FactorLabError):
    """An operation requires at least one vertex."""


class NonDisjointError(FactorLabError):
    """Two vertex sets that must be disjoint overlap."""


class BadParamsError(FactorLabError):
    """Construction or bound parameters are out of range."""


class ParityPreconditionError(FactorLabError):
    """(a, b, n) violate a <= b, a == b (mod 2), or n*a even."""


class InvalidGFError(FactorLabError):
    """Per-vertex degree bounds (g, f) are malformed."""


class SizeLimitError(FactorLabError):
    """An exhaustive decider was asked to exceed its soft size cap."""


class NotConvergedError(FactorLabError):
    """Power iteration reached max_iter with residual above tolerance, or the
    exact characteristic polynomial failed to certify a quotient's Perron
    root (no sign change across it, as at a root of even multiplicity)."""


class NotEquitableError(FactorLabError):
    """A partition is not equitable: ``vertex`` has a different neighbour count in ``part`` from its part's first vertex."""

    def __init__(self, vertex: int, part: int):
        super().__init__(vertex, part)  # the args rebuild it when unpickled
        self.vertex, self.part = vertex, part

    def __str__(self) -> str:
        return f"partition not equitable at vertex {self.vertex}, part {self.part}"


class NotAPartitionError(FactorLabError):
    """Vertex sets passed as a partition do not partition V."""


class BadRotationError(FactorLabError):
    """An edge rotation violates its neighborhood preconditions."""


class SamplerExhaustedError(FactorLabError):
    """Rejection sampling could not meet its constraints."""


class Graph6Error(FactorLabError):
    """Malformed graph6 input."""
