"""Exception types shared across the package.

An argument that a function refuses raises ``BadParamsError``, whatever the
argument is: an order, a vertex set, a partition, a degree window.  A
subclass of ``FactorLabError`` needs a caller that catches it by name or
data that it carries:

- ``ParityPreconditionError``: the CLI's ``skipped_parity`` line;
- ``SizeLimitError``: the CLI's ``size_limit`` line, the survey's g_na
  fallback and the benchmark's span counter;
- ``Graph6Error``: the CLI's ``input error:`` line;
- ``NotEquitableError``: carries ``vertex`` and ``part``;
- ``NotConvergedError`` and ``SamplerExhaustedError``: a computation that
  did not finish, not a refused argument (the benchmark counts the latter).
"""


class FactorLabError(Exception):
    """Base class for all package errors."""


class BadParamsError(FactorLabError):
    """A refused argument: out of range, not an integer, or breaking a stated condition such as disjoint S and T."""


class ParityPreconditionError(FactorLabError):
    """(a, b, n) violate 1 <= a <= b, a == b (mod 2), or n*a even."""


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


class SamplerExhaustedError(FactorLabError):
    """Rejection sampling could not meet its constraints."""


class Graph6Error(FactorLabError):
    """Malformed graph6 input."""
