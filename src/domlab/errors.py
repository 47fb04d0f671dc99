"""Exception types shared across the package."""

from __future__ import annotations


class DomLabError(Exception):
    """Base class for every error raised by domlab."""


class EmptyGraphError(DomLabError):
    """A graph with zero vertices was requested; every graph here has n >= 1."""


class BadEdgeError(DomLabError):
    """An edge endpoint is out of range, or the edge is a self-loop."""


class BadVertexError(DomLabError):
    """A vertex id is outside 0..n-1, or a vertex set belongs to a different universe."""


class BadParameterError(DomLabError):
    """A generator or operation parameter is outside its documented range."""


class SizeOverflowError(DomLabError):
    """A Cartesian product would exceed the configured vertex limit."""


class Graph6Error(DomLabError):
    """Malformed graph6 input: `message` at byte position `offset`."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.message = message
        self.offset = offset


class TooLargeError(DomLabError):
    """An exhaustive operation was asked to run beyond its size guard."""


class BudgetExhaustedError(DomLabError):
    """The search node budget ran out.

    `upper_bound` and `witness` carry the best dominating set seen so far,
    which is valid but not proven minimum.
    """

    def __init__(self, message: str, upper_bound: int | None = None, witness=None):
        super().__init__(message)
        self.upper_bound = upper_bound
        self.witness = witness


class NotDominatingError(DomLabError):
    """A set that must dominate its graph does not."""


class ProjectionNotMinimalError(DomLabError):
    """The first-factor projection of a product dominating set is not a minimal dominating set."""
