"""Error taxonomy shared by every construction module.

Each exception carries a stable ``code`` string so callers (and the CLI)
can dispatch on failure kind without parsing messages.
"""

from __future__ import annotations


class GeomError(Exception):
    """Base class for all construction failures."""

    code = "E_GEOM"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class PreconditionError(GeomError):
    """An input invariant of a construction was violated."""

    code = "E_PRECONDITION"


class CoincidentPointsError(GeomError):
    """Two points expected to be distinct coincide."""

    code = "E_COINCIDENT"


class ParallelLinesError(GeomError):
    """Two lines expected to meet are parallel."""

    code = "E_PARALLEL"


class CaseUnavailableError(GeomError):
    """The requested case does not exist for this configuration."""

    code = "E_CASE_UNAVAILABLE"


class OriginOnLineError(GeomError):
    """The transversal passes through the origin, which the construction forbids."""

    code = "E_ORIGIN_ON_L"


class OriginOffAxisError(GeomError):
    """The requested frame origin does not lie on the axis line."""

    code = "E_ORIGIN_OFF_AXIS"


class DegenerateTransversalError(GeomError):
    """The frame transversal direction is parallel to the axis."""

    code = "E_DEGENERATE_TRANSVERSAL"


class SingularSystemError(GeomError):
    """A linear system that should be uniquely solvable is degenerate."""

    code = "E_SINGULAR"


class InconsistentError(GeomError):
    """A guaranteed identity failed; indicates a bug, never bad input."""

    code = "E_INCONSISTENT"


class ParallelProjectionError(GeomError):
    """A projection ray is parallel to the target line."""

    code = "E_PARALLEL_PROJECTION"


class ParseError(GeomError):
    """Scene text does not match the input grammar."""

    code = "E_PARSE"

    def __init__(self, message: str, position: int, expected: str):
        super().__init__(f"{message} at position {position} (expected {expected})")
        self.position = position
        self.expected = expected
