"""Exception types shared across the package, and the JSON parse boundary."""

import contextlib
import sys


class GraphDynError(Exception):
    """Base class for all package errors."""


class DimensionError(GraphDynError, ValueError):
    """Matrix or vector shapes are incompatible with the operation."""


class ContextError(GraphDynError, ValueError):
    """A letter or edge does not belong to the graph's edge relation."""


class GraphError(GraphDynError, ValueError):
    """A node or edge is missing from the graph."""


class OrderError(GraphDynError, ValueError):
    """Interval endpoints are not in the required order."""


class StructureError(GraphDynError, ValueError):
    """The graph lacks structure required by the operation (e.g. a linear order)."""


class AcyclicityError(GraphDynError, ValueError):
    """A directed cycle was found where an acyclic graph is required."""


class DegeneracyError(GraphDynError, ValueError):
    """Inputs are degenerate (e.g. commuting where non-commuting is required)."""


class NotCPTPError(GraphDynError, ValueError):
    """A map failed the complete-positivity / trace-preservation checks."""


class InputError(GraphDynError, ValueError):
    """Malformed user-facing input (CLI specs, JSON literals)."""


class PreconditionError(GraphDynError, RuntimeError):
    """A construction's mathematical precondition failed numerically."""

    def __init__(self, axiom, message):
        super().__init__(message)
        self.axiom = axiom


@contextlib.contextmanager
def reading(what):
    """The parse boundary, as a context manager or a decorator: a KeyError,
    TypeError, IndexError or AttributeError raised while reading loaded JSON
    becomes an InputError that names ``what``.  Any other exception, a
    GraphDynError included, passes unchanged, so a bug stays a traceback."""
    try:
        yield
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc


def is_number(value):
    """A JSON number a float holds: an int or float, finite, never a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)
