"""Exception types shared across the package, and the JSON parse boundary."""

import contextlib
import sys


class InputError(ValueError):
    """Malformed input that a command reads: a spec, a JSON literal, a flag.
    The CLI exits 2 on it, and on no other error of the package."""


class PreconditionError(RuntimeError):
    """A construction's mathematical precondition failed numerically."""

    def __init__(self, axiom, message):
        super().__init__(message)
        self.axiom = axiom


@contextlib.contextmanager
def reading(what):
    """The parse boundary, as a context manager or a decorator: a KeyError,
    TypeError, IndexError or AttributeError raised while reading loaded JSON
    becomes an InputError that names ``what``.  Any other exception passes
    unchanged, so a bug stays a traceback."""
    try:
        yield
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc


def is_number(value):
    """A JSON number a float holds: an int or float, finite, never a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)
