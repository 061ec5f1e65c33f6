"""Uniform result records for the numerical checkers, and their JSON text.

Every checker in this package returns a ``CheckReport`` so the CLI can emit
one stable JSON schema for all of them; :func:`dumps` writes it.
"""

import json
from dataclasses import dataclass, field


@dataclass
class CheckReport:
    name: str
    passed: bool
    max_defect: float = 0.0
    tolerance: float = 0.0
    argmax: object = None
    count: int = 0
    offenders: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_defect": float(self.max_defect),
            "tolerance": float(self.tolerance),
            "argmax": _jsonable(self.argmax),
            "count": int(self.count),
            "offenders": [_jsonable(o) for o in self.offenders],
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }


def _jsonable(obj):
    """Best-effort conversion to JSON-serialisable primitives."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return _jsonable(obj.item())
    if hasattr(obj, "tolist"):  # numpy array
        return _jsonable(obj.tolist())
    return str(obj)


def defect_report(name, defects, keys, tol, *, floor=0.0, offenders=False,
                  count=None, details=None):
    """The report on per-key ``defects``: it passes when every defect is at
    most ``tol``, so a NaN defect fails.

    The witness (``argmax``) is the key of the first NaN or else of the first
    largest defect above ``floor``, and ``max_defect`` is that defect clipped
    below at 0; with no such defect they are ``0.0`` and ``None``.  A signed
    check passes ``floor=-inf`` to name the key closest to failing even when
    every key passes.  ``offenders`` lists the first ten failing
    ``(key, defect)`` pairs; ``count`` defaults to the number of defects."""
    import numpy as np
    defects = np.asarray(defects, dtype=float)
    failing = ~(defects <= tol)
    worst, arg = 0.0, None
    if defects.size:
        i = int(np.argmax(defects))  # the first NaN, if there is one
        if not defects[i] <= floor:
            # max returns its first argument unless the second is larger,
            # so a NaN stays NaN
            worst, arg = max(float(defects[i]), 0.0), keys[i]
    return CheckReport(
        name, not failing.any(), worst, tol, arg,
        count=defects.size if count is None else count,
        offenders=[(keys[i], float(defects[i]))
                   for i in np.flatnonzero(failing)[:10]] if offenders else [],
        details=details or {})


def bad_keys_report(name, bad, count, details=None):
    """The report of an exact check that lists its failing keys ``bad``."""
    return CheckReport(name, not bad, float(len(bad)), 0.0, count=count,
                       offenders=bad[:10], details=details or {})


def summarize(reports):
    """Aggregate pass flag over a list of reports."""
    return all(r.passed for r in reports)


# Containers nested deeper than this are written by json itself, so that a
# circular body raises json's ValueError, not a RecursionError here.
_MAX_DEPTH = 64
_escape = json.encoder.encode_basestring_ascii
_INF = float("inf")


def dumps(obj):
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, faster.

    With ``indent`` set, json runs its pure-Python encoder; this one joins
    strings per container instead.  Word literals and normal forms repeat
    their letters, so the text of each list of strings is kept for the call,
    per indentation.  Only lists of exact ``str`` are kept: ``1``,
    ``1.0`` and ``True`` (or ``0.0`` and ``-0.0``) are equal keys with
    different texts."""
    return _encode(obj, "\n", {}, 0)


def _scalar(o):
    """json's text of a scalar, checked in json's order, or None."""
    if isinstance(o, str):
        return _escape(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    return None


def _encode(o, indent, memo, depth):
    """The text of ``o`` whose structural newlines are followed by ``indent``
    (a newline and the spaces of its level)."""
    if depth < _MAX_DEPTH:
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            key = (indent, *o)
            try:
                text = memo.get(key)
            except TypeError:  # an unhashable item, so not a list of strings
                text = key = None
            if text is None:
                inner = indent + "  "
                text = "".join(("[", inner, ("," + inner).join(
                    [_encode(x, inner, memo, depth + 1) for x in o]), indent, "]"))
                if key is not None and all(type(x) is str for x in o):
                    memo[key] = text
            return text
        if isinstance(o, dict) and all(isinstance(k, str) for k in o):
            if not o:
                return "{}"
            inner = indent + "  "
            return "".join(("{", inner, ("," + inner).join(
                [_escape(k) + ": " + _encode(v, inner, memo, depth + 1)
                 for k, v in sorted(o.items())]), indent, "}"))
    text = _scalar(o)
    if text is not None:
        return text
    # Non-str keys, unknown types and deep nesting.  With ensure_ascii every
    # raw newline in json's text is structural, so the replace indents it.
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", indent)
