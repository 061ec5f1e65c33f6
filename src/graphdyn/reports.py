"""Uniform result records for the numerical checkers, and their JSON text.

Every checker in this package returns a ``CheckReport`` so the CLI can emit
one stable JSON schema for all of them; :func:`dumps` writes it.
"""

import json


class CheckReport:
    """One check's result.  A plain class, because importing ``dataclasses``
    loads ``inspect`` into every word command."""

    __slots__ = ("name", "passed", "max_defect", "tolerance", "argmax", "count",
                 "offenders", "details")

    def __init__(self, name, passed, max_defect=0.0, tolerance=0.0, argmax=None,
                 count=0, offenders=None, details=None):
        self.name, self.passed = name, passed
        self.max_defect, self.tolerance, self.argmax = max_defect, tolerance, argmax
        self.count = count
        self.offenders = [] if offenders is None else offenders
        self.details = {} if details is None else details

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
    """A report field as JSON: a JSON scalar of exactly its type as it is, a
    list or tuple as a list.  Any other type, a numpy float say, is a
    checker's bug, so it raises rather than be written as something else."""
    if obj is None or type(obj) in (bool, int, float, str):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"a report field is a {type(obj).__name__}, not a JSON scalar or list")


def defect_report(name, defects, keys, tol, *, floor=0.0, offenders=False,
                  details=None):
    """The report on per-key ``defects``: it passes when every defect is at
    most ``tol``, so a NaN defect fails.

    The witness (``argmax``) is the key of the first NaN or else of the first
    largest defect above ``floor``, and ``max_defect`` is that defect clipped
    below at 0; with no such defect they are ``0.0`` and ``None``.  A signed
    check passes ``floor=-inf`` to name the key closest to failing even when
    every key passes.  ``offenders`` lists the first ten failing
    ``(key, defect)`` pairs; ``count`` is the number of defects.  It is the
    one-block case of :func:`streamed_report`."""
    import numpy as np
    defects = np.asarray(defects, dtype=float)
    rep = streamed_report(name, [(np.arange(defects.size), defects)], keys.__getitem__,
                          tol, floor=floor, offenders=offenders)
    rep.details = details or {}
    return rep


def streamed_report(name, blocks, key, tol, *, floor, offenders):
    """:func:`defect_report` on a population whose defects arrive in blocks,
    reduced as they arrive, so that no more than a block is held.

    ``blocks`` yields ``(index, defects)`` pairs of equal-length arrays:
    ``index`` holds the defects' positions in the population, ascending
    within a block, and the blocks cover the population once, in any order.
    "First" means least position, whatever the order of the blocks.
    ``key(i)`` is the key of position ``i``; it is called for the witness and
    the offenders only."""
    import numpy as np
    count, failed = 0, False
    top = None  # (defect, position) of the witness so far
    kept = []  # the first ten failing (position, defect) pairs so far
    for index, defects in blocks:
        if not len(defects):
            continue
        count += len(defects)
        i = int(np.argmax(defects))  # the block's first NaN, if it has one
        d, at = float(defects[i]), int(index[i])
        if top is None or _outranks(d, at, *top):
            top = (d, at)
        bad = np.flatnonzero(~(defects <= tol))[:10]
        if bad.size:
            failed = True
            if offenders:
                kept = sorted(kept + list(zip(index[bad].tolist(), defects[bad].tolist())))[:10]
    worst, arg = 0.0, None
    if top is not None and not top[0] <= floor:
        # max returns its first argument unless the second is larger, so a
        # NaN stays NaN
        worst, arg = max(top[0], 0.0), key(top[1])
    return CheckReport(name, not failed, worst, tol, arg, count=count,
                       offenders=[(key(i), d) for i, d in kept])


def _outranks(d, at, d0, at0):
    """Whether defect ``d`` at position ``at`` is a witness before ``d0`` at
    ``at0``: a NaN outranks every number, and among NaNs or among equal
    numbers the least position wins."""
    if d != d or d0 != d0:
        return d != d and (d0 == d0 or at < at0)
    return d > d0 or (d == d0 and at < at0)


def bad_keys_report(name, bad, count, details=None):
    """The report of an exact check that lists its failing keys ``bad``."""
    return CheckReport(name, not bad, float(len(bad)), 0.0, count=count,
                       offenders=bad[:10], details=details or {})


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
