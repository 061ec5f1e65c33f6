"""Span recorder installed around the calls into graphdyn's layers.

The layers are the package modules ``cli``, ``rewrite``, ``linops``,
``dynamics``, ``extend`` and ``dilate``.  ``install`` replaces every public
function of a layer in *every* graphdyn namespace that binds it (``dilate``
imports ``spectral_norm`` by name, ``extend`` imports the triple checkers by
name, ``dilate.PIPELINES`` holds the pipeline functions), plus the public
methods listed in ``METHODS``.  ``uninstall`` puts every original back.

A span has a name, start, end, parent span and command id.  Self time is a
span's duration minus the time its child spans cover; it is accumulated as
spans close, so the per-name statistics need no second pass.  Spans are also
kept in memory, up to ``max_spans``, and written out by ``save``.
"""

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "rewrite", "linops", "dynamics", "extend", "dilate")
# not layers (too thin), but their namespaces can bind layer functions
OTHER_MODULES = ("reports", "sampling", "errors")

METHODS = {
    "dynamics": [("OperatorFamily", "__call__"), ("GeneratorFamily", "__call__")],
    "extend": [("NormalFormExtension", "__init__"), ("NormalFormExtension", "__call__"),
               ("FirstCoverExtension", "__init__"), ("FirstCoverExtension", "evaluate"),
               ("SecondCoverExtension", "__init__"),
               ("SecondCoverExtension", "generator_of")],
    "dilate": [("VedDilation", "verify_element"), ("VedDilation", "unitary_of"),
               ("VedDilation", "apply"),
               ("ShiftDilation", "value"), ("ShiftDilation", "compression_matrix"),
               ("FormalVector", "of"), ("Channel", "__init__"),
               ("DilatedSystem", "verify"), ("KrausDilation", "verify")],
}

SLOW_S = 1e-3  # a call slower than this counts in ``slow_calls``


def _edge_key(args):
    return id(args[0]), (args[1][0], args[1][1])


def _element_key(args):
    return id(args[0]), args[1]


# Distinct (object, key) pairs give cache hit ratios measured from outside.
KEYS = {
    "dynamics.OperatorFamily.__call__": _edge_key,
    "dynamics.GeneratorFamily.__call__": _edge_key,
    "dilate.VedDilation.unitary_of": _element_key,
    "dilate.ShiftDilation.value": _element_key,
}


class Tracer:
    def __init__(self, max_spans=100_000):
        self.max_spans = max_spans
        self.stats = {}                   # name -> [calls, inclusive_s, self_s, slow_calls]
        self.counters = defaultdict(int)  # work counts read from arguments/results
        self.distinct = defaultdict(int)  # name -> distinct (object, key) pairs
        self._seen = {}                   # name -> pairs seen in the current command
        self._names = []
        self._spans = array("d")          # (id, parent, command, name, start, end) rows
        self.dropped = 0
        self._stack = []                  # open spans: [start, child_s, id]
        self._next_id = 1
        self.command = 0
        self._patches = []
        self._hooks = {
            "rewrite.gmul": (self._count_gmul_letters, None),
            "rewrite.check_confluence_bruteforce": (None, self._count_confluence_words),
            "dilate.FormalVector.of": (None, self._count_formal_terms),
        }

    # -- counters fed from call arguments and results -----------------------------

    def _count_gmul_letters(self, args):
        self.counters["rewrite.gmul.letters"] += len(args[0].letters) + len(args[1].letters)

    def _count_confluence_words(self, report):
        self.counters["rewrite.confluence.words"] += report.count

    def _count_formal_terms(self, vector):
        self.counters["dilate.formal_terms"] += len(vector.terms)

    # -- spans ----------------------------------------------------------------------

    def begin_command(self):
        """Start a new command id.  Distinct keys are counted per command,
        since object ids are reused once a command's objects are freed."""
        self.flush()
        self.command += 1

    def flush(self):
        """Fold the current command's distinct keys into the totals."""
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
            seen.clear()

    def wrap(self, name, fn):
        """``fn`` with a span of ``name`` around every call."""
        self._names.append(name)
        name_idx = float(len(self._names) - 1)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        on_args, on_result = self._hooks.get(name, (None, None))
        key = KEYS.get(name)
        seen = self._seen.setdefault(name, set()) if key else None
        stack, spans, clock = self._stack, self._spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_args is not None:
                on_args(args)
            if seen is not None:
                seen.add(key(args))
            sid = self._next_id
            self._next_id = sid + 1
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start, child, _ = frame
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child
                if dur > SLOW_S:
                    stat[3] += 1
                parent = 0
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][2]
                if len(spans) < 6 * self.max_spans:
                    spans.extend((sid, parent, self.command, name_idx, start, end))
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- installation -----------------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module("graphdyn." + name)
                for name in LAYERS + OTHER_MODULES}
        namespaces = [vars(importlib.import_module("graphdyn"))] + \
            [vars(m) for m in mods.values()]
        traced = {}
        for layer in LAYERS:
            mod = mods[layer]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    traced[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for ns in namespaces:
            for name, value in list(ns.items()):
                if inspect.isfunction(value) and id(value) in traced:
                    self._patch_item(ns, name, traced[id(value)])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and id(item) in traced:
                            self._patch_item(value, key, traced[id(item)])
        for layer, methods in METHODS.items():
            for cls_name, attr in methods:
                cls = getattr(mods[layer], cls_name)
                self._patch_method(cls, attr, f"{layer}.{cls_name}.{attr}")

    def _patch_item(self, container, key, new):
        self._patches.append(("item", container, key, container[key]))
        container[key] = new

    def _patch_method(self, cls, attr, span_name):
        own = cls.__dict__.get(attr)
        if isinstance(own, classmethod):
            new = classmethod(self.wrap(span_name, own.__func__))
        else:
            new = self.wrap(span_name, getattr(cls, attr))
        self._patches.append(("attr", cls, attr, own))
        setattr(cls, attr, new)

    def uninstall(self):
        while self._patches:
            kind, target, key, original = self._patches.pop()
            if kind == "item":
                target[key] = original
            elif original is None:
                delattr(target, key)  # the method was inherited
            else:
                setattr(target, key, original)

    # -- results ------------------------------------------------------------------------

    def stat(self, name):
        calls, incl, self_s, slow = self.stats.get(name, (0, 0.0, 0.0, 0))
        return {"calls": calls, "inclusive_s": incl, "self_s": self_s, "slow_calls": slow}

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(v[2] for n, v in self.stats.items() if n.startswith(prefix))

    def hit_ratio(self, *names):
        calls = sum(self.stats.get(n, (0,))[0] for n in names)
        distinct = sum(self.distinct.get(n, 0) for n in names)
        return 1.0 - distinct / calls if calls else 0.0

    def save(self, path):
        """Write the kept spans as JSON: a name table and one row per span."""
        rows = [self._spans[i:i + 6].tolist() for i in range(0, len(self._spans), 6)]
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "parent", "command", "name", "start_s", "end_s"],
                       "names": self._names, "dropped": self.dropped,
                       "spans": [[int(r[0]), int(r[1]), int(r[2]), int(r[3]), r[4], r[5]]
                                 for r in rows]}, fh)


def namespace_snapshot():
    """Identity of every binding the tracer may patch, to check a restore."""
    names = ("",) + tuple("." + m for m in LAYERS + OTHER_MODULES)
    modules = {name: importlib.import_module("graphdyn" + name) for name in names}
    snap = {}
    for name, module in modules.items():
        for key, value in vars(module).items():
            snap[(name, key)] = id(value)
            if isinstance(value, dict) and not key.startswith("__"):
                for k, item in value.items():
                    snap[(name, key, k)] = id(item)
    for layer, methods in METHODS.items():
        for cls_name, attr in methods:
            cls = getattr(modules["." + layer], cls_name)
            snap[(layer, cls_name, attr)] = id(cls.__dict__.get(attr))
    return snap
