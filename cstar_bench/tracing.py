"""Spans for the traced run, recorded from the benchmark's own files.

``Tracer.install()`` replaces public functions where callers look them up:

- every public function bound in the module globals of ``algebra``,
  ``channel`` and ``information``;
- in ``cli``, the library functions it imports, plus ``cli.main`` itself, so
  that ``cli.main``'s self time is parsing, rendering and writing;
- ``TensorElement.dense``, ``TensorElement.__mul__`` and
  ``ProductState.__call__``.

A span is named after the defining module and function
(``channel.capacity``), records start, end, parent span and counters, and is
kept in memory until ``dump`` writes the spans as JSON lines.  ``reduce``
turns a span file into per-layer self times and counts.  The untraced run
never constructs a Tracer, so its code carries no wrappers.
"""

import functools
import json
import os
import time
import types

from cstar_info import algebra, channel, cli, information, probability

_METHODS = (
    (algebra.TensorElement, "dense", "algebra.dense"),
    (algebra.TensorElement, "__mul__", "algebra.mul"),
    (probability.ProductState, "__call__", "probability.product_state"),
)


def _tensor_power_counts(args, kwargs, result):
    return {"terms": len(result.terms)}


def _capacity_counts(args, kwargs, result):
    return {"iterations": result.iterations}


def _coding_counts(args, kwargs, result):
    out_dim = args[0].output_dim
    return {
        "trials": sum(r.trials for r in result),
        "cells": sum(r.trials * r.codebook_size * out_dim ** r.k for r in result),
    }


def _aep_counts(args, kwargs, result):
    return {"strings": args[0].algebra.dim ** int(args[1])}


def _main_counts(args, kwargs, result):
    argv = args[0]
    if result != 0:
        return None
    return {"artifact_bytes": os.path.getsize(argv[argv.index("--output") + 1])}


# counters computed from a span's arguments and result, per span name
_COUNTERS = {
    "algebra.tensor_power": _tensor_power_counts,
    "channel.capacity": _capacity_counts,
    "channel.coding_experiment": _coding_counts,
    "information.aep_typical_set": _aep_counts,
    "cli.main": _main_counts,
}
# counters recorded when a span's call raises, per span name and exception
_FAILURES = {"channel.capacity": (channel.ConvergenceError, {"failed": 1})}


class Tracer:
    """In-memory span recorder; spans are (id, name, start, end, parent, counts)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def span(self, name, fn):
        """``fn`` wrapped so each call records one span named ``name``."""
        counter = _COUNTERS.get(name)
        failure = _FAILURES.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                counts = failure[1] if failure and isinstance(exc, failure[0]) else None
                spans[sid] = (sid, name, start, end, parent, counts)
                raise
            end = clock()
            stack.pop()
            spans[sid] = (sid, name, start, end, parent,
                          counter(args, kwargs, result) if counter else None)
            return result

        return wrapper

    def _patch(self, owner, attr, name):
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original))

    def install(self):
        for module in (algebra, channel, information, cli):
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if module is cli and home == "cli" and attr != "main":
                    continue
                self._patch(module, attr, "%s.%s" % (home, obj.__name__))
        for owner, attr, name in _METHODS:
            self._patch(owner, attr, name)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, counts in self.spans:
                record = {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                if counts:
                    record["counts"] = counts
                handle.write(json.dumps(record) + "\n")


def reduce(path):
    """Per span name: total self time, calls, and summed counters.

    A span's self time is its duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            spans.append(json.loads(line))
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals = {}
    for s in spans:
        entry = totals.setdefault(s["name"], {"s": 0.0, "calls": 0})
        entry["s"] += s["end"] - s["start"] - child_time[s["id"]]
        entry["calls"] += 1
        for key, value in s.get("counts", {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
