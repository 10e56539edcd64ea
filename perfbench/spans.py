"""Spans around every call into gapforge's layers, installed from outside.

The tracer replaces each public function in the gapforge.<layer> namespaces
(and the package namespace) with a wrapper that records a span, and does
the same for the public methods of ComposedSetCover.  Because a module
looks its globals up at call time, calls made inside a layer (codes calling
its own relative_distance, pipeline calling reed_solomon) are caught too.
Private helpers are left alone: they run in the innermost loops, where a
span would cost more than the work it measures.

Spans live in flat arrays (start, end, parent, name) until the run ends.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import math
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("codes", "threshold", "frontends", "maxcover", "setcover", "pipeline")


def _add(name, field):
    def hook(tracer, args, kwargs, result):
        tracer.counts[name] += getattr(result, field)
    return hook


def _reed_solomon(tracer, args, kwargs, result):
    tracer.rs_args.add((args, tuple(sorted(kwargs.items()))))


def _verify_threshold(tracer, args, kwargs, result):
    tracer.counts["threshold.verify_threshold.completeness_checked"] += \
        result.completeness_checked
    tracer.counts["threshold.verify_threshold.collision_subsets_examined"] += \
        result.collision_subsets_examined


def _clique_to_maxcover(tracer, args, kwargs, result):
    if not hasattr(result, "edges"):  # a DecidedNo, not a MaxCoverInstance
        tracer.counts["frontends.decided_no"] += 1


def _maxcover_value(tracer, args, kwargs, result):
    tracer.counts["maxcover.maxcover_value.labelings_examined"] += result.labelings_examined
    tracer.counts["maxcover.maxcover_value.labelings_total"] += math.prod(args[0].v_parts)


def _min_cover(tracer, args, kwargs, result):
    tracer.counts["setcover.min_cover.subsets_examined"] += result[2]


def _compose_setcover(tracer, args, kwargs, result):
    tracer.counts["setcover.universe_elements"] += result.universe_size


def _pipeline(tracer, args, kwargs, result):
    for stage in result.stages:
        tracer.stage_s[stage.name] += stage.seconds


HOOKS = {
    "codes.reed_solomon": _reed_solomon,
    "codes.relative_distance": _add("codes.relative_distance.pairs_examined",
                                    "pairs_examined"),
    "codes.collision_number": _add("codes.collision_number.subsets_examined",
                                   "subsets_examined"),
    "threshold.verify_threshold": _verify_threshold,
    "frontends.clique_to_maxcover": _clique_to_maxcover,
    "maxcover.maxcover_value": _maxcover_value,
    "setcover.min_cover": _min_cover,
    "setcover.compose_setcover": _compose_setcover,
    "pipeline.wone_pipeline": _pipeline,
    "pipeline.eth_pipeline": _pipeline,
}


class Tracer:
    """Span recorder for one process; install() once, after set-up."""

    def __init__(self, mods):
        self.mods = mods
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.stack: list[int] = []
        self.suspended = False  # oracle checks run untraced
        self.counts: Counter = Counter()
        self.stage_s: Counter = Counter()
        self.rs_args: set = set()
        self._wrappers: dict[int, types.FunctionType] = {}
        self._installed: list = []

    def install(self) -> None:
        """Put a span wrapper in place of every public layer function."""
        for mod in [self.mods.package] + [getattr(self.mods, layer) for layer in LAYERS]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    layer = obj.__module__.rpartition(".")[2]
                    if layer in LAYERS:
                        self._replace(mod, attr, obj, f"{layer}.{obj.__name__}")
        cls = self.mods.setcover.ComposedSetCover
        for attr, obj in list(vars(cls).items()):
            if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                self._replace(cls, attr, obj, f"setcover.{attr}")

    def uninstall(self) -> None:
        """Put the original functions back."""
        for owner, attr, original in self._installed:
            setattr(owner, attr, original)
        self._installed.clear()

    def _replace(self, owner, attr: str, fn, span_name: str) -> None:
        self._installed.append((owner, attr, fn))
        setattr(owner, attr, self._wrapper(fn, span_name))

    def _wrapper(self, fn, span_name: str):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        tracer = self
        nid = len(self.names)
        self.names.append(span_name)
        layer = span_name.partition(".")[0]
        hook = HOOKS.get(span_name)
        starts, ends, parents, names, stack = (self.start, self.end, self.parent,
                                               self.name, self.stack)
        error_type = self.mods.errors.GapforgeError
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                if not hasattr(exc, "perfbench_layer"):  # count where it was raised
                    exc.perfbench_layer = layer
                    tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        self._wrappers[id(fn)] = span
        return span

    def self_times(self):
        """Per span name: (calls, total self seconds), over every recorded span."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(duration))
        own = duration - children
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 names=np.array(self.names))
