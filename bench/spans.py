"""Per-layer spans around scalecover's public functions, from outside.

``Tracer.install`` replaces each layer's public functions with timing
wrappers, as module attributes, in every scalecover module that binds them,
so calls through ``from x import y`` names are seen too.  Private functions
are wrapped only where another module imports them (a layer boundary, such
as covers calling rips._word_trivial).  Two methods are wrapped on the class:
``FilteredSpace.__post_init__`` (construction) and ``FilteredSpace.related``
(counted; a leaf span kept cheap).  Every other method runs inside the span
of its caller's layer; ``unseen_boundaries`` lists them.

A span's self time is its duration minus the durations of its child spans,
so per job the layers' self times add up to the root span, the job's
``cli.main`` call.  ``timed_imports`` adds each layer's import to its self
time, so a layer the jobs never call still shows its measured set-up.  No
library source is edited; the wrappers live only in the freshly imported
modules of one traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.machinery
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("spaces", "intlinalg", "rips", "coset", "covers", "quotients",
          "towers", "actions", "formats", "cli")

# Work counters, read from the results of these functions.
COUNTERS = (
    "rips.triangles", "rips.relators", "intlinalg.snf_cells",
    "coset.rows_defined", "covers.vertices", "covers.slots",
    "spaces.related_calls", "actions.group_elements", "towers.thread_pairs",
)


def _coset_rows(result, args, kwargs):
    if result is not None:
        return result.rows_defined
    # an exhausted enumeration defined rows up to its budget
    return args[2] if len(args) > 2 else kwargs.get("max_rows", 100_000)


def _hooks():
    """(layer, function) -> (work(result, args, kwargs) -> {counter: n}, on miss only)."""
    def points(r):
        return len(r.space.points)

    return {
        ("rips", "rips_2_skeleton"): (
            lambda r, a, k: {"rips.triangles": len(r.triangles)}, False),
        ("rips", "presentation_at_scale"): (
            lambda r, a, k: {"rips.relators": len(r.relators)}, True),
        ("intlinalg", "smith_normal_form_vinv"): (
            lambda r, a, k: {"intlinalg.snf_cells": len(a[0]) * (len(a[0][0]) if a[0] else 0)},
            False),
        ("coset", "coset_enumeration"): (
            lambda r, a, k: {"coset.rows_defined": _coset_rows(r, a, k)}, False),
        ("covers", "build_cover"): (
            lambda r, a, k: {"covers.vertices": r.num_vertices,
                             "covers.slots": sum(v is not None for slots in r.edges
                                                 for v in slots.values())},
            False),
        ("actions", "close_group"): (
            lambda r, a, k: {"actions.group_elements": len(r.elements)}, False),
        ("towers", "assemble_limit_space"): (
            lambda r, a, k: {"towers.thread_pairs": points(r) * (points(r) - 1) // 2}, False),
    }


class Tracer:
    """Span bookkeeping for one traced pass; all state lives here."""

    def __init__(self):
        self.self_s = defaultdict(float)      # layer -> self seconds
        self.counts = defaultdict(int)        # counter -> work count
        self.calls = defaultdict(int)         # "layer.function" -> calls
        self.root_s = []                      # durations of root spans
        self._stack = []                      # child seconds of open spans

    def install(self, modules: dict) -> None:
        """Wrap the layer functions of freshly imported scalecover modules.

        ``modules`` maps layer name to module object.
        """
        imported = set()  # (home module, name) of functions other modules bind
        for mod in modules.values():
            for name, obj in vars(mod).items():
                home = getattr(obj, "__module__", None)
                if callable(obj) and not inspect.isclass(obj) and home != mod.__name__:
                    imported.add((home, name))
        hooks = _hooks()
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not self._is_function(obj, mod):
                    continue
                if name.startswith("_") and (mod.__name__, name) not in imported:
                    continue
                wrappers[id(obj)] = self._span(layer, name, obj, hooks.get((layer, name)))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
        space_cls = modules["spaces"].FilteredSpace
        space_cls.__post_init__ = self._span("spaces", "FilteredSpace.__post_init__",
                                             space_cls.__post_init__, None)
        space_cls.related = self._leaf_related(space_cls.related)

    @contextlib.contextmanager
    def timed_imports(self):
        """Time the execution of each layer module as a span of its layer, so
        a layer's self time includes its import; nested imports are children."""
        tracer = self

        class Finder:
            @staticmethod
            def find_spec(name, path, target=None):
                layer = name.rpartition(".")[2]
                if not name.startswith("scalecover.") or layer not in LAYERS:
                    return None
                spec = importlib.machinery.PathFinder.find_spec(name, path, target)
                if spec is not None:
                    spec.loader.exec_module = tracer._span(
                        layer, "<import>", spec.loader.exec_module, None)
                return spec

        sys.meta_path.insert(0, Finder)
        try:
            yield
        finally:
            sys.meta_path.remove(Finder)

    @staticmethod
    def _is_function(obj, mod) -> bool:
        if getattr(obj, "__module__", None) != mod.__name__:
            return False
        return inspect.isfunction(obj) or hasattr(obj, "cache_info")

    def _span(self, layer, name, fn, hook):
        stack, self_s, pc = self._stack, self.self_s, time.perf_counter
        key = f"{layer}.{name}"
        work, miss_only = hook if hook else (None, False)
        counts, calls, roots = self.counts, self.calls, self.root_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][1] is key:
                return fn(*args, **kwargs)  # a recursive call stays in its caller's span
            frame = [0.0, key]
            stack.append(frame)
            t0 = pc()
            try:
                misses = fn.cache_info().misses if miss_only else 0
                result = fn(*args, **kwargs)
                if work and (not miss_only or fn.cache_info().misses > misses):
                    for counter, amount in work(result, args, kwargs).items():
                        counts[counter] += amount
                return result
            finally:
                dur = pc() - t0
                stack.pop()
                self_s[layer] += dur - frame[0]
                calls[key] += 1
                if stack:
                    stack[-1][0] += dur
                else:
                    roots.append(dur)

        return span

    def _leaf_related(self, fn):
        """FilteredSpace.related calls no other wrapped function: no frame."""
        stack, self_s, counts, pc = self._stack, self.self_s, self.counts, time.perf_counter

        @functools.wraps(fn)
        def related(space, k, x, y):
            t0 = pc()
            try:
                return fn(space, k, x, y)
            finally:
                dur = pc() - t0
                self_s["spaces"] += dur
                counts["spaces.related_calls"] += 1
                if stack:
                    stack[-1][0] += dur

        return related


def unseen_boundaries(modules: dict) -> list:
    """Methods of layer classes that the trace does not wrap."""
    out = []
    for layer, mod in modules.items():
        for cname, cls in vars(mod).items():
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                continue
            if issubclass(cls, BaseException):
                continue
            methods = sorted(
                name for name, member in vars(cls).items()
                if (inspect.isfunction(member) or isinstance(member, (property, classmethod)))
                and not (name.startswith("__") and name != "__post_init__")
                and (cname, name) not in (("FilteredSpace", "__post_init__"),
                                          ("FilteredSpace", "related"))
            )
            if methods:
                out.append(f"{layer}.{cname}: {', '.join(methods)}")
    return out
