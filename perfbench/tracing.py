"""Tracing of hfgenus from outside the package, for the traced benchmark run.

`install()` wraps the public functions and methods of every layer module.
Each name is replaced where its caller looks it up: in the defining module,
in every other layer module (and the package namespace) that imported it by
name, and on the class for methods.  Every wrapped call is counted per lookup
site.  Calls that run once per lattice point or per polynomial term are only
counted (a span each would swamp the work they measure); every other call
records a span (name, start, end, parent).  Spans and counts stay in memory
and are written once, by `write`, when the job ends.  Nothing under `src/`
is touched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("laurent", "linkcat", "hfunction", "region", "bounds", "cable",
          "render", "cli")

# Per lattice point or per term: counted, never timed.
COUNT_ONLY = frozenset({
    "hfunction.HTable.H", "hfunction.HTable.h", "hfunction.HTable.H_minus",
    "hfunction.HTable.chi", "hfunction.HTable.iter_box", "hfunction.HTable.ensure_box",
    "bounds.f_cap", "region.dominates", "region.UpwardClosedRegion.contains",
    "laurent.KnotChiSeries.ray_sum", "laurent.KnotChiSeries.coeff",
    "laurent.double_exponent", "laurent.halve_exponent",
    "laurent.LaurentPoly.coeff", "laurent.LaurentPoly.is_zero",
    "laurent.symmetry_sign", "linkcat.subset_key",
})

# Dunder methods traced besides the public names.
EXTRA_DUNDERS = frozenset({"HTable.__init__", "LaurentPoly.__mul__"})


class Tracer:
    """Spans and counts of one job process."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []      # [name id, start, end, parent span index]
        self.stack: list = []
        self.calls: Counter = Counter()   # "site:qualname" -> calls
        self.counts: Counter = Counter()  # derived counts (see _hooks)
        self.tables: list = []            # HTables whose __init__ returned
        self._points: dict = {}           # id(table) -> set of H points
        self._seen_errors: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn):
        """Call fn() inside a span of the given name."""
        return self._span_wrapper(name, "", fn)()

    def _span_wrapper(self, name, call_key, fn, hook=None):
        nid = self._name_id(name)
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[call_key] += 1
            idx = len(spans)
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(args, None, exc)
                raise
            finally:
                stack.pop()
                rec[2] = clock()
            if hook is not None:
                hook(args, result, None)
            return result
        return wrapper

    def _count_wrapper(self, call_key, fn, hook=None):
        calls = self.calls

        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[call_key] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[call_key] += 1
                hook(args, None, None)
                return fn(*args, **kwargs)
        return wrapper

    # -- derived counts ---------------------------------------------------------

    def _hooks(self) -> dict:
        """Derived counts.  A hook of a counted call runs before the call; a
        hook of a span runs after it, with its result or exception."""
        counts = self.counts

        def on_init(args, result, exc):
            if exc is None:
                self.tables.append(args[0])
            elif type(exc).__name__ == "SignResolutionError" \
                    and id(exc) not in self._seen_errors:
                # a disjoint-union table re-raises its part's error: count once
                self._seen_errors.add(id(exc))
                counts["hfunction.sign_rejections"] += 1

        def on_H(args, result, exc):
            table, s = args[0], tuple(args[1])
            key = id(table)
            if key not in self._points:
                self._points[key] = set()
            self._points[key].add(s)

        def on_ensure_box(args, result, exc):
            table, M = args[0], args[1]
            if M > table.M:
                counts["hfunction.box_growths"] += 1

        def on_h_positive(args, result, exc):
            if exc is None:
                counts["hfunction.h_positive_points"] += len(result)

        def on_region(args, result, exc):
            if exc is None:
                counts["region.generators"] += len(result.generators)

        def on_maximal(args, result, exc):
            if exc is None:
                counts["region.maximal_points"] += len(result)

        return {
            "hfunction.HTable.__init__": on_init,
            "hfunction.HTable.H": on_H,
            "hfunction.HTable.ensure_box": on_ensure_box,
            "hfunction.HTable.h_positive": on_h_positive,
            "region.region_from_h": on_region,
            "region.maximal_lattice_points": on_maximal,
        }

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("hfgenus")
        modules = {layer: importlib.import_module(f"hfgenus.{layer}")
                   for layer in LAYERS}
        hooks = self._hooks()

        def make(site, name, fn):
            hook = hooks.get(name)
            key = f"{site}:{name.split('.', 1)[1]}"
            if name in COUNT_ONLY:
                return self._count_wrapper(key, fn, hook)
            return self._span_wrapper(name, key, fn, hook)

        originals = {}   # id(function) -> traced name
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    originals[id(value)] = (f"{layer}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_class(layer, value, make)
        # Replace each function wherever a module looks it up by name.
        sites = dict(modules, hfgenus=pkg)
        for site, mod in sites.items():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    name, fn = originals[id(value)]
                    setattr(mod, attr, make(site, name, fn))

    def _wrap_class(self, layer, cls, make):
        wrapped = {}
        for attr, value in list(vars(cls).items()):
            func = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            if not inspect.isfunction(func):
                continue
            if attr.startswith("_") and f"{cls.__name__}.{attr}" not in EXTRA_DUNDERS:
                continue
            if id(func) not in wrapped:
                wrapped[id(func)] = make(layer, f"{layer}.{cls.__name__}.{func.__name__}", func)
        for attr, value in list(vars(cls).items()):
            func = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            if id(func) in wrapped and inspect.isfunction(func):
                new = wrapped[id(func)]
                if isinstance(value, (classmethod, staticmethod)):
                    new = type(value)(new)
                setattr(cls, attr, new)

    # -- output ---------------------------------------------------------------------

    def finish_counts(self) -> None:
        """Counts read from the job's tables once the job has ended."""
        c = self.counts
        c["hfunction.H_distinct"] = sum(len(p) for p in self._points.values())
        c["hfunction.box_points"] = sum((2 * t.M + 1) ** t.n for t in self.tables)
        c["hfunction.sign_flips"] = sum(
            1 for t in self.tables for s in t.sign_resolution.values() if s == -1)

    def write(self, path: str) -> None:
        self.finish_counts()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "calls": dict(self.calls), "counts": dict(self.counts)}, fh)
