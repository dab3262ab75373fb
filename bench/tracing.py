"""Spans around the calls into curstat's public functions.

The program itself is not touched.  :meth:`Tracer.installed` replaces each
public function with a wrapper wherever a caller looks it up: in the
module that defines it, in every curstat module that imported the name
directly (``cli`` and ``bandwidth`` do), and in module-level dispatch
tables that captured the function at import time
(``bandwidth._SMLE_EVAL`` / ``_MSLE_EVAL``).  Leaving the context puts
every original back.

A span records its name, start, end, thread id and parent.  Spans of
replicate bodies run on pool threads; their parent is the
``replicate_map`` span that scheduled them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict

MODULES = ("mle", "kernels", "smoothing", "estimators", "bandwidth", "sim", "_threads", "cli")

ROOT = "cli.main"
REPLICATE_MAP = "_threads.replicate_map"
REPLICATE = "bandwidth.replicate"


def _observe_fit_mle(result):
    return {"jumps": result.jump_times.size}


def _observe_fit_smoothed(result):
    return {"grid_nodes": result.grid.size, "boundary_nodes": int((result.grid < result.h).sum())}


def _observe_fit_msle(result):
    return {"hull_blocks": result.hull_vertices.size, "touch_fraction": float(result.touch_mask.mean())}


def _observe_selection(c_hat, c_grid):
    return {"c_at_edge": int(c_hat in (c_grid[0], c_grid[-1]))}


# sizes read off a function's result, keyed by span name
OBSERVERS = {
    "mle.fit_mle": _observe_fit_mle,
    "smoothing.fit_smoothed": _observe_fit_smoothed,
    "estimators.fit_msle": _observe_fit_msle,
    "bandwidth.bootstrap_bandwidth": lambda r: _observe_selection(r.c_hat, r.c_grid),
    "bandwidth.mc_bandwidth": lambda r: _observe_selection(r.c_tilde, r.c_grid),
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        # [name, start, end, thread id, parent index]
        self.spans: list[list] = []
        self.sizes: dict[str, list[dict]] = {name: [] for name in OBSERVERS}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, threading.get_ident(), parent])
        stack.append(index)
        try:
            yield index
        finally:
            self.spans[index][2] = time.perf_counter()
            stack.pop()

    def clear(self) -> None:
        self.spans = []
        self.sizes = {name: [] for name in OBSERVERS}

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                self.sizes[name].append(observe(result))
            return result

        return traced

    def _wrap_replicate_map(self, fn):
        @functools.wraps(fn)
        def traced(body, count, master_seed):
            with self.span(REPLICATE_MAP) as parent:

                def traced_body(i, rng):
                    with self.span(REPLICATE, parent=parent):
                        return body(i, rng)

                return fn(traced_body, count, master_seed)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public curstat function for the duration."""
        modules = [importlib.import_module(f"curstat.{m}") for m in MODULES]
        modules.append(importlib.import_module("curstat"))
        wrappers = {}
        for mod in modules[:-1]:
            short = mod.__name__.split(".", 1)[1]
            names = list(getattr(mod, "__all__", ()))
            if short == "cli":
                names.append("read_observations")
            for attr in names:
                fn = getattr(mod, attr)
                if isinstance(fn, type) or not callable(fn) or id(fn) in wrappers:
                    continue
                qual = f"{short}.{attr}"
                wrappers[id(fn)] = (
                    self._wrap_replicate_map(fn) if qual == REPLICATE_MAP else self._wrap(qual, fn)
                )
        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                    undo.append((mod.__dict__, attr, value))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]
                            undo.append((value, key, item))
        try:
            yield self
        finally:
            for table, key, original in reversed(undo):
                table[key] = original


# ---------------------------------------------------------------------------
# aggregation


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the part of it that its child
    spans cover.
    """
    children = defaultdict(list)
    for name, start, end, _tid, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, _tid, _parent) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _union_length(children.get(index, ()))
    return dict(out)


def group_time(spans: list[list], names: set[str]) -> tuple[float, int]:
    """Seconds and calls of the outermost spans in ``names``.

    A span nested in another span of the group (``msle_lambda`` calling
    ``msle_F``) is not counted twice.
    """
    total, calls = 0.0, 0
    for name, start, end, _tid, parent in spans:
        if name not in names:
            continue
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][4]
        if parent is None:
            total += end - start
            calls += 1
    return total, calls
