"""Outside-in tracing of the cisim layers.

The benchmark does not change cisim.  It times each layer by replacing
every public function of every cisim module with a wrapper: at the module
attribute, and in every cisim module that imported the name.  Public
methods of public classes are wrapped on the class, and a hand-written
``__init__`` is wrapped as a span named after the class.  Calls inside a
module resolve globals at call time, so they go through the wrappers too.

Two wrappers exist, for two separate passes:

* ``Tracer`` records a span (id, name, start, end, parent) and counts
  calls, total time and self time (a span minus its child spans).  Totals
  cover every call; the span log keeps the first ``SPAN_CAP`` spans of each
  name, so a function called millions of times does not fill memory.
* ``RssTracer`` records the peak resident memory above the level at entry
  for spans of depth 0 (the workload's timed call) and depth 1 (the layers
  it calls).  It runs in its own pass, because its sampler thread takes the
  interpreter lock from the traced code.  It samples the resident set
  rather than using ``tracemalloc``: the end-to-end memory metric is the
  resident set too, and ``tracemalloc`` made a chain-h4 pass 3.6 times
  slower, past the time a run may take.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import os
import pkgutil
import threading
import time


def public_callables(package):
    """(span name, owner, attribute, function) for every cisim public callable.

    The span name is ``<module>.<function>``, ``<module>.<Class>`` for a
    hand-written constructor, and ``<module>.<Class>.<method>``.
    """
    found = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{info.name}.{attr}", module, attr, obj))
            elif inspect.isclass(obj):
                if "__init__" in vars(obj) and not dataclasses.is_dataclass(obj):
                    found.append((f"{info.name}.{attr}", obj, "__init__",
                                  vars(obj)["__init__"]))
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found.append((f"{info.name}.{attr}.{meth}", obj, meth, fn))
    return found


def _modules(package):
    yield package
    for info in pkgutil.iter_modules(package.__path__):
        yield importlib.import_module(f"{package.__name__}.{info.name}")


class _Patcher:
    """Installs wrappers over a package's public callables and undoes them."""

    def __init__(self):
        self.names: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def install(self, package):
        replaced = {}
        for name, owner, attr, fn in public_callables(package):
            wrapper = functools.wraps(fn)(self.make_wrapper(name, fn))
            self.names.add(name)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
            else:
                replaced[id(fn)] = (fn, wrapper)
        # rebind module-level functions wherever a cisim module holds them
        for module in _modules(package):
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


class Tracer(_Patcher):
    """Span log plus per-name calls, total and self time.

    ``observers`` maps a span name to ``fn(args, result, counters)``, called
    after the span closes; its time is kept out of the parent's self time,
    and an error in it is recorded, never passed on to the program.
    """

    SPAN_CAP = 500

    def __init__(self, observers: dict):
        super().__init__()
        self.observers = observers
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []          # (id, name, start, end, parent id)
        self._stack: list[list] = []          # [span id, child time]
        self.observer_errors: list[str] = []
        self._ids = itertools.count()

    def make_wrapper(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        cap, counters = self.SPAN_CAP, self.counters
        observe, errors = self.observers.get(name), self.observer_errors

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if stat[0] <= cap:
                    spans.append((frame[0], name, start, end,
                                  parent[0] if parent is not None else None))
            if observe is not None:
                t0 = clock()
                try:
                    observe(args, result, counters)
                except Exception as exc:  # the program's result stands
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")
                if parent is not None:
                    parent[1] += clock() - t0
            return result

        return traced


class RssTracer(_Patcher):
    """Peak resident memory above entry level for spans at depth <= MAX_DEPTH.

    A sampler thread reads the process's resident set size every
    ``INTERVAL_S``; each span also samples at entry and exit.  The peak of a
    span is the highest sample inside it minus the sample at its entry.
    """

    MAX_DEPTH = 1
    INTERVAL_S = 0.002

    def __init__(self):
        super().__init__()
        self.peak: dict[str, int] = {}
        self._stack: list = []   # [bytes at entry, highest peak seen] or None
        self._high = 0           # highest sample since the last reset
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_loop, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def rss(self) -> int:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * self._page

    def _sample(self):
        current = self.rss()
        with self._lock:
            self._high = max(self._high, current)

    def _sample_loop(self):
        while not self._stop.wait(self.INTERVAL_S):
            self._sample()

    def _reset(self) -> tuple[int, int]:
        """(current, highest since the last reset), then restart the peak."""
        current = self.rss()
        with self._lock:
            high = max(self._high, current)
            self._high = current
        return current, high

    def install(self, package):
        super().install(package)
        self._thread.start()

    def uninstall(self):
        self._stop.set()
        self._thread.join()
        super().uninstall()

    def make_wrapper(self, name, fn):
        stack, peak, max_depth = self._stack, self.peak, self.MAX_DEPTH

        def traced(*args, **kwargs):
            if len(stack) > max_depth:
                stack.append(None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            current, high = self._reset()
            if stack:
                stack[-1][1] = max(stack[-1][1], high)
            frame = [current, current]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self._sample()
                with self._lock:
                    high = max(self._high, frame[1])
                peak[name] = max(peak.get(name, 0), high - frame[0])
                if stack:
                    stack[-1][1] = max(stack[-1][1], high)

        return traced
