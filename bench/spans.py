"""In-process spans around the package's layer functions.

A :class:`Tracer` keeps one span stack per thread. A span's self time is its
duration minus the durations of its direct children on the same thread, so
the pool workers' spans nest under nothing on their own threads and never
count against the span of the thread that waits for them.

:func:`traced` wraps each listed function at every module binding of it
inside the ``edge3c`` package, since modules call one another's functions
through their own ``from .x import f`` bindings, and restores them all on
exit. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time

#: (module, function) pairs traced; the metric prefix is "<module>.<function>"
TARGETS = (
    ("units", "parse_quantity"),
    ("model", "load_config"),
    ("model", "validate_config"),
    ("model", "replace_field"),
    ("bandwidth", "route_costs"),
    ("policy", "solve_optimal"),
    ("policy", "classify_regime"),
    ("policy", "baseline_policy"),
    ("tradeoff", "sweep"),
    ("tradeoff", "rows_to_csv"),
    ("tradeoff", "turning_points"),
    ("oracle", "run_verification"),
    ("oracle", "enumerate_optimal"),
    ("sampling", "sample_config"),
    ("parallel", "ordered_map"),
    ("cli", "main"),
)

#: span around each item function that ordered_map runs, on whichever thread runs it
WORKER_SPAN = "parallel.worker"
#: counter: ordered_map wall time times its worker count, summed over calls
CAPACITY_COUNTER = "parallel.ordered_map.capacity_s"
CELLS_COUNTER = "oracle.enumerate_optimal.cells"

PACKAGE = "edge3c"


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []    # [name, start, time covered by children]
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters: dict[str, float] = {}


class Tracer:
    """Per-thread span stacks, merged into totals on request."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, name: str) -> None:
        self._state().stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        state = self._state()
        name, start, children = state.stack.pop()
        duration = self.clock() - start
        if state.stack:
            state.stack[-1][2] += duration
        totals = state.spans.setdefault(name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += duration - children
        totals[2] += duration

    def count(self, name: str, amount: float) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return spanned

    def spans(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, total seconds), over all threads."""
        merged: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, self_s, total_s) in state.spans.items():
                m = merged.setdefault(name, [0, 0.0, 0.0])
                m[0] += calls
                m[1] += self_s
                m[2] += total_s
        return {name: tuple(v) for name, v in merged.items()}

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in state.counters.items():
                merged[name] = merged.get(name, 0.0) + value
        return merged


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _instrument(tracer: Tracer, module: str, fn_name: str, fn):
    """The traced stand-in for ``fn``, with the counters some layers need."""
    name = f"{module}.{fn_name}"
    if (module, fn_name) == ("oracle", "enumerate_optimal"):
        def enumerate_optimal(config, *args, **kwargs):
            tracer.count(CELLS_COUNTER, (config.task_count + 1) ** 2)
            return fn(config, *args, **kwargs)
        return tracer.wrap(name, functools.wraps(fn)(enumerate_optimal))
    if (module, fn_name) == ("parallel", "ordered_map"):
        worker_count = sys.modules[f"{PACKAGE}.parallel"].worker_count

        def ordered_map(item_fn, items, threads=None):
            workers = worker_count(threads)
            start = tracer.clock()
            try:
                return fn(tracer.wrap(WORKER_SPAN, item_fn), items, threads)
            finally:
                tracer.count(CAPACITY_COUNTER, (tracer.clock() - start) * workers)
        return tracer.wrap(name, functools.wraps(fn)(ordered_map))
    return tracer.wrap(name, fn)


@contextlib.contextmanager
def traced(tracer: Tracer, targets=TARGETS):
    """Wrap every binding of each target inside the imported package.

    Yields the list of (module object, attribute, original) it replaced, and
    puts every original back on exit.
    """
    modules = _package_modules()
    replaced = []
    try:
        for module, fn_name in targets:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], fn_name)
            wrapper = _instrument(tracer, module, fn_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
        yield replaced
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)
