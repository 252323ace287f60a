"""In-memory span tracing of lvdiag's layers, installed from outside the package.

Every public function of a traced layer is replaced, at each module global
through which another layer (or the package namespace) looks it up, by a
wrapper that records one span: name, start, end, parent span and op id.
Calls that stay inside one layer are not wrapped, so a span always marks a
layer boundary.  Nothing under ``src/`` is modified; ``uninstall`` puts the
original functions back.

Spans keep a reference to their call's arguments and result only until
``finish_op`` turns them into the computed counts the metrics need; that
happens outside the timed region.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "series", "methods", "integrate", "diagnostics", "output")

# Sub-layer spans: functions whose cost the metrics report on their own.
_SUBSPANS = {
    "lvdiag.integrate.estimate_period": "integrate.period",
    "lvdiag.integrate.closed_orbit_check": "integrate.closure",
    "lvdiag.diagnostics.self_intersection": "diagnostics.selfx",
}

SPAN_NAMES = LAYERS + tuple(_SUBSPANS.values())


def _layer_of(module_name):
    prefix, _, tail = module_name.partition(".")
    return tail if prefix == "lvdiag" and tail in LAYERS else None


def span_name(fn):
    """Span name of a traced public function, or None when it is not traced."""
    layer = _layer_of(getattr(fn, "__module__", "") or "")
    if layer is None or fn.__name__.startswith("_"):
        return None
    return _SUBSPANS.get(f"{fn.__module__}.{fn.__name__}", layer)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "fn", "args", "kwargs", "result", "error", "info")

    def __init__(self, name, parent, op, fn, args, kwargs):
        self.name = name
        self.start = self.end = 0
        self.parent = parent
        self.op = op
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.result = None
        self.error = None
        self.info = {}

    def bound(self):
        """The call's arguments by parameter name, defaults applied."""
        bound = inspect.signature(self.fn).bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments

    def as_record(self):
        return {
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "op": self.op,
            "error": self.error,
            **self.info,
        }


class Tracer:
    """Records spans for the ops run between ``begin_op`` and ``finish_op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def install(self):
        """Wrap every cross-layer lookup of a traced function."""
        if self._patches:
            return
        wrappers = {}
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "lvdiag" or mod_name.startswith("lvdiag.")):
                continue
            caller = _layer_of(mod_name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                name = span_name(value)
                if name is None or name == caller:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, name)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def entry(self, fn):
        """``fn`` wrapped as the root span of an op (the benchmark is its caller)."""
        return self._wrap(fn, span_name(fn))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self._op, fn, args, kwargs)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def begin_op(self, op_id):
        self._op = op_id
        return len(self.spans)

    def finish_op(self, first, annotate):
        """Hand the op's spans to ``annotate`` and drop their call references."""
        op_spans = self.spans[first:]
        annotate(op_spans)
        for span in op_spans:
            span.fn = span.args = span.kwargs = span.result = None


def self_times_ns(spans):
    """Self time of each span: its duration minus its direct children's durations.

    The calls run on one thread, so a span's children never overlap.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
