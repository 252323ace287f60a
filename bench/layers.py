"""Per-layer metrics derived from the spans of a traced run.

Counts marked "computed" are not read from lvdiag's internals: they are
derived after each op, outside the timed region, from the traced calls'
public arguments and results (for accepted steps, by calling the public
``integrate(..., t_grid=None)`` again on the span's horizon).
"""

from __future__ import annotations

import math
import os
import statistics

from tracer import SPAN_NAMES, self_times_ns

# name -> unit.  Counts and times are per traced op unless named a ratio or
# a per-unit cost.
PER_LAYER = {
    "cli.self_ms": "ms",
    "series.self_ms": "ms",
    "series.samples": "count",
    "series.us_per_sample": "us",
    "methods.self_ms": "ms",
    "methods.calls": "count",
    "integrate.self_ms": "ms",
    "integrate.calls": "count",
    "integrate.samples": "count",
    "integrate.steps": "count",
    "integrate.us_per_step": "us",
    "integrate.passes_per_op": "count",
    "integrate.period.self_ms": "ms",
    "integrate.period.calls": "count",
    "integrate.period.found_ratio": "ratio",
    "integrate.closure.self_ms": "ms",
    "diagnostics.self_ms": "ms",
    "diagnostics.selfx.self_ms": "ms",
    "diagnostics.selfx.pairs": "count",
    "diagnostics.selfx.ns_per_pair": "ns",
    "diagnostics.selfx.hit_ratio": "ratio",
    "output.self_ms": "ms",
    "output.bytes": "B",
    "output.us_per_row": "us",
    "trace.op_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# A polyline whose ends lie this close, relative to its bounding-box
# diagonal, is closed; self_intersection then skips the (first, last) pair.
_CLOSURE_REL_TOL = 1e-6


def scanned_pairs(x, y, crossing):
    """Segment pairs the lexicographic self-intersection scan examines (computed).

    Row i holds the pairs (i, j) for j >= i + 2 and is tested as a whole; the
    scan stops after the row that holds the first crossing.
    """
    segments = len(x) - 1
    rows = segments - 2 if crossing is None else crossing.i + 1
    pairs = rows * (segments - 2) - rows * (rows - 1) // 2
    diag = math.hypot(float(max(x) - min(x)), float(max(y) - min(y)))
    closed = math.hypot(float(x[-1] - x[0]), float(y[-1] - y[0])) <= _CLOSURE_REL_TOL * diag
    return max(pairs - (1 if closed and segments > 2 else 0), 0)


class Annotator:
    """Fills each span's ``info`` with the computed counts of its call."""

    def __init__(self):
        self._steps = {}

    def _accepted_steps(self, integrate, ivp, cfg, horizon):
        if horizon <= 0.0:
            return 0
        key = (ivp.params, ivp.initial, horizon, cfg)
        if key not in self._steps:
            window = type(ivp)(ivp.params, ivp.initial, horizon)
            self._steps[key] = len(integrate(window, cfg, None)) - 1
        return self._steps[key]

    def __call__(self, spans):
        for span in spans:
            fn = span.fn.__name__
            if span.name == "integrate.period":
                span.info["found"] = span.error is None
            if span.error is not None:
                continue
            if span.name == "integrate" and fn == "integrate":
                args = span.bound()
                grid = args["t_grid"]
                horizon = args["ivp"].t_end if grid is None else float(grid[-1])
                span.info["samples"] = len(span.result)
                span.info["steps"] = self._accepted_steps(span.fn, args["ivp"], args["cfg"], horizon)
            elif span.name == "series" and fn == "sample_series":
                span.info["samples"] = len(span.result)
            elif span.name == "series" and fn == "evaluate_series":
                span.info["samples"] = 1
            elif span.name == "diagnostics.selfx":
                traj = span.bound()["traj"]
                span.info["pairs"] = scanned_pairs(traj.x, traj.y, span.result)
                span.info["hit"] = span.result is not None
            elif span.name == "output":
                args = span.bound()
                if "path" in args:
                    span.info["bytes"] = os.path.getsize(args["path"])
                if "reference" in args:
                    span.info["rows"] = len(args["reference"])


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(spans, ops, traced_s, untraced_s):
    """Metric values from the annotated spans of ``ops`` traced ops.

    ``traced_s`` and ``untraced_s`` are the paired op times of the two runs.
    """
    own = self_times_ns(spans)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    totals = {}
    for span, ns in zip(spans, own):
        self_ns[span.name] += ns
        calls[span.name] += 1
        for key, value in span.info.items():
            totals[(span.name, key)] = totals.get((span.name, key), 0) + value

    def total(name, key):
        return totals.get((name, key), 0)

    root_ns = sum(s.end - s.start for s in spans if s.parent is None)
    m = {f"{name}.self_ms": self_ns[name] / 1e6 / ops for name in SPAN_NAMES}
    m.update(
        {
            "series.samples": total("series", "samples") / ops,
            "series.us_per_sample": _ratio(self_ns["series"] / 1e3, total("series", "samples")),
            "methods.calls": calls["methods"] / ops,
            "integrate.calls": calls["integrate"] / ops,
            "integrate.samples": total("integrate", "samples") / ops,
            "integrate.steps": total("integrate", "steps") / ops,
            "integrate.us_per_step": _ratio(self_ns["integrate"] / 1e3, total("integrate", "steps")),
            "integrate.passes_per_op": (calls["integrate"] + calls["integrate.period"]) / ops,
            "integrate.period.calls": calls["integrate.period"] / ops,
            "integrate.period.found_ratio": _ratio(total("integrate.period", "found"), calls["integrate.period"]),
            "diagnostics.selfx.pairs": total("diagnostics.selfx", "pairs") / ops,
            "diagnostics.selfx.ns_per_pair": _ratio(self_ns["diagnostics.selfx"], total("diagnostics.selfx", "pairs")),
            "diagnostics.selfx.hit_ratio": _ratio(total("diagnostics.selfx", "hit"), calls["diagnostics.selfx"]),
            "output.bytes": total("output", "bytes") / ops,
            "output.us_per_row": _ratio(self_ns["output"] / 1e3, total("output", "rows")),
            "trace.op_ms": root_ns / 1e6 / ops,
            "trace.overhead_ratio": statistics.median(t / u for t, u in zip(traced_s, untraced_s)),
        }
    )
    return {name: m[name] for name in PER_LAYER}
