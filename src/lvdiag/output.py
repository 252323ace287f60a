"""Deterministic file writers for run reports (CSV, JSON, SVG)."""

from __future__ import annotations

import json
import math

import numpy as np

from .diagnostics import DiagnosticsReport, SegmentCrossing
from .model import ModelParams, _first_integral
from .trajectory import Trajectory

TIMESERIES_HEADER = "t,x_ref,y_ref,x_approx,y_approx,C_ref,C_approx"
PHASE_HEADER = "x_ref,y_ref,x_approx,y_approx"

_SVG_WIDTH = 800
_SVG_HEIGHT = 600
_SVG_MARGIN = 0.05


def format_float(value: float) -> str:
    """Fixed 17-significant-digit formatting; round-trips IEEE-754 doubles."""
    return "%.17g" % float(value)


def _invariant_column(p: ModelParams, traj: Trajectory) -> np.ndarray:
    """C per sample, NaN where a population is non-positive (outside its domain)."""
    positive = (traj.x > 0.0) & (traj.y > 0.0)
    values = np.full(len(traj), np.nan)
    values[positive] = _first_integral(p, traj.x[positive], traj.y[positive])
    return values


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length float columns as CSV rows; NaN cells are left empty."""
    lines = [header]
    for row in zip(*(column.tolist() for column in columns)):
        lines.append(",".join("" if math.isnan(v) else format_float(v) for v in row))
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_timeseries_csv(path, reference: Trajectory, approx: Trajectory, p: ModelParams) -> None:
    columns = (
        reference.t,
        reference.x,
        reference.y,
        approx.x,
        approx.y,
        _invariant_column(p, reference),
        _invariant_column(p, approx),
    )
    _write_csv(path, TIMESERIES_HEADER, columns)


def write_phase_csv(path, reference: Trajectory, approx: Trajectory) -> None:
    _write_csv(path, PHASE_HEADER, (reference.x, reference.y, approx.x, approx.y))


def report_payload(label: str, t_end: float, report: DiagnosticsReport) -> dict:
    """JSON-ready view of a diagnostics report."""
    crossing = report.self_intersection
    return {
        "preset": label,
        "method": report.method.value,
        "order": report.order,
        "t_end": float(t_end),
        "divergence_time": report.divergence_time,
        "max_invariant_drift_ref": report.max_invariant_drift_ref,
        "max_invariant_drift_approx": report.max_invariant_drift,
        "self_intersection": None
        if crossing is None
        else {"i": crossing.i, "j": crossing.j, "x": crossing.point[0], "y": crossing.point[1]},
        "closed_orbit_ref": report.closed_orbit_ref,
        "closed_orbit_approx": report.closed_orbit,
        "period_estimate": report.period_estimate,
        "excluded_samples": report.excluded_samples,
    }


def write_report_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _svg_transform(curves):
    xs = np.concatenate([c[0] for c in curves])
    ys = np.concatenate([c[1] for c in curves])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    inner_w = _SVG_WIDTH * (1.0 - 2.0 * _SVG_MARGIN)
    inner_h = _SVG_HEIGHT * (1.0 - 2.0 * _SVG_MARGIN)

    def to_pixels(x, y):
        px = _SVG_WIDTH * _SVG_MARGIN + (x - x_lo) / (x_hi - x_lo) * inner_w
        py = _SVG_HEIGHT - (_SVG_HEIGHT * _SVG_MARGIN + (y - y_lo) / (y_hi - y_lo) * inner_h)
        return px, py

    return to_pixels


def _polyline(points, style) -> str:
    coords = " ".join("%.2f,%.2f" % pq for pq in points)
    return f'<polyline fill="none" {style} points="{coords}"/>'


def write_phase_svg(
    path, reference: Trajectory, approx: Trajectory, crossing: SegmentCrossing | None
) -> None:
    """Self-contained phase-plane picture: reference solid, approximant dashed."""
    to_pixels = _svg_transform(((reference.x, reference.y), (approx.x, approx.y)))
    ref_points = [to_pixels(x, y) for x, y in zip(reference.x, reference.y)]
    approx_points = [to_pixels(x, y) for x, y in zip(approx.x, approx.y)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white" '
        'stroke="#cccccc"/>',
        _polyline(ref_points, 'stroke="#1f5fa8" stroke-width="1.5"'),
        _polyline(approx_points, 'stroke="#c0392b" stroke-width="1.2" stroke-dasharray="6 4"'),
    ]
    if crossing is not None:
        cx, cy = to_pixels(*crossing.point)
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5" fill="none" stroke="#000000" '
            'stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")
