"""Deterministic file writers for run reports (CSV, JSON, SVG)."""

from __future__ import annotations

import json

import numpy as np

from .diagnostics import DiagnosticsReport, SegmentCrossing
from .model import ModelParams, _first_integral
from .trajectory import Trajectory

TIMESERIES_HEADER = "t,x_ref,y_ref,x_approx,y_approx,C_ref,C_approx"
PHASE_HEADER = "x_ref,y_ref,x_approx,y_approx"

_SVG_WIDTH = 800
_SVG_HEIGHT = 600
_SVG_MARGIN = 0.05

# The one cell format of both CSV tables.
_CELL_FORMAT = "%.17g"
# Rows formatted per pass; bounds the strings a table holds at once.
_BLOCK_ROWS = 512


def format_float(value: float) -> str:
    """Fixed 17-significant-digit formatting; round-trips IEEE-754 doubles."""
    return _CELL_FORMAT % float(value)


def _invariant_column(p: ModelParams, traj: Trajectory) -> np.ndarray:
    """C per sample, NaN where a population is non-positive (outside its domain)."""
    positive = (traj.x > 0.0) & (traj.y > 0.0)
    values = np.full(len(traj), np.nan)
    values[positive] = _first_integral(p, traj.x[positive], traj.y[positive])
    return values


def _format_column(column: np.ndarray) -> list[str]:
    """``format_float`` of every cell in one formatting pass; NaN cells come out empty."""
    text = "\n".join([_CELL_FORMAT] * len(column)) % tuple(column.tolist())
    return text.replace("nan", "").split("\n")


def write_csv_tables(
    timeseries_path, phase_path, reference: Trajectory, approx: Trajectory, p: ModelParams
) -> None:
    """Write the time-series and phase tables, formatting one block of rows at a time.

    Each block's columns are formatted once; the phase rows reuse the
    time-series cells of x_ref, y_ref, x_approx and y_approx.
    """
    phase = (reference.x, reference.y, approx.x, approx.y)
    columns = (reference.t, *phase, _invariant_column(p, reference), _invariant_column(p, approx))
    with (
        open(timeseries_path, "w", newline="\n") as series_out,
        open(phase_path, "w", newline="\n") as phase_out,
    ):
        series_out.write(TIMESERIES_HEADER + "\n")
        phase_out.write(PHASE_HEADER + "\n")
        for start in range(0, len(reference), _BLOCK_ROWS):
            cells = [_format_column(column[start : start + _BLOCK_ROWS]) for column in columns]
            series_out.write("\n".join(map(",".join, zip(*cells))) + "\n")
            phase_out.write("\n".join(map(",".join, zip(*cells[1 : 1 + len(phase)]))) + "\n")


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


def _polyline(px: np.ndarray, py: np.ndarray, style) -> str:
    coords = " ".join(["%.2f,%.2f"] * len(px)) % tuple(np.column_stack((px, py)).ravel().tolist())
    return f'<polyline fill="none" {style} points="{coords}"/>'


def write_phase_svg(
    path, reference: Trajectory, approx: Trajectory, crossing: SegmentCrossing | None
) -> None:
    """Self-contained phase-plane picture: reference solid, approximant dashed."""
    to_pixels = _svg_transform(((reference.x, reference.y), (approx.x, approx.y)))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white" '
        'stroke="#cccccc"/>',
        _polyline(*to_pixels(reference.x, reference.y), 'stroke="#1f5fa8" stroke-width="1.5"'),
        _polyline(
            *to_pixels(approx.x, approx.y),
            'stroke="#c0392b" stroke-width="1.2" stroke-dasharray="6 4"',
        ),
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
