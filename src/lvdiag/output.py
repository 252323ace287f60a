"""Deterministic file writers for run reports (CSV, JSON, SVG)."""

from __future__ import annotations

import json

import numpy as np

from .diagnostics import DiagnosticsReport, SegmentCrossing, _invariant_column
from .model import ModelParams
from .trajectory import Trajectory

TIMESERIES_HEADER = "t,x_ref,y_ref,x_approx,y_approx,C_ref,C_approx"
PHASE_HEADER = "x_ref,y_ref,x_approx,y_approx"

_SVG_WIDTH = 800
_SVG_HEIGHT = 600
_SVG_MARGIN = 0.05

# The one cell format of both CSV tables: 17 significant digits round-trip
# every IEEE-754 double.
_CELL_FORMAT = "%.17g"
# Rows formatted per pass; bounds the strings a table holds at once.
_BLOCK_ROWS = 512


def _format_column(column: np.ndarray) -> list[str]:
    """``_CELL_FORMAT`` of every cell in one formatting pass; NaN cells come out empty."""
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


def write_report_json(path, label: str, t_end: float, report: DiagnosticsReport) -> None:
    """Write the diagnostics report as indented JSON."""
    crossing = report.self_intersection
    payload = {
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
    with open(path, "w", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _axis_range(values):
    """(lo, hi) of one axis; a flat one widens by 1, or by one ulp where 1 rounds away."""
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi == lo:
        pad = max(1.0, float(np.spacing(abs(lo))))
        return lo - pad, hi + pad
    return lo, hi


def _svg_transform(curves):
    x_lo, x_hi = _axis_range(np.concatenate([c[0] for c in curves]))
    y_lo, y_hi = _axis_range(np.concatenate([c[1] for c in curves]))
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
