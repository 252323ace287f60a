"""File writers against the per-cell and per-point loops they replaced.

``write_csv_tables`` formats whole columns in blocks of rows and the SVG
writer transforms whole arrays; the loops below format one cell and one
point at a time.  Both must write the same bytes.  Runs are derandomized,
so every run checks the same examples.
"""

import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lvdiag import ModelParams, Trajectory
from lvdiag.diagnostics import SegmentCrossing, _invariant_column
from lvdiag.output import PHASE_HEADER, TIMESERIES_HEADER, write_csv_tables, write_phase_svg

# The cell format the loop oracle applies one cell at a time: 17 significant
# digits round-trip every double.
CELL_FORMAT = "%.17g"
# Samples the block formatter must reproduce: signed zeros, subnormals,
# extremes, integers and non-positive populations (empty C cells).
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e300, -1e300, 1.0, 3.0, -7.0, 123456789.0)
# Constant coordinates the loop oracle widens to value -/+ 1, as the writer does
# below 2**53; larger magnitudes are checked in test_flat_axis_beyond_2_53.
FLAT_VALUES = (0.0, -0.0, 5e-324, 1.0, -7.0, 123456789.0)


def _loop_csv(path, header, columns):
    lines = [header]
    for row in zip(*(column.tolist() for column in columns)):
        lines.append(",".join("" if math.isnan(v) else CELL_FORMAT % v for v in row))
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _loop_tables(timeseries_path, phase_path, reference, approx, p):
    columns = (
        reference.t,
        reference.x,
        reference.y,
        approx.x,
        approx.y,
        _invariant_column(p, reference),
        _invariant_column(p, approx),
    )
    _loop_csv(timeseries_path, TIMESERIES_HEADER, columns)
    _loop_csv(phase_path, PHASE_HEADER, (reference.x, reference.y, approx.x, approx.y))


def _loop_svg(path, reference, approx, crossing):
    xs = np.concatenate([reference.x, approx.x])
    ys = np.concatenate([reference.y, approx.y])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    inner_w = 800 * (1.0 - 2.0 * 0.05)
    inner_h = 600 * (1.0 - 2.0 * 0.05)

    def to_pixels(x, y):
        px = 800 * 0.05 + (x - x_lo) / (x_hi - x_lo) * inner_w
        py = 600 - (600 * 0.05 + (y - y_lo) / (y_hi - y_lo) * inner_h)
        return px, py

    def polyline(traj, style):
        coords = " ".join("%.2f,%.2f" % to_pixels(x, y) for x, y in zip(traj.x, traj.y))
        return f'<polyline fill="none" {style} points="{coords}"/>'

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="600" viewBox="0 0 800 600">',
        '<rect x="0" y="0" width="800" height="600" fill="white" stroke="#cccccc"/>',
        polyline(reference, 'stroke="#1f5fa8" stroke-width="1.5"'),
        polyline(approx, 'stroke="#c0392b" stroke-width="1.2" stroke-dasharray="6 4"'),
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


def _column(rng, n, special_share, constant):
    if constant is not None:
        return np.full(n, constant)
    values = rng.normal(size=n) * 10.0 ** rng.uniform(-5.0, 5.0, size=n)
    integers = rng.random(n) < 0.2
    values[integers] = np.round(values[integers])
    picked = rng.random(n) < special_share
    values[picked] = rng.choice(SPECIAL_VALUES, size=int(picked.sum()))
    return values


def _trajectories(n, seed, special_share, flat):
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        t = np.linspace(0.0, float(rng.uniform(0.1, 100.0)), n)
    else:
        t = np.arange(n, dtype=float)
    constant_x = float(rng.choice(FLAT_VALUES)) if flat in ("x", "both") else None
    constant_y = float(rng.choice(FLAT_VALUES)) if flat in ("y", "both") else None
    reference = Trajectory(
        t, _column(rng, n, special_share, constant_x), np.abs(_column(rng, n, 0.0, constant_y))
    )
    approx = Trajectory(
        t, _column(rng, n, special_share, constant_x), _column(rng, n, special_share, constant_y)
    )
    return reference, approx


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 1500),
    seed=st.integers(0, 2**32 - 1),
    special_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    flat=st.sampled_from(["none", "x", "y", "both"]),
    crossing=st.booleans(),
    rates=st.tuples(*(st.floats(0.5, 2.0) for _ in range(4))),
)
@example(n=511, seed=1, special_share=0.05, flat="none", crossing=True, rates=(1.0, 1.0, 1.0, 1.0))
@example(n=512, seed=2, special_share=0.5, flat="x", crossing=False, rates=(0.5, 2.0, 1.0, 1.5))
@example(n=513, seed=3, special_share=1.0, flat="y", crossing=True, rates=(2.0, 0.5, 1.5, 1.0))
@example(n=1024, seed=4, special_share=0.0, flat="both", crossing=True, rates=(1.0, 1.0, 1.0, 1.0))
def test_writers_match_the_per_cell_loops(n, seed, special_share, flat, crossing, rates):
    reference, approx = _trajectories(n, seed, special_share, flat)
    p = ModelParams(*rates)
    k = seed % n
    hit = SegmentCrossing(0, 2, (float(approx.x[k]), float(reference.y[k]))) if crossing else None
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got"), os.path.join(tmp, "want")
        write_csv_tables(got + "_timeseries.csv", got + "_phase.csv", reference, approx, p)
        write_phase_svg(got + ".svg", reference, approx, hit)
        _loop_tables(want + "_timeseries.csv", want + "_phase.csv", reference, approx, p)
        _loop_svg(want + ".svg", reference, approx, hit)
        for suffix in ("_timeseries.csv", "_phase.csv", ".svg"):
            assert _read(got + suffix) == _read(want + suffix), suffix


def test_csv_tables_hold_one_block_of_strings(tmp_path):
    n = 100001
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 10.0, n)
    reference = Trajectory(t, rng.uniform(0.1, 5.0, n), rng.uniform(0.1, 5.0, n))
    approx = Trajectory(t, rng.normal(size=n), rng.normal(size=n))
    tracemalloc.start()
    try:
        write_csv_tables(
            tmp_path / "t.csv", tmp_path / "p.csv", reference, approx, ModelParams(1.0, 1.0, 1.0, 1.0)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "p.csv").read_text().splitlines()) == n + 1
    # About 4 MiB here, mostly the two invariant columns; a whole table of
    # strings at once peaked at 42.5 MiB.
    assert peak < 8 * 2**20


def test_flat_axis_beyond_2_53_draws_finite_points(tmp_path):
    # Widening such an axis by 1 rounds away; it widens by one ulp instead.
    t = np.arange(4.0)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    for flat in (2.0**53, -(2.0**53), 1e300):
        curve = Trajectory(t, x, np.full(4, flat))
        path = tmp_path / "flat.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            write_phase_svg(path, curve, curve, None)
        text = path.read_text()
        assert "nan" not in text and "inf" not in text
        # The flat coordinate lands mid-height.
        assert 'points="40.00,300.00 ' in text
