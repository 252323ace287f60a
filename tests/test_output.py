"""File writers against the per-cell and per-point loops they replaced.

``write_csv_tables`` formats whole columns in blocks of rows and the SVG
writer transforms whole arrays; the loops below format one cell and one
point at a time.  Both must write the same bytes.  Runs are derandomized,
so every run checks the same examples.
"""

import itertools
import math
import os
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lvdiag import MethodKind, ModelParams, Trajectory
from lvdiag.diagnostics import DiagnosticsReport, SegmentCrossing, _invariant_column
from lvdiag.output import (
    _SEPARATOR,
    PHASE_HEADER,
    TIMESERIES_HEADER,
    _X_RANGE,
    _cell_bytes,
    _points,
    _powers_of_ten,
    _slot_tables,
    write_csv_tables,
    write_phase_svg,
    write_report_json,
)

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


def _loop_tables(timeseries_path, phase_path, reference, approx, c_ref, c_approx):
    columns = (reference.t, reference.x, reference.y, approx.x, approx.y, c_ref, c_approx)
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
    invariants = _invariant_column(p, reference), _invariant_column(p, approx)
    k = seed % n
    hit = SegmentCrossing(0, 2, (float(approx.x[k]), float(reference.y[k]))) if crossing else None
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got"), os.path.join(tmp, "want")
        write_csv_tables(got + "_timeseries.csv", got + "_phase.csv", reference, approx, *invariants)
        write_phase_svg(got + ".svg", reference, approx, hit)
        _loop_tables(want + "_timeseries.csv", want + "_phase.csv", reference, approx, *invariants)
        _loop_svg(want + ".svg", reference, approx, hit)
        for suffix in ("_timeseries.csv", "_phase.csv", ".svg"):
            assert _read(got + suffix) == _read(want + suffix), suffix


def _neighbours(values, count):
    """Each value with the ``count`` doubles on each side of it, in both signs."""
    values = np.asarray(values, dtype=float)
    out = [values]
    up, down = values, values
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    out = np.concatenate(out)
    return np.concatenate([out, -out])


def _assert_cells_match_the_per_cell_format(values):
    values = np.asarray(values, dtype=float)
    cells = _cell_bytes(values.reshape(-1, 1))
    cells[:, :, _SEPARATOR] = ord("\n")
    got = cells.tobytes().translate(None, b"\0").split(b"\n")[:-1]
    want = [b"" if math.isnan(v) else (CELL_FORMAT % v).encode() for v in values.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


def test_cells_next_to_every_power_of_ten():
    # The exponent guess from log10 is off by one on one side of a power of ten;
    # checking the 17-digit range after rounding printed 9.9999999999999998e-249
    # as 1e-248.  float() of "1e-324" is 0, so zero and the subnormals come in too.
    powers = [float(f"1e{k}") for k in range(-324, 309)]
    _assert_cells_match_the_per_cell_format(_neighbours(powers, 6))


def test_cells_on_exact_17_digit_ties_round_half_even():
    rng = np.random.default_rng(11)
    # 15 integer digits and three binary places, or 16 and two: 18 significant
    # digits ending in 5, a tie at 17.
    eighths = rng.integers(10**14, 2**50, 2000) + rng.choice([0.125, 0.375, 0.625, 0.875], 2000)
    quarters = rng.integers(10**15, 2**51, 2000) + rng.choice([0.25, 0.75], 2000)
    _assert_cells_match_the_per_cell_format(np.concatenate([eighths, quarters]))
    cells = _cell_bytes(np.array([[123456789012345.125]]))
    assert cells.tobytes().translate(None, b"\0") == b"123456789012345.12"


def test_cells_of_random_bit_patterns():
    # Doubles of every exponent, both signs: NaN (empty), subnormals and
    # magnitudes on both sides of the kernel's range.
    rng = np.random.default_rng(12)
    values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    assert np.isnan(values).any()
    _assert_cells_match_the_per_cell_format(values)


def test_cells_at_format_and_kernel_edges():
    # Fixed notation from 1e-4 to below 1e17, exponent notation outside; the
    # kernel's own range ends at 1e-250 and 1e250, the per-cell format takes the rest.
    edges = [1e-5, 1e-4, 1e16, 1e17, 0.0, 5e-324, 1e-250, 1e250, 1.0, 0.1, 2.0**53]
    specials = [np.inf, -np.inf, np.nan, -np.nan, -0.0]
    _assert_cells_match_the_per_cell_format(np.concatenate([_neighbours(edges, 3), specials]))


def _assert_points_match_the_per_value_format(values):
    values = np.asarray(values, dtype=float)
    text = _points(values)
    want = ["%.2f" % v for v in values.tolist()]
    got = re.split("[, ]", text)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]
    assert text == "".join(w + sep for w, sep in zip(want, itertools.cycle(", ")))[:-1]


def test_points_on_every_exact_binary_tie():
    # m/8 below 1e4: 100*v is exact, and every odd m/8 is a tie at two
    # decimals, which rounds half to even.
    _assert_points_match_the_per_value_format(_neighbours(np.arange(80_000) / 8, 0))


def test_points_next_to_half_cents():
    # The doubles nearest k/100 + 0.005 and their neighbours, up to 1e4.
    _assert_points_match_the_per_value_format(_neighbours(np.arange(1, 2 * 10**6, 58) / 200, 1))


def test_points_of_uniform_values():
    rng = np.random.default_rng(13)
    _assert_points_match_the_per_value_format(rng.uniform(-1e4, 1e4, 200_000))


def test_points_at_format_and_kernel_edges():
    # -0.0 and tiny negatives print "-0.00"; the kernel takes |v| below
    # 9999.99 and the per-value format the rest.
    edges = [0.0, 0.004, 0.005, 0.995, 9999.99, 9999.994, 9999.995, 1e4, 1e5, 1e300, 5e-324]
    specials = [np.nan, np.inf, -np.inf, np.finfo(float).max]
    _assert_points_match_the_per_value_format(np.concatenate([_neighbours(edges, 2), specials]))


def test_phase_svg_pixels_on_exact_ties_match_the_loop(tmp_path):
    # Coordinates k/128 over [0, 1] map exactly onto the pixels 40 + 5.625k and
    # 570 - 4.21875k, so many of them are exact ties at two decimals.
    k = np.arange(129.0)
    reference = Trajectory(k, k / 128, (128 - k) / 128)
    approx = Trajectory(k, (128 - k) / 128, k * 37 % 129 / 128)
    hit = SegmentCrossing(0, 2, (3 / 128, 0.5))
    write_phase_svg(tmp_path / "got.svg", reference, approx, hit)
    _loop_svg(tmp_path / "want.svg", reference, approx, hit)
    got = _read(tmp_path / "got.svg")
    assert got == _read(tmp_path / "want.svg")
    # 45.625 rounds down and 56.875 up.
    assert b" 45.62," in got and b" 56.88," in got


def test_csv_tables_hold_one_block_of_strings(tmp_path):
    n = 100001
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 10.0, n)
    reference = Trajectory(t, rng.uniform(0.1, 5.0, n), rng.uniform(0.1, 5.0, n))
    approx = Trajectory(t, rng.normal(size=n), rng.normal(size=n))
    p = ModelParams(1.0, 1.0, 1.0, 1.0)
    invariants = _invariant_column(p, reference), _invariant_column(p, approx)
    tracemalloc.start()
    try:
        write_csv_tables(tmp_path / "t.csv", tmp_path / "p.csv", reference, approx, *invariants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "p.csv").read_text().splitlines()) == n + 1
    # A whole table of strings at once peaked at 42.5 MiB.
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


def test_phase_svg_wider_than_the_largest_double_draws_finite_points(tmp_path):
    """x spans 2e308, past the largest double: each coordinate is halved before
    the axis range is taken, so every pixel is finite and in the order of its value."""
    big = np.finfo(float).max
    for x in ([-1e308, 0.0, 1e308, 5.0], [-big, big, 0.0, -1.0], [big, big, big, big], [-big] * 4):
        curve = Trajectory(np.arange(4.0), np.array(x), np.array([1.0, 2.0, 3.0, 4.0]))
        path = tmp_path / "wide.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            write_phase_svg(path, curve, curve, SegmentCrossing(0, 2, (x[0], 1.0)))
        text = path.read_text()
        assert "nan" not in text and "inf" not in text
        points = re.search(r'points="([^"]*)"', text).group(1).split()
        px, py = np.array([[float(v) for v in point.split(",")] for point in points]).T
        assert np.all((40.0 <= px) & (px <= 760.0)) and np.all((30.0 <= py) & (py <= 570.0))
        assert np.all(np.diff(px[np.argsort(x)]) >= 0.0)
        assert np.all(np.diff(py) < 0.0)
        assert f'cx="{px[0]:.2f}"' in text


def _word(text):
    return np.frombuffer(text.ljust(8, b"\0"), np.uint64)[0]


def _loop_powers_of_ten():
    """``_powers_of_ten`` as it was, filled one numpy entry at a time."""
    hi, lo = np.empty(2 * _X_RANGE + 1), np.empty(2 * _X_RANGE + 1)
    for i, x in enumerate(range(-_X_RANGE, _X_RANGE + 1)):
        if x <= 16:
            exact = 10 ** (16 - x)
            hi[i] = float(exact)
            lo[i] = float(exact - int(hi[i]))
        else:
            den = 10 ** (x - 16)
            hi[i] = 1 / den
            num, two = hi[i].as_integer_ratio()
            lo[i] = (two - num * den) / (two * den)
    return hi, lo


def _loop_slot_tables():
    """``_slot_tables`` as it was, one word at a time."""
    head = np.zeros(2 * _X_RANGE + 1, np.uint64)
    tail = np.zeros(2 * _X_RANGE + 1, np.uint64)
    for i, x in enumerate(range(-_X_RANGE, _X_RANGE + 1)):
        if -4 <= x < 0:
            head[i] = _word(b"\0" + b"0.000"[: 1 - x])
        elif not 0 <= x <= 16:
            text = b"e%+03d" % x
            tail[i] = _word(text if len(text) == 5 else text[:2] + b"\0" + text[2:])
    groups = np.arange(10000)
    spread = np.zeros((10000, 8), np.uint8)
    for place in range(4):
        spread[:, 2 * place] = groups // 10 ** (3 - place) % 10 + ord("0")
    zeros = sum((groups % 10**place == 0).astype(np.int8) for place in range(1, 5))
    keep = np.array(
        [[_word(b"\xff\0" * min(max(m - 4 * j, 0), 4)) for m in range(17)] for j in range(4)]
    )
    return head, tail, spread.view(np.uint64).ravel(), zeros, keep


@pytest.mark.parametrize(
    "built, loop", [(_powers_of_ten, _loop_powers_of_ten), (_slot_tables, _loop_slot_tables)]
)
def test_kernel_tables_match_their_loops_bitwise(built, loop):
    for got, want in zip(built(), loop(), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("drift", [math.inf, math.nan])
def test_report_json_refuses_non_finite_numbers_and_writes_nothing(tmp_path, drift):
    report = DiagnosticsReport(MethodKind.HPM, 92, None, drift, 1e-9, None, False, False, None, 0)
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_report_json(path, "custom", 70.9, report)
    assert not path.exists()
