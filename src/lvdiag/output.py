"""Deterministic file writers for run reports (CSV, JSON, SVG)."""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .diagnostics import DiagnosticsReport, SegmentCrossing
from .trajectory import Trajectory

TIMESERIES_HEADER = "t,x_ref,y_ref,x_approx,y_approx,C_ref,C_approx"
PHASE_HEADER = "x_ref,y_ref,x_approx,y_approx"

_SVG_WIDTH = 800
_SVG_HEIGHT = 600
_SVG_MARGIN = 0.05

# The one cell format of both CSV tables: 17 significant digits round-trip
# every IEEE-754 double.
_CELL_FORMAT = "%.17g"
# Rows formatted per pass; bounds the bytes a table holds at once.
_BLOCK_ROWS = 512

# A formatted cell is 48 bytes, six 8-byte words, with NUL in every unused slot:
# the sign, the "0.000" lead of cells below 1, the 17 digits each followed by a
# point slot, "e+XXX", the separator and two pad bytes.
_CELL_BYTES = 48
_SEPARATOR = 45
# The kernel takes cells with 1e-250 <= |x| <= 1e250; its tables cover every
# exponent guess X with |X| <= _X_RANGE.
_KERNEL_MIN, _KERNEL_MAX = 1e-250, 1e250
_X_RANGE = 260
# 2**27 + 1: Veltkamp's constant, which splits a double into two 26-bit halves.
_VELTKAMP = 134217729.0
# An SVG coordinate's first word: "-" in its sign slot, or the mark of a
# value that the per-value format writes.
_MINUS = np.frombuffer(b"\0\0\0-", np.uint32)[0]
_MARKER = np.frombuffer(b"\1\0\0\0", np.uint32)[0]


def _words(texts) -> np.ndarray:
    """One 8-byte word per text, NUL-padded, in memory order, read from one joined buffer."""
    return np.frombuffer(b"".join(text.ljust(8, b"\0") for text in texts), np.uint64)


@functools.cache
def _powers_of_ten():
    """10**(16 - X) for each exponent guess X (index X + _X_RANGE), as hi + lo.

    Built on first use, not at import, in Python floats converted once.  Each
    part is rounded once from the exact rational, through Python's exact
    integers.
    """
    hi, lo = [], []
    for x in range(-_X_RANGE, _X_RANGE + 1):
        if x <= 16:
            exact = 10 ** (16 - x)
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:
            den = 10 ** (x - 16)
            hi.append(1 / den)
            num, two = hi[-1].as_integer_ratio()
            lo.append((two - num * den) / (two * den))
    return np.array(hi), np.array(lo)


def _exponent_text(x: int) -> bytes:
    """"e+XXX" of exponent x, NUL in the hundreds slot of a two-digit exponent."""
    text = b"e%+03d" % x
    return text if len(text) == 5 else text[:2] + b"\0" + text[2:]


@functools.cache
def _slot_tables():
    """The words that fill a cell's slots, built on first use.

    Per exponent X (index X + _X_RANGE): word 0, holding the lead "0." to
    "0.000" of fixed cells with X < 0, and word 5, holding "e+XXX" of exponent
    cells.  Per 4-digit group: its ASCII digits in the even bytes of a word,
    and its count of trailing zeros.  ``keep[j][m]`` masks group j's word down
    to those of the m digits after the first that fall in it.
    """
    exponents = range(-_X_RANGE, _X_RANGE + 1)
    head = _words(b"\0" + b"0.000"[: 1 - x] if -4 <= x < 0 else b"" for x in exponents)
    tail = _words(b"" if -4 <= x <= 16 else _exponent_text(x) for x in exponents)
    groups = np.arange(10000)
    spread = np.zeros((10000, 8), np.uint8)
    for place in range(4):
        spread[:, 2 * place] = groups // 10 ** (3 - place) % 10 + ord("0")
    zeros = sum((groups % 10**place == 0).astype(np.int8) for place in range(1, 5))
    keep = _words(b"\xff\0" * min(max(m - 4 * j, 0), 4) for j in range(4) for m in range(17))
    return head, tail, spread.view(np.uint64).ravel(), zeros, keep.reshape(4, 17)


def _split(a):
    """Veltkamp's split: big + small == a exactly, each with at most 26 significant bits."""
    c = a * _VELTKAMP
    big = c - (c - a)
    return big, a - big


def _decimal(mag):
    """17 significant digits N and exponent X of each magnitude, and whether they are certain.

    X = floor(log10(mag)) is a guess.  The product mag * 10**(16 - X) is formed
    as an unevaluated sum p + lo from the tabulated hi + lo of the power:
    Dekker's two-product makes mag * hi exact and mag * lo is added, so the
    sum is within 1e-14 of the exact product.  N is the
    sum rounded to the nearest integer.  A cell is certain when the sum lies in
    [1e16, 1e17) before rounding, N < 1e17 after it, and the sum's fraction is
    more than 1e-6 from 1/2: then the exact product rounds to the same N and
    these are the digits and exponent of ``"%.17g" % mag``, whatever the guess
    was.  IEEE additions, products and floors decide them, not ``np.log10``.
    """
    pow_hi, pow_lo = _powers_of_ten()
    certain = (mag >= _KERNEL_MIN) & (mag <= _KERNEL_MAX)
    mag = np.where(certain, mag, 1.0)
    x = np.floor(np.log10(mag)).astype(np.intp)
    ten_hi = pow_hi[x + _X_RANGE]
    p = mag * ten_hi
    # Dekker's two-product: the exact rounding error of p, summed in his
    # order but in place, which bounds the block's temporaries.
    (mag_big, mag_small), (hi_big, hi_small) = _split(mag), _split(ten_hi)
    lo = mag_big * hi_big
    lo -= p
    lo += mag_big * hi_small
    lo += mag_small * hi_big
    lo += mag_small * hi_small
    del mag_big, mag_small, hi_big, hi_small
    lo += mag * pow_lo[x + _X_RANGE]
    lo_floor = np.floor(lo)
    frac = lo - lo_floor
    n = p.astype(np.int64) + lo_floor.astype(np.int64)
    certain &= (n >= 10**16) & (np.abs(frac - 0.5) > 1e-6)
    n += frac > 0.5
    certain &= n < 10**17
    return n, x, certain


def _cell_bytes(block: np.ndarray) -> np.ndarray:
    """``_CELL_FORMAT`` of every cell of a (rows, columns) block, as NUL-padded bytes.

    Returns a (rows, columns, _CELL_BYTES) uint8 array whose separator slot is
    NUL; a NaN cell is all NUL, so it comes out empty.  Cells ``_decimal``
    cannot certify, zeros and non-finite values among them, take the per-cell
    ``%`` format.
    """
    values = block.ravel()
    n, x, certain = _decimal(np.abs(values))
    head, tail, spread, zeros, keep = _slot_tables()
    # N's first digit, then four groups of four digits, split off in exact float arithmetic.
    upper = n // 10**8
    lower = (n - upper * 10**8).astype(np.float64)
    upper = upper.astype(np.float64)
    first = np.floor(upper / 1e8)
    upper -= first * 1e8
    groups = []
    for part in (upper, lower):
        quotient = np.floor(part / 1e4)
        groups += [quotient.astype(np.intp), (part - quotient * 1e4).astype(np.intp)]
    del n, upper, lower, quotient
    trailing = zeros[groups[3]]
    for j in (2, 1, 0):
        rows = np.flatnonzero(trailing == 4 * (3 - j))
        trailing[rows] += zeros[groups[j][rows]]
    fixed = (x >= -4) & (x <= 16)
    whole = fixed & (x >= 0)
    significant = 17 - trailing
    # Digits shown after the first: the significant ones, or all up to the units digit.
    shown = np.where(whole, np.maximum(significant, x + 1), significant) - 1
    words = np.empty((len(values), _CELL_BYTES // 8), np.uint64)
    words[:, 0] = head[x + _X_RANGE]
    words[:, 5] = tail[x + _X_RANGE]
    for j in range(4):
        words[:, 1 + j] = spread[groups[j]] & keep[j][shown]
    del groups, trailing, shown
    cells = words.view(np.uint8)
    cells[:, 0] = (values < 0) * np.uint8(ord("-"))
    cells[:, 6] = first.astype(np.uint8) + ord("0")
    point = np.flatnonzero(np.where(fixed, whole & (significant > x + 1), significant > 1))
    cells.reshape(-1)[point * _CELL_BYTES + 7 + 2 * np.where(whole, x, 0)[point]] = ord(".")
    nan = np.isnan(values)
    words[nan] = 0
    for i in np.flatnonzero(~(certain | nan)):
        text = (_CELL_FORMAT % values[i]).encode()
        words[i] = 0
        cells[i, : len(text)] = np.frombuffer(text, np.uint8)
    return cells.reshape(*block.shape, _CELL_BYTES)


def write_csv_tables(
    timeseries_path, phase_path, reference: Trajectory, approx: Trajectory, c_ref, c_approx
) -> None:
    """Write the time-series and phase tables, formatting one block of rows at a time.

    ``c_ref`` and ``c_approx`` fill the C columns, a NaN as an empty cell.
    Each block's cells are formatted once, into one byte matrix; the phase
    rows are its x_ref, y_ref, x_approx and y_approx cells.
    """
    phase = (reference.x, reference.y, approx.x, approx.y)
    columns = (reference.t, *phase, c_ref, c_approx)
    with open(timeseries_path, "wb") as series_out, open(phase_path, "wb") as phase_out:
        series_out.write(TIMESERIES_HEADER.encode() + b"\n")
        phase_out.write(PHASE_HEADER.encode() + b"\n")
        for start in range(0, len(reference), _BLOCK_ROWS):
            cells = _cell_bytes(np.column_stack([c[start : start + _BLOCK_ROWS] for c in columns]))
            cells[:, :, _SEPARATOR] = ord(",")
            cells[:, -1, _SEPARATOR] = ord("\n")
            series_out.write(cells.tobytes().translate(None, b"\0"))
            cells[:, len(phase), _SEPARATOR] = ord("\n")
            phase_out.write(cells[:, 1 : 1 + len(phase)].tobytes().translate(None, b"\0"))


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
    # Serialised before the file opens: a non-finite number, which JSON cannot
    # hold, raises ValueError and leaves no file behind.
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _axis_range(values):
    """(scale, lo, hi) of one axis: its ends times scale, 1 or 1/2 where the range overflows.

    A flat axis widens by 1, or by one ulp where 1 rounds away.  Halving
    every coordinate first keeps the range of a curve that spans more than
    the largest double finite; any other range keeps scale 1.
    """
    lo, hi = float(np.min(values)), float(np.max(values))
    for scale in (1.0, 0.5):
        a, b = scale * lo, scale * hi
        if b == a:
            pad = max(1.0, math.ulp(a))
            a, b = a - pad, b + pad
        if math.isfinite(b - a):
            break
    return scale, a, b


def _svg_transform(curves):
    x_scale, x_lo, x_hi = _axis_range(np.concatenate([c[0] for c in curves]))
    y_scale, y_lo, y_hi = _axis_range(np.concatenate([c[1] for c in curves]))
    inner_w = _SVG_WIDTH * (1.0 - 2.0 * _SVG_MARGIN)
    inner_h = _SVG_HEIGHT * (1.0 - 2.0 * _SVG_MARGIN)

    def to_pixels(x, y):
        px = _SVG_WIDTH * _SVG_MARGIN + (x * x_scale - x_lo) / (x_hi - x_lo) * inner_w
        py = (y * y_scale - y_lo) / (y_hi - y_lo) * inner_h
        py = _SVG_HEIGHT - (_SVG_HEIGHT * _SVG_MARGIN + py)
        return px, py

    return to_pixels


@functools.cache
def _point_tables():
    """The words that fill a coordinate's slots, built on first use.

    Per integer part q < 10**4: its ASCII digits, leading zeros NUL.  Per
    two decimals r < 100: ".", the two digits and a NUL separator slot.
    """
    numerals = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.stack(np.meshgrid(*[numerals] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    for place in range(3):
        digits[: 10 ** (3 - place), place] = 0
    decimals = np.zeros((100, 4), np.uint8)
    decimals[:, 0] = ord(".")
    pairs = np.meshgrid(numerals, numerals, indexing="ij")
    decimals[:, 1:3] = np.stack(pairs, axis=-1).reshape(-1, 2)
    return digits.view(np.uint32).ravel(), decimals.view(np.uint32).ravel()


def _points(values: np.ndarray) -> str:
    """``"%.2f"`` of each value, followed by "," at even and " " at odd positions.

    The last value has no separator, so interleaved (x, y) pixels give a
    polyline's points.  Each value fills a 12-byte slot, three words with NUL
    in every unused byte: the sign, four integer digits, then "." with two
    decimals and the separator.  A value is certain when |v| < 9999.99 and
    the fraction of p = 100*|v| is more than 1e-6 from 1/2: below 2**20 the
    computed p is within 2**-34 of the exact product, so both round to the
    same integer n, whose digits are those of ``"%.2f" % v``.  Every other
    value (NaN, infinities, exact ties such as 40.125 and magnitudes from
    9999.99 up) takes the per-value ``%`` format.
    """
    digits, decimals = _point_tables()
    # In place, which keeps a polyline's temporaries near its 48-KB slots.
    p = np.abs(values)
    certain = p < 9999.99
    p[~certain] = 0.0
    p *= 100.0
    n = np.floor(p)
    p -= n  # p's fraction
    certain &= np.abs(p - 0.5) > 1e-6
    n += p > 0.5
    del p
    q, r = np.divmod(n.astype(np.int32), 100)
    del n
    words = np.empty((len(values), 3), np.uint32)
    words[:, 0] = np.signbit(values) * _MINUS
    words[:, 1] = digits[q]
    words[:, 2] = decimals[r]
    del q, r
    fallback = np.flatnonzero(~certain)
    words[fallback] = (_MARKER, 0, 0)
    cells = words.view(np.uint8)
    cells[0::2, -1] = ord(",")
    cells[1::2, -1] = ord(" ")
    cells[-1, -1] = 0
    text = cells.tobytes().translate(None, b"\0").decode()
    if not fallback.size:
        return text
    pieces = text.split("\1")
    return pieces[0] + "".join(
        "%.2f" % v + piece for v, piece in zip(values[fallback].tolist(), pieces[1:])
    )


def _polyline(px: np.ndarray, py: np.ndarray, style) -> str:
    coords = _points(np.column_stack((px, py)).ravel())
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
