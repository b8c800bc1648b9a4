"""Regional weighted run-length features.

A 64x64 contour image is covered by 49 windows of size 16x16 placed at
stride 8 (each window overlaps its neighbor by 8 pixels). Every window is
split into four concentric square bands: the central 4x4, then the 8x8,
12x12 and 16x16 annuli around it. For each of four directions (horizontal,
vertical and the two diagonals) every contour pixel contributes the length
of the maximal foreground run through it, clipped at the window border;
band sums are combined with weights 8/4/2/1 from the center outward.

49 windows x 4 directions gives a 196-dimensional integer feature vector.
It is computed from one table, built at import from `Direction.step`, of
the 94 scan lines of a window (16 rows, 16 columns, 31 + 31 diagonals)
padded with a background pixel: one run-length recurrence covers them all,
with int8 bits and runs (<= 16), int16 weighted runs (<= 128), int64 sums.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    FeatureFileError,
    LengthMismatchError,
    NotForegroundError,
    WrongDimensionsError,
)
from .raster import NORMALIZED_SIZE

WINDOW_SIZE = 16
WINDOW_STRIDE = 8
GRID_SIDE = 7
NUM_WINDOWS = GRID_SIDE * GRID_SIDE
FEATURE_DIM = NUM_WINDOWS * 4

FEATURE_FILE_VERSION = "#rwrl-v1"


class Direction(enum.Enum):
    """Scan directions as (row, col) unit steps, in feature order."""

    HORIZONTAL = (0, 1)
    VERTICAL = (1, 0)
    DIAG_PLUS45 = (-1, 1)
    DIAG_MINUS45 = (1, 1)

    @property
    def step(self) -> tuple[int, int]:
        return self.value


DIRECTIONS = tuple(Direction)


@dataclass(frozen=True)
class Window:
    """Top-left corner of one 16x16 mask on the 64x64 image."""

    row: int
    col: int


def window_grid() -> list[Window]:
    """The 49 window origins (8r, 8c), r,c in 0..6, row-major."""
    return [Window(WINDOW_STRIDE * r, WINDOW_STRIDE * c)
            for r in range(GRID_SIDE) for c in range(GRID_SIDE)]


def region_of(local_row: int, local_col: int) -> int:
    """Concentric band (1..4) of a window-local pixel, 1 being the center 4x4."""
    if not (0 <= local_row < WINDOW_SIZE and 0 <= local_col < WINDOW_SIZE):
        raise ValueError("coordinates must lie inside the 16x16 window")
    if 6 <= local_row <= 9 and 6 <= local_col <= 9:
        return 1
    if 4 <= local_row <= 11 and 4 <= local_col <= 11:
        return 2
    if 2 <= local_row <= 13 and 2 <= local_col <= 13:
        return 3
    return 4


def region_weight(region: int) -> int:
    """Band weight 2**(4-i): 8 for the center down to 1 for the outer ring."""
    if region not in (1, 2, 3, 4):
        raise ValueError("region must be 1..4")
    return 2 ** (4 - region)


def _weight_map() -> np.ndarray:
    w = np.empty((WINDOW_SIZE, WINDOW_SIZE), dtype=np.int32)
    for r in range(WINDOW_SIZE):
        for c in range(WINDOW_SIZE):
            w[r, c] = region_weight(region_of(r, c))
    return w


WEIGHT_MAP = _weight_map()


def run_length_at(window, pixel: tuple[int, int], direction: Direction) -> int:
    """Length of the maximal foreground run through a pixel along a direction.

    The run is clipped at the array border; the pixel itself must be
    foreground.
    """
    bits = np.asarray(window)
    r, c = pixel
    if not bits[r, c]:
        raise NotForegroundError(f"pixel {pixel} is background")
    h, w = bits.shape
    dr, dc = direction.step
    length = 1
    for sign in (1, -1):
        rr, cc = r + sign * dr, c + sign * dc
        while 0 <= rr < h and 0 <= cc < w and bits[rr, cc]:
            length += 1
            rr += sign * dr
            cc += sign * dc
    return length


def _scan_lines() -> tuple[np.ndarray, np.ndarray]:
    """The scan-line table and the first line of each direction in it.

    Pixels with equal dc*r - dr*c form one line of step (dr, dc); row-major
    order walks it from one end or the other, which leaves runs unchanged.
    """
    pad = WINDOW_SIZE * WINDOW_SIZE
    table, starts = [], []
    for dr, dc in (direction.step for direction in DIRECTIONS):
        lines: dict[int, list[int]] = {}
        for pixel, (r, c) in enumerate(np.ndindex(WINDOW_SIZE, WINDOW_SIZE)):
            lines.setdefault(dc * r - dr * c, []).append(pixel)
        starts.append(len(table))
        table += [line + [pad] * (WINDOW_SIZE - len(line))
                  for line in lines.values()]
    return np.array(table), np.array(starts)


_LINES, _DIRECTION_STARTS = _scan_lines()
_LINE_WEIGHTS = np.append(WEIGHT_MAP.ravel(), 0).astype(np.int16)[_LINES.T]


def _features(windows: np.ndarray) -> np.ndarray:
    """Weighted run-length sums, (n, 4), of an (n, 16, 16) window stack."""
    n = len(windows)
    flat = np.zeros((WINDOW_SIZE * WINDOW_SIZE + 1, n), dtype=np.int8)
    flat[:-1] = (windows != 0).reshape(n, -1).T
    bits = flat[_LINES.T]                      # (16 steps, 94 lines, n)
    runs = -bits
    for steps in (range(WINDOW_SIZE), range(WINDOW_SIZE - 1, -1, -1)):
        acc = np.zeros(bits.shape[1:], dtype=np.int8)
        for j in steps:
            acc = (acc + 1) * bits[j]
            runs[j] += acc
    sums = (runs * _LINE_WEIGHTS[..., None]).sum(axis=0, dtype=np.int64)
    return np.add.reduceat(sums, _DIRECTION_STARTS, axis=0).T


def window_feature(window, direction: Direction) -> int:
    """Weighted run-length sum of one 16x16 window for one direction."""
    bits = np.asarray(window)
    if bits.shape != (WINDOW_SIZE, WINDOW_SIZE):
        raise WrongDimensionsError(f"expected 16x16 window, got {bits.shape}")
    return int(_features(bits[None])[0, DIRECTIONS.index(direction)])


def extract_features(contour_img) -> np.ndarray:
    """The 196-value feature vector of a 64x64 contour image.

    Ordering: windows row-major, then the four directions per window. Runs
    never cross a window border, so overlapping windows are independent.
    """
    bits = np.asarray(contour_img)
    if bits.shape != (NORMALIZED_SIZE, NORMALIZED_SIZE):
        raise WrongDimensionsError(
            f"expected {NORMALIZED_SIZE}x{NORMALIZED_SIZE}, got {bits.shape}")
    windows = sliding_window_view(bits, (WINDOW_SIZE, WINDOW_SIZE))
    windows = windows[::WINDOW_STRIDE, ::WINDOW_STRIDE]
    stack = windows.reshape(NUM_WINDOWS, WINDOW_SIZE, WINDOW_SIZE)
    return _features(stack).reshape(FEATURE_DIM)


def scale_features(values, mean, std) -> np.ndarray:
    """Z-score with training statistics; zero-variance dimensions map to 0."""
    v = np.asarray(values, dtype=np.float64)
    m = np.asarray(mean, dtype=np.float64)
    s = np.asarray(std, dtype=np.float64)
    if v.shape[-1] != m.shape[-1] or m.shape != s.shape:
        raise LengthMismatchError(
            f"lengths disagree: values {v.shape[-1]}, mean {m.shape[-1]}, "
            f"std {s.shape[-1]}")
    if (s < 0).any():
        raise ValueError("std entries must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (v - m) / s
    return np.where(s > 0, out, 0.0)


# ---------------------------------------------------------------------------
# feature files: one `label,f1,...,fN` line per sample
# ---------------------------------------------------------------------------

def write_feature_file(path, labels, features) -> None:
    """Write labeled feature rows as text with a `#rwrl-v1` header."""
    X = np.asarray(features)
    y = np.asarray(labels)
    if X.ndim != 2 or len(y) != len(X):
        raise LengthMismatchError("labels and feature rows disagree")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{FEATURE_FILE_VERSION},dim={X.shape[1]}\n")
        for label, row in zip(y, X):
            fh.write(f"{int(label)}," + ",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def read_feature_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a feature file back into (labels, feature matrix)."""
    # non-ASCII bytes decode to U+FFFD, which no numeric field accepts
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header = fh.readline().strip()
        if not header.startswith(FEATURE_FILE_VERSION):
            raise FeatureFileError(f"missing {FEATURE_FILE_VERSION} header")
        try:
            dim = int(header.split("dim=", 1)[1])
        except (IndexError, ValueError):
            raise FeatureFileError("header lacks a dim= declaration") from None
        if dim < 1:
            raise FeatureFileError(f"header declares dim={dim}, needs >= 1")
        labels, rows = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != dim + 1:
                raise FeatureFileError(
                    f"line {lineno}: expected {dim + 1} fields, got {len(parts)}")
            try:
                labels.append(np.int64(int(parts[0])))
                rows.append([float(p) for p in parts[1:]])
            except (ValueError, OverflowError):
                raise FeatureFileError(f"line {lineno}: non-numeric field") from None
    if not rows:
        return np.empty(0, dtype=np.int64), np.empty((0, dim), dtype=np.float64)
    X = np.array(rows, dtype=np.float64)
    if not np.isfinite(X).all():
        bad = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
        raise FeatureFileError(f"sample {bad + 1}: non-finite feature value")
    return np.array(labels, dtype=np.int64), X
