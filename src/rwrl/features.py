"""Contours and regional weighted run-length features of 64x64 digits.

A contour pixel is a foreground pixel with at least one background
4-neighbor; pixels beyond the image edge count as background. This keeps
one-pixel-wide strokes intact (an 8-neighbor test would erase diagonal
thin strokes).

A 64x64 contour image is covered by 49 windows of size 16x16 placed at
stride 8 (each window overlaps its neighbor by 8 pixels). Every window is
split into four concentric square bands: the central 4x4, then the 8x8,
12x12 and 16x16 annuli around it. For each of four directions (horizontal,
vertical and the two diagonals) every contour pixel contributes the length
of the maximal foreground run through it, clipped at the window border;
band sums are combined with weights 8/4/2/1 from the center outward.

49 windows x 4 directions gives a 196-dimensional integer feature vector.
It is computed from one table, built on first use from `Direction.step`,
of the 94 scan lines of a window (16 rows, 16 columns, 31 + 31 diagonals)
padded with a background pixel: one run-length recurrence covers them all,
with int8 bits and runs (<= 16), int16 weighted line sums (<= 16 * 16 * 8)
and int64 window sums.

`extract_contour` and `extract_features` also take a (..., 64, 64) stack:
page i of the result is bit for bit that of page i alone.
"""

from __future__ import annotations

import enum
import functools
import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionMismatchError,
    EmptyDataError,
    FeatureFileError,
    LengthMismatchError,
    WrongDimensionsError,
)

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


# band weight 8/4/2/1 from the central 4x4 outward: each band is two pixels
# wide, so the weight doubles every two pixels of distance from the border
_TO_EDGE = np.minimum(np.arange(WINDOW_SIZE), np.arange(WINDOW_SIZE)[::-1])
WEIGHT_MAP = 2 ** (np.minimum.outer(_TO_EDGE, _TO_EDGE) // 2)


@functools.cache
def _scan_lines() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan-line table, transposed to (16 steps, 94 lines), the first
    line of each direction in it, and the weight of each of its pixels.

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
    by_step = np.array(table).T
    weights = np.append(WEIGHT_MAP.ravel(), 0).astype(np.int16)[by_step]
    return by_step, np.array(starts), weights


def _features(windows: np.ndarray) -> np.ndarray:
    """Weighted run-length sums, (n, 4), of an (n, 16, 16) window stack."""
    by_step, starts, weights = _scan_lines()
    n = len(windows)
    flat = np.zeros((WINDOW_SIZE * WINDOW_SIZE + 1, n), dtype=np.int8)
    flat[:-1] = (windows != 0).reshape(n, -1).T
    bits = flat[by_step]                       # (16 steps, 94 lines, n)
    runs = -bits
    for steps in (range(WINDOW_SIZE), range(WINDOW_SIZE - 1, -1, -1)):
        acc = np.zeros(bits.shape[1:], dtype=np.int8)
        for j in steps:
            acc = (acc + 1) * bits[j]
            runs[j] += acc
    sums = np.einsum("jln,jl->ln", runs, weights)   # int16, no temporary
    return np.add.reduceat(sums, starts, axis=0, dtype=np.int64).T


def _normalized(img) -> np.ndarray:
    """`img` as an array, refused unless it is a 64x64 page or stack of them."""
    from .raster import NORMALIZED_SIZE
    arr = np.asarray(img)
    if arr.shape[-2:] != (NORMALIZED_SIZE, NORMALIZED_SIZE):
        raise WrongDimensionsError(
            f"expected {NORMALIZED_SIZE}x{NORMALIZED_SIZE}, got {arr.shape}")
    return arr


def extract_contour(bin_img) -> np.ndarray:
    """Return the contour pixel set of a 64x64 binary image."""
    from .raster import _as_binary
    arr = _as_binary(_normalized(bin_img), stack=True)
    padded = np.pad(arr, [(0, 0)] * (arr.ndim - 2) + [(1, 1)] * 2)
    interior = (padded[..., :-2, 1:-1] & padded[..., 2:, 1:-1]
                & padded[..., 1:-1, :-2] & padded[..., 1:-1, 2:])
    return ((arr == 1) & (interior == 0)).astype(np.uint8)


def extract_features(contour_img) -> np.ndarray:
    """The 196-value feature vector of a 64x64 contour image.

    Ordering: windows row-major, then the four directions per window. Runs
    never cross a window border, so overlapping windows are independent.
    """
    bits = _normalized(contour_img)
    windows = sliding_window_view(bits, (WINDOW_SIZE, WINDOW_SIZE),
                                  axis=(-2, -1))
    windows = windows[..., ::WINDOW_STRIDE, ::WINDOW_STRIDE, :, :]
    stack = windows.reshape(-1, WINDOW_SIZE, WINDOW_SIZE)
    return _features(stack).reshape(*bits.shape[:-2], FEATURE_DIM)


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
        out = v - m
        out /= s
    np.copyto(out, 0.0, where=~(s > 0))
    return out


def training_rows(features, labels, scale: bool) -> tuple[
        np.ndarray, np.ndarray, list[int], np.ndarray, np.ndarray]:
    """A classifier's checked training input: the float64 rows (the input
    itself if it is float64), the int64 labels, the sorted class list, and
    the training mean and std per dimension, (0, 1) when not scaling. A
    matrix with no row or no column raises EmptyDataError, and a label
    outside `_int_labels`' rule ValueError."""
    X = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if X.ndim != 2 or X.size == 0:
        raise EmptyDataError("training data is empty")
    if labels.shape != (len(X),):
        raise DimensionMismatchError(f"{len(X)} rows but {labels.size} labels")
    y = _int_labels(labels, ValueError)
    if scale:
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = X.mean(axis=0), X.std(axis=0)
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise FeatureFileError(
                "feature values overflow the scaling statistics")
    else:
        mean, std = np.zeros(X.shape[1]), np.ones(X.shape[1])
    return X, y, sorted(set(y.tolist())), mean, std


def _int_labels(labels, error: type[Exception]) -> np.ndarray:
    """`labels` as int64 (the input itself if it is int64), the rule of every
    label a classifier trains on or a feature file holds: a label whose int64
    value differs from it (0.5, NaN, 2.0**63) raises `error`."""
    labels = np.asarray(labels)
    try:
        with np.errstate(invalid="ignore"):     # NaN or past int64: refused
            y = labels.astype(np.int64, copy=False)
        if (y == labels).all():
            return y
    except (TypeError, ValueError, OverflowError):  # None, "a", 2**64
        pass
    raise error("labels must be integers within int64")


def probe_rows(model, features) -> np.ndarray:
    """Rows to classify, z-scored with the model's training statistics; a
    single vector is one row."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"model expects {model.dim} features, got {X.shape[1:]}")
    return scale_features(X, model.mean, model.std)


# ---------------------------------------------------------------------------
# feature files: one `label,f1,...,fN` line per sample, read back by
# `reader.read_feature_file`
# ---------------------------------------------------------------------------

def write_feature_file(path, labels, features) -> None:
    """Write labeled feature rows as text with a `#rwrl-v1` header.
    `features` is a (rows, dim) matrix or a list of rows of one length,
    which is written as it is, never stacked into a second copy. A label
    outside `_int_labels`' rule, a non-finite value or rows of no column
    raise FeatureFileError before the file is opened."""
    rows, shape = _as_rows(features)
    y = np.asarray(labels)
    if shape is None or y.shape != shape[:1]:
        raise LengthMismatchError("labels and feature rows disagree")
    if shape[1] == 0:
        raise FeatureFileError("feature rows need at least one column")
    y = _int_labels(y, FeatureFileError)
    lines = format_rows(rows, ",", FeatureFileError)
    write_csv(path, itertools.chain(
        [(FEATURE_FILE_VERSION, f"dim={shape[1]}")], zip(y.tolist(), lines)))


def write_csv(path, rows) -> None:
    """Each row's fields joined by `,`, one LF-ended ASCII line per row,
    streamed as `rows` yields them: the writer of every rwrl table. It
    quotes nothing, as no rwrl field holds a comma, quote or line end.
    `synth`'s manifest alone has its own writer, as golden digests pin its
    CRLF lines."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def format_rows(rows, sep: str, error: type[Exception]):
    """Lines of `rows` values joined by `sep`: digits for an integral value,
    repr otherwise, which `reader` reads back exactly (-0.0 as 0). A
    non-finite value raises `error` before any line is made; an integer
    row needs no check."""
    rows, _ = _as_rows(rows)
    for block in rows if isinstance(rows, list) else [rows]:
        if block.dtype.kind not in "biu" and not np.isfinite(block).all():
            raise error("non-finite value")
    return (_format_row(row, sep) for row in rows)


def _as_rows(rows) -> tuple:
    """`rows` as an array, or a list as a list of arrays, which shares the
    rows it is given; and its (rows, width) shape, None unless it is 2-D."""
    if not isinstance(rows, list):
        rows = np.asarray(rows)
        return rows, rows.shape if rows.ndim == 2 else None
    rows = [np.asarray(row) for row in rows]
    shapes = {row.shape for row in rows}
    if len(shapes) == 1 and len(shape := shapes.pop()) == 1:
        return rows, (len(rows), *shape)
    return rows, None


def _format_row(row: np.ndarray, sep: str) -> str:
    # integers within 2**53 of 0, which float() keeps exact, join as they
    # are. One row at a time and no numpy call but tolist(): a matrix-sized
    # temporary, or a numpy function first used here, raises the peak RSS
    values = row.tolist()
    if (row.dtype.kind in "iu" and -2 ** 53 <= min(values, default=0)
            and max(values, default=0) <= 2 ** 53):
        return sep.join(map(str, values))
    return sep.join(str(int(f)) if f.is_integer() else repr(f)
                    for f in map(float, values))
