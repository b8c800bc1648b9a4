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

Only `extract` runs this module. The classifiers' row contract and the
feature file writer live in `rows`, which the table commands load instead.
"""

from __future__ import annotations

import enum
import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import WrongDimensionsError

WINDOW_SIZE = 16
WINDOW_STRIDE = 8
GRID_SIDE = 7
NUM_WINDOWS = GRID_SIDE * GRID_SIDE
FEATURE_DIM = NUM_WINDOWS * 4


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
