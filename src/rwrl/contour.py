"""Boundary extraction for normalized binary digit images.

A contour pixel is a foreground pixel with at least one background
4-neighbor; pixels beyond the image edge count as background. This keeps
one-pixel-wide strokes intact (an 8-neighbor test would erase diagonal
thin strokes).
"""

from __future__ import annotations

import numpy as np

from .errors import WrongDimensionsError
from .raster import NORMALIZED_SIZE, _as_binary


def extract_contour(bin_img) -> np.ndarray:
    """Return the contour pixel set of a 64x64 binary image."""
    arr = np.asarray(bin_img)
    if arr.shape != (NORMALIZED_SIZE, NORMALIZED_SIZE):
        raise WrongDimensionsError(
            f"expected {NORMALIZED_SIZE}x{NORMALIZED_SIZE}, got {arr.shape}")
    arr = _as_binary(arr)
    padded = np.pad(arr, 1)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    return ((arr == 1) & (interior == 0)).astype(np.uint8)
