"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's vectorized code paths: run lengths
come from enumerating maximal runs along scan lines, convolution is done
densely per pixel, resampling walks destination pixels one by one, and
glyphs are rendered by measuring every segment against the whole canvas.
"""

import math

import numpy as np

from rwrl import dataset
from rwrl.features import Direction, region_of, region_weight


def enumerate_run_lengths(bits: np.ndarray, direction: Direction) -> np.ndarray:
    """Per-pixel run lengths by walking every maximal run of a direction."""
    h, w = bits.shape
    out = np.zeros((h, w), dtype=int)
    dr, dc = direction.step
    for r in range(h):
        for c in range(w):
            pr, pc = r - dr, c - dc
            prev_inside = 0 <= pr < h and 0 <= pc < w
            if not bits[r, c] or (prev_inside and bits[pr, pc]):
                continue  # not the start of a maximal run
            run = []
            rr, cc = r, c
            while 0 <= rr < h and 0 <= cc < w and bits[rr, cc]:
                run.append((rr, cc))
                rr += dr
                cc += dc
            for rr, cc in run:
                out[rr, cc] = len(run)
    return out


def brute_window_feature(bits: np.ndarray, direction: Direction) -> int:
    """Weighted run-length sum computed from the run enumeration above."""
    runs = enumerate_run_lengths(bits, direction)
    total = 0
    for r in range(bits.shape[0]):
        for c in range(bits.shape[1]):
            if bits[r, c]:
                total += region_weight(region_of(r, c)) * runs[r, c]
    return total


def dense_gaussian_reference(img: np.ndarray, sigma: float) -> np.ndarray:
    """Full 2-D convolution with an explicitly built kernel, reflect padding."""
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=float)
    k1 = np.exp(-(x * x) / (2.0 * sigma * sigma))
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)
    padded = np.pad(img.astype(float), radius, mode="symmetric")
    h, w = img.shape
    out = np.empty((h, w))
    for r in range(h):
        for c in range(w):
            out[r, c] = (padded[r:r + 2 * radius + 1,
                                c:c + 2 * radius + 1] * k2).sum()
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def sweep_otsu_reference(img: np.ndarray) -> int:
    """Exhaustive 256-level sweep computing class statistics from raw pixels."""
    pixels = img.ravel().astype(float)
    if pixels.min() == pixels.max():
        return int(pixels[0])
    best_t, best_v = 0, -1.0
    for t in range(256):
        lo = pixels[pixels <= t]
        hi = pixels[pixels > t]
        if len(lo) == 0 or len(hi) == 0:
            v = 0.0
        else:
            w0 = len(lo) / len(pixels)
            w1 = len(hi) / len(pixels)
            v = w0 * w1 * (lo.mean() - hi.mean()) ** 2
        if v > best_v:
            best_v, best_t = v, t
    return best_t


def reference_normalize(bin_img: np.ndarray) -> np.ndarray:
    """Crop/pad/resample written as plain loops over destination pixels."""
    rows = [r for r in range(bin_img.shape[0]) if bin_img[r].any()]
    cols = [c for c in range(bin_img.shape[1]) if bin_img[:, c].any()]
    crop = bin_img[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    h, w = crop.shape
    side = max(h, w)
    square = np.zeros((side, side), dtype=np.uint8)
    top = (side - h) // 2
    left = (side - w) // 2
    square[top:top + h, left:left + w] = crop
    out = np.zeros((64, 64), dtype=np.uint8)
    for r in range(64):
        for c in range(64):
            out[r, c] = square[r * side // 64, c * side // 64]
    return out


def full_canvas_render_glyph(label: int, rng: np.random.Generator) -> np.ndarray:
    """`render_glyph` with each segment's distance taken at every pixel."""
    strokes, thickness = dataset._jitter(dataset.glyph_template(label), rng)
    rows, cols = np.mgrid[0:dataset.CANVAS, 0:dataset.CANVAS].astype(np.float64)
    grid = np.stack([rows, cols], axis=-1)
    ink = np.zeros((dataset.CANVAS, dataset.CANVAS), dtype=bool)
    limit = thickness / 2.0
    for pts in strokes:
        for p0, p1 in zip(pts[:-1], pts[1:]):
            seg = p1 - p0
            norm2 = float(seg @ seg)
            rel = grid - p0
            if norm2 > 0:
                t = np.clip((rel @ seg) / norm2, 0.0, 1.0)
                rel = rel - t[..., None] * seg
            dist = np.sqrt((rel * rel).sum(axis=-1))
            ink |= dist <= limit
    return np.where(ink, 0, 255).astype(np.uint8)
