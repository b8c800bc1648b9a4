"""Seeded scan distortion and the image encoders the benchmark writes inputs with.

A clean 64x64 synthetic glyph becomes a messy "scan": an elastic warp
(Simard, Steinkraus & Platt, ICDAR 2003), stroke breaks, a page of 64-128 px
with its own paper and ink levels, sensor noise and salt-and-pepper specks.
Every random choice comes from the generator the caller passes, so one seed
gives the same bytes on every run.
"""

from __future__ import annotations

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FORMATS = ("pgm5", "pgm2", "bmp")
SUFFIX = {"pgm5": ".pgm", "pgm2": ".pgm", "bmp": ".bmp"}


def _smooth(field: np.ndarray, sigma: float) -> np.ndarray:
    radius = int(np.ceil(3 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-x * x / (2 * sigma * sigma))
    k /= k.sum()
    padded = np.pad(field, radius, mode="reflect")
    rows = sliding_window_view(padded, len(k), axis=1) @ k
    return sliding_window_view(rows, len(k), axis=0) @ k


def _bilinear(img: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    h, w = img.shape
    r = np.clip(r, 0, h - 1)
    c = np.clip(c, 0, w - 1)
    r0 = np.minimum(np.floor(r).astype(int), h - 2)
    c0 = np.minimum(np.floor(c).astype(int), w - 2)
    fr, fc = r - r0, c - c0
    top = img[r0, c0] * (1 - fc) + img[r0, c0 + 1] * fc
    bottom = img[r0 + 1, c0] * (1 - fc) + img[r0 + 1, c0 + 1] * fc
    return top * (1 - fr) + bottom * fr


def page_sides(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sides of n pages, 64..128 px, shuffled, with the same multiset in each
    third (i % 3), so every seed and every format gets the same pixel count."""
    sides = np.empty(n, dtype=int)
    for group in range(3):
        index = np.arange(group, n, 3)
        sides[index] = rng.permutation(
            np.linspace(64, 128, len(index)).round().astype(int))
    return sides


def distort(glyph: np.ndarray, side: int, rng: np.random.Generator) -> np.ndarray:
    """A scan-like side x side uint8 page made from a clean glyph (ink 0 on 255)."""
    g = glyph.astype(np.float64) / 255.0          # 1 = paper, 0 = ink
    h, w = g.shape
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    alpha = rng.uniform(5.0, 8.0)
    dr = _smooth(rng.uniform(-1, 1, (h, w)), 4.0) * alpha
    dc = _smooth(rng.uniform(-1, 1, (h, w)), 4.0) * alpha
    g = _bilinear(g, rows + dr, cols + dc)

    ink_r, ink_c = np.nonzero(g < 0.5)
    if ink_r.size:
        for k in rng.choice(ink_r.size, size=rng.integers(0, 3)):
            radius = rng.uniform(1.0, 2.0)
            hole = (rows - ink_r[k]) ** 2 + (cols - ink_c[k]) ** 2 <= radius ** 2
            g[hole] = 1.0

    scale = rng.uniform(0.8, side / 64.0)
    size = max(16, int(round(64 * scale)))
    src = (np.arange(size) + 0.5) / scale - 0.5
    grid_r, grid_c = np.meshgrid(src, src, indexing="ij")
    glyph_big = _bilinear(g, grid_r, grid_c)
    page = np.ones((side, side))
    top, left = rng.integers(0, side - size + 1, size=2)
    page[top:top + size, left:left + size] = glyph_big

    paper = rng.uniform(190.0, 250.0)
    ink = rng.uniform(10.0, 90.0)
    page = ink + (paper - ink) * page + rng.normal(0.0, 6.0, page.shape)
    specks = rng.random(page.shape)
    page[specks < 0.004] = 255.0
    # dark specks are rare: one that survives smoothing widens the digit's box
    page[specks > 0.9996] = 0.0
    return np.clip(np.rint(page), 0, 255).astype(np.uint8)


def encode(img: np.ndarray, fmt: str) -> bytes:
    """Encode a grayscale page as binary PGM, ASCII PGM or 8-bit BMP."""
    h, w = img.shape
    if fmt == "pgm5":
        return f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes()
    if fmt == "pgm2":
        body = "\n".join(" ".join(map(str, row)) for row in img.tolist())
        return f"P2\n{w} {h}\n255\n{body}\n".encode("ascii")
    if fmt == "bmp":
        row_size = (w + 3) // 4 * 4
        pixels = np.zeros((h, row_size), dtype=np.uint8)
        pixels[:, :w] = img[::-1]                      # bottom-up rows
        palette = np.repeat(np.arange(256, dtype=np.uint8), 4).reshape(256, 4)
        palette[:, 3] = 0
        offset = 14 + 40 + palette.nbytes
        header = struct.pack("<2sIHHI", b"BM", offset + pixels.nbytes, 0, 0,
                             offset)
        # 256 palette entries: the decoder's biClrUsed > 256 defect is not hit
        info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 8, 0, pixels.nbytes,
                           2835, 2835, 256, 0)
        return header + info + palette.tobytes() + pixels.tobytes()
    raise ValueError(f"unknown format {fmt!r}")
