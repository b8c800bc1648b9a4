"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's vectorized code paths: window
geometry, bands and run lengths are defined per pixel, run lengths also
come from enumerating maximal runs along scan lines, convolution is done
densely per pixel, resampling walks destination pixels one by one,
glyphs are rendered by measuring every segment against the whole canvas,
and the SMO solver keeps its multipliers in [0, C] with label-sign branches.
"""

import math
from collections import namedtuple

import numpy as np

from rwrl import dataset, svm
from rwrl.features import (
    DIRECTIONS,
    GRID_SIDE,
    WINDOW_SIZE,
    WINDOW_STRIDE,
    Direction,
    extract_features,
)
from rwrl.raster import NORMALIZED_SIZE


class NotForegroundError(Exception):
    """Queried pixel is background."""


# top-left corner of one 16x16 mask on the 64x64 image
Window = namedtuple("Window", "row col")


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


def run_length_at(window, pixel: tuple[int, int], direction: Direction) -> int:
    """Length of the maximal foreground run through a foreground pixel along
    a direction, clipped at the array border."""
    bits = np.asarray(window)
    if not bits[pixel]:
        raise NotForegroundError(f"pixel {pixel} is background")
    (h, w), (dr, dc) = bits.shape, direction.step
    length = 1
    for sign in (1, -1):
        r, c = pixel[0] + sign * dr, pixel[1] + sign * dc
        while 0 <= r < h and 0 <= c < w and bits[r, c]:
            length, r, c = length + 1, r + sign * dr, c + sign * dc
    return length


def window_feature(window, direction: Direction) -> int:
    """The library's feature of a 16x16 window: the first of a blank 64x64
    image with the window at its top left (other shapes are rejected)."""
    image = np.pad(np.asarray(window), (0, NORMALIZED_SIZE - WINDOW_SIZE))
    return int(extract_features(image)[DIRECTIONS.index(direction)])


def encode_pgm_ascii(img: np.ndarray) -> bytes:
    """An 8-bit grayscale image as ASCII ``P2`` PGM, one raster row per line."""
    rows = "".join(" ".join(map(str, row)) + "\n" for row in img.tolist())
    return f"P2\n{img.shape[1]} {img.shape[0]}\n255\n{rows}".encode("ascii")


def read_pgm_reference(data: bytes) -> np.ndarray:
    """Pixels of a P2 or P5 page, read byte by byte. Whitespace and `#`
    comments, each to its line end, come between tokens; a P5 raster starts
    one byte after maxval, and the P2 samples are the next w*h tokens. A
    token that is not ASCII digits or has more than 4300 of them, leading
    zeros counted, or a sample above maxval raises ValueError; too few
    tokens raise IndexError."""
    space, pos = b" \t\r\n\x0b\x0c", 2

    def token() -> int:
        nonlocal pos
        while data[pos] in space or data[pos] == ord("#"):
            if data[pos] == ord("#"):
                while pos < len(data) and data[pos] not in b"\r\n":
                    pos += 1
            else:
                pos += 1
        start = pos
        while pos < len(data) and data[pos] not in space + b"#":
            pos += 1
        text = data[start:pos].decode("latin-1")
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"non-digit token {text!r}")
        if len(text) > 4300:
            raise ValueError(f"token of {len(text)} digits")
        return int(text)

    width, height, maxval = token(), token(), token()
    if data[:2] == b"P5":
        pixels = list(data[pos + 1:pos + 1 + width * height])
    else:
        pixels = [token() for _ in range(width * height)]
    if max(pixels, default=0) > maxval:
        raise ValueError("sample above maxval")
    return np.array(pixels, dtype=np.uint8).reshape(height, width)


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


def smo_alpha_reference(K: np.ndarray, y: np.ndarray, C: float
                        ) -> tuple[np.ndarray, float, bool]:
    """Binary C-SVC dual solved in alpha with label-dependent bounds: the
    same SMO with second-order working-set selection (Fan, Chen & Lin, JMLR
    2005) as `svm._smo`, written in LIBSVM's terms. Returns alpha, the bias
    and convergence.

    G is the gradient of 1/2 a'Qa - sum(a) with Q = yy'K. Each step moves
    the pair (i, j) along a_i += y_i t, a_j -= y_j t, which keeps
    sum(y a) = 0, so G changes by t y (K_i - K_j).
    """
    n = len(y)
    alpha = np.zeros(n)
    G = -np.ones(n)
    diag = np.diag(K)
    converged = False
    for _ in range(svm.SMO_MAX_ITER_FACTOR * n):
        score = -y * G
        up = np.where(y > 0, alpha < C, alpha > 0)
        low = np.where(y > 0, alpha > 0, alpha < C)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        gap = score[i] - np.min(score, where=low, initial=np.inf)
        if gap < svm.SMO_TOLERANCE:
            converged = True
            break
        b = score[i] - score
        a = diag[i] + diag - 2.0 * K[i]
        a = np.where(a > 0, a, svm.SMO_TAU)
        j = int(np.argmax(np.where(low & (b > 0), b * b / a, -np.inf)))
        # largest step that keeps both multipliers inside [0, C]
        room_i = C - alpha[i] if y[i] > 0 else alpha[i]
        room_j = alpha[j] if y[j] > 0 else C - alpha[j]
        t = min(b[j] / a[j], room_i, room_j)
        G += t * y * (K[i] - K[j])
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        if t == room_i:
            alpha[i] = C if y[i] > 0 else 0.0
        if t == room_j:
            alpha[j] = 0.0 if y[j] > 0 else C

    # rho as in LIBSVM: the mean of yG over free multipliers, else the
    # midpoint of the bounds that the multipliers at 0 or C put on it
    yG = y * G
    free = (alpha > 0) & (alpha < C)
    if free.any():
        rho = yG[free].mean()
    else:
        below = (alpha > 0) == (y > 0)
        rho = 0.5 * (yG[~below].min() + yG[below].max())
    return alpha, -float(rho), converged
