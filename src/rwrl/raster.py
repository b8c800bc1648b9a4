"""Image decoding and the preprocessing chain.

Images are plain numpy arrays: grayscale images are 2-D uint8 arrays with
intensities in [0, 255], binary images are 2-D uint8 arrays in {0, 1} where
1 marks foreground ink. The library functions take any 2-D array whose
values are integers in 0..255; another value raises ValueError rather than
wrapping to a uint8.

The full chain used for a raw digit scan is:

    decode_image -> gaussian_smooth -> ink -> normalize_digit

producing a 64x64 binary digit image; feature extraction reuses `ink`.
"""

from __future__ import annotations

import math
import re
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    EmptyImageError,
    MalformedHeaderError,
    TruncatedDataError,
    UnsupportedFormatError,
)

NORMALIZED_SIZE = 64
MAX_SIGMA = 64  # px; smoothing time and memory grow with sigma

PGM_MAX_DIGITS = 4300  # per PGM integer, leading zeros counted

_COMMENT = re.compile(rb"#[^\r\n]*")
# magic, width, height, maxval: each number ends at whitespace or a comment,
# which runs to its line end, so no digit run is split or lent to a field
_PGM_HEADER = re.compile(rb"P[25]%s*(\d+)%s+(\d+)%s+(\d+)(?=\s|#|\Z)"
                         % ((rb"(?:\s|#[^\r\n]*(?![^\r\n]))",) * 3))

DARK_INK = "dark-ink"
LIGHT_INK = "light-ink"


def _as_gray(img) -> np.ndarray:
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    # a uint8 or bool page needs no scan; any other must fit uint8 exactly
    if arr.dtype not in (np.uint8, np.bool_) and not (
            (arr >= 0) & (arr <= 255) & (np.floor(arr) == arr)).all():
        raise ValueError("image values must be integers in 0..255")
    return arr.astype(np.uint8, copy=False)


def _as_binary(img) -> np.ndarray:
    arr = _as_gray(img)
    if arr.max(initial=0) > 1:
        raise ValueError("binary image values must be 0 or 1")
    return arr


# ---------------------------------------------------------------------------
# decoding / encoding
# ---------------------------------------------------------------------------

def _check_digits(longest: int, what: str) -> None:
    """Every PGM integer has at most PGM_MAX_DIGITS digits, leading zeros
    counted here rather than left to the interpreter's int() limit."""
    if longest > PGM_MAX_DIGITS:
        raise MalformedHeaderError(
            f"{what} too long: over {PGM_MAX_DIGITS} digits")


def _p2_digits(body: bytes, n: int) -> np.ndarray:
    """The last three digits of each of the first n samples of a P2 body,
    0 where a sample has fewer, as a (3, n) uint8 array. A sample of 1000
    or more is refused here. Its int64 token index is freed on return,
    before the caller's int64 sums."""
    if b"#" in body:    # a comment runs to its line end and separates
        body = _COMMENT.sub(b" ", body)
    buf = np.frombuffer(body, dtype=np.uint8)
    # the six bytes bytes.split() takes for whitespace: 9-13 and 32
    sep = (buf == 32) | ((buf >= 9) & (buf <= 13))
    # fenced by separators, token i spans edges[2i]:edges[2i + 1]
    edges = np.flatnonzero(np.diff(sep, prepend=True, append=True))
    if len(edges) < 2 * n:
        raise TruncatedDataError(
            f"expected {n} samples, found {len(edges) // 2}")
    starts, ends = edges[0:2 * n:2], edges[1:2 * n:2]
    # bytes past the n-th sample are not read
    head, digit = buf[:ends[-1]], ~sep[:ends[-1]]
    if (digit & ((head < ord("0")) | (head > ord("9")))).any():
        raise MalformedHeaderError("non-numeric sample")
    _check_digits(int((ends - starts).max()), "sample")
    # a nonzero digit with three more after it makes a sample >= 1000
    if ((head[:-3] > ord("0")) & digit[1:-2] & digit[2:-1]
            & digit[3:]).any():
        raise MalformedHeaderError("sample value exceeds declared maxval")
    digits = np.empty((3, n), dtype=np.uint8)
    for row, back in enumerate((3, 2, 1)):
        at = ends - back
        digits[row] = head.take(at, mode="clip")
        digits[row, at < starts] = ord("0")
    return digits - ord("0")


def _decode_pgm(data: bytes) -> np.ndarray:
    header = _PGM_HEADER.match(data)
    if header is None:
        raise MalformedHeaderError(
            "graymap header is not three integers after the magic")
    _check_digits(max(map(len, header.groups())), "header field")
    width, height, maxval = map(int, header.groups())
    pos = header.end()
    if width < 1 or height < 1 or maxval < 1:
        raise MalformedHeaderError(
            f"bad graymap dimensions {width}x{height} maxval={maxval}")
    if maxval > 255:
        raise UnsupportedFormatError("only 8-bit graymaps are supported")

    n = width * height
    if data[:2] == b"P5":
        # exactly one whitespace byte separates the header from raw samples
        if pos >= len(data) or data[pos:pos + 1] not in b" \t\r\n\x0b\x0c":
            raise MalformedHeaderError("missing separator before raster data")
        pos += 1
        raster = data[pos:pos + n]
        if len(raster) < n:
            raise TruncatedDataError(
                f"expected {n} pixel bytes, found {len(raster)}")
        pixels = np.frombuffer(raster, dtype=np.uint8, count=n)
        if pixels.max(initial=0) > maxval:
            raise MalformedHeaderError("sample value exceeds declared maxval")
    else:  # P2
        digits = _p2_digits(data[pos:], n)
        pixels = np.zeros(n, dtype=np.int64)
        for row, place in zip(digits, (100, 10, 1)):
            # widened before scaling: uint8 products wrap without a warning
            pixels += np.multiply(row, place, dtype=np.int64)
        if pixels.max() > maxval:
            raise MalformedHeaderError("sample value exceeds declared maxval")
    return pixels.astype(np.uint8).reshape(height, width)


def _decode_bmp(data: bytes) -> np.ndarray:
    if len(data) < 54:
        raise MalformedHeaderError("bitmap header truncated")
    data_offset, = struct.unpack_from("<I", data, 10)
    dib_size, = struct.unpack_from("<I", data, 14)
    if dib_size < 40:
        raise UnsupportedFormatError("unsupported bitmap header variant")
    width, height = struct.unpack_from("<ii", data, 18)
    planes, bitcount = struct.unpack_from("<HH", data, 26)
    compression, = struct.unpack_from("<I", data, 30)
    if width < 1 or height == 0 or planes != 1:
        raise MalformedHeaderError("bad bitmap geometry")
    if bitcount != 8:
        raise UnsupportedFormatError(
            f"only 8-bit bitmaps are supported, got {bitcount}-bit")
    if compression != 0:
        raise UnsupportedFormatError("compressed bitmaps are not supported")

    clr_used, = struct.unpack_from("<I", data, 46)
    if clr_used > 256:
        raise MalformedHeaderError(f"8-bit palette with {clr_used} colors")
    n_colors = clr_used or 256
    pal_start = 14 + dib_size
    pal_end = pal_start + 4 * n_colors
    if len(data) < pal_end:
        raise MalformedHeaderError("bitmap palette truncated")
    palette = np.frombuffer(data[pal_start:pal_end], dtype=np.uint8)
    palette = palette.reshape(n_colors, 4)  # B, G, R, reserved
    if not ((palette[:, 0] == palette[:, 1]) & (palette[:, 1] == palette[:, 2])).all():
        raise UnsupportedFormatError("color bitmaps are rejected")
    gray_lut = np.zeros(256, dtype=np.uint8)
    gray_lut[:n_colors] = palette[:, 0]

    top_down = height < 0
    height = abs(height)
    row_size = (width + 3) // 4 * 4
    need = row_size * height
    raster = data[data_offset:data_offset + need]
    if len(raster) < need:
        raise TruncatedDataError(
            f"expected {need} raster bytes, found {len(raster)}")
    rows = np.frombuffer(raster, dtype=np.uint8, count=need)
    rows = rows.reshape(height, row_size)[:, :width]
    if not top_down:
        rows = rows[::-1]
    return gray_lut[rows]


def decode_image(data: bytes) -> np.ndarray:
    """Decode PGM (ASCII ``P2`` or binary ``P5``) or 8-bit uncompressed BMP bytes.

    Returns a grayscale image; color inputs are rejected.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("decode_image expects bytes")
    data = bytes(data)
    if len(data) < 2:
        raise MalformedHeaderError("input too short to hold an image header")
    magic = data[:2]
    if magic in (b"P2", b"P5"):
        return _decode_pgm(data)
    if magic in (b"P3", b"P6"):
        raise UnsupportedFormatError("color pixmaps are rejected")
    if magic in (b"P1", b"P4"):
        raise UnsupportedFormatError("portable bitmaps are not graymaps")
    if magic == b"BM":
        return _decode_bmp(data)
    raise MalformedHeaderError(f"unrecognized magic {magic!r}")


def encode_pgm(img) -> bytes:
    """Encode a grayscale image as binary ``P5`` PGM."""
    arr = _as_gray(img)
    h, w = arr.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + arr.tobytes()


def binary_to_gray(bin_img) -> np.ndarray:
    """Render a binary image as grayscale: ink 0 on background 255."""
    arr = _as_binary(bin_img)
    return np.where(arr == 1, np.uint8(0), np.uint8(255))


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian kernel with radius ceil(3*sigma)."""
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def gaussian_smooth(img, sigma: float) -> np.ndarray:
    """Separable Gaussian blur; the image is reflected at its borders.

    sigma=0 is the identity; sigma must lie in [0, MAX_SIGMA]. Output
    values are rounded to the nearest integer and stay inside [0, 255].
    """
    arr = _as_gray(img)
    if not 0 <= sigma <= MAX_SIGMA:
        raise ValueError(f"sigma must be in [0, {MAX_SIGMA}], got {sigma}")
    if sigma == 0:
        return arr.copy()
    k = gaussian_kernel(sigma)
    radius = (len(k) - 1) // 2
    padded = np.pad(arr.astype(np.float64), radius, mode="symmetric")
    horiz = sliding_window_view(padded, len(k), axis=1) @ k
    both = sliding_window_view(horiz, len(k), axis=0) @ k
    return np.clip(np.rint(both), 0, 255).astype(np.uint8)


def otsu_threshold(img) -> int:
    """Threshold maximizing between-class variance over the 256-bin histogram.

    Pixels <= t form one class, pixels > t the other. Ties pick the smallest
    t; a constant image returns its own value.
    """
    arr = _as_gray(img)
    hist = np.bincount(arr.ravel(), minlength=256).astype(np.float64)
    nonzero = np.nonzero(hist)[0]
    if len(nonzero) == 1:
        return int(nonzero[0])
    total = hist.sum()
    levels = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(hist)
    sum0 = np.cumsum(hist * levels)
    sum_all = sum0[-1]
    w1 = total - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = sum0 / w0
        mu1 = (sum_all - sum0) / w1
        var_between = w0 * w1 * (mu0 - mu1) ** 2
    var_between[~np.isfinite(var_between)] = 0.0
    return int(np.argmax(var_between))


def binarize(img, t: int, polarity: str = DARK_INK) -> np.ndarray:
    """Threshold at t; dark-ink maps pixel<=t to 1, light-ink maps pixel>t."""
    arr = _as_gray(img)
    if not 0 <= t <= 255:
        raise ValueError("threshold must be in [0, 255]")
    if polarity == DARK_INK:
        return (arr <= t).astype(np.uint8)
    if polarity == LIGHT_INK:
        return (arr > t).astype(np.uint8)
    raise ValueError(f"polarity must be {DARK_INK!r} or {LIGHT_INK!r}")


def normalize_digit(bin_img) -> np.ndarray:
    """Crop to the foreground box, square-pad, and resample to 64x64.

    Padding splits evenly with the extra pixel on the bottom/right; the
    resampling is nearest-neighbor with source index floor(dst*src/64), so
    the output stays binary.
    """
    arr = _as_binary(bin_img)
    rows = np.flatnonzero(arr.any(axis=1))
    cols = np.flatnonzero(arr.any(axis=0))
    if rows.size == 0:
        raise EmptyImageError("no foreground pixel to normalize")
    crop = arr[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    h, w = crop.shape
    side = max(h, w)
    pad_rows = side - h
    pad_cols = side - w
    square = np.pad(crop, ((pad_rows // 2, pad_rows - pad_rows // 2),
                           (pad_cols // 2, pad_cols - pad_cols // 2)))
    idx = np.arange(NORMALIZED_SIZE) * side // NORMALIZED_SIZE
    return square[np.ix_(idx, idx)].astype(np.uint8)


def ink(gray, polarity: str) -> np.ndarray:
    """The ink of a grayscale page, binarized at its Otsu threshold.

    A constant page carries no separable ink, so it is rejected as empty
    rather than letting the degenerate threshold mark everything foreground.
    """
    arr = _as_gray(gray)
    if arr.min() == arr.max():
        raise EmptyImageError("blank page: image is constant")
    return binarize(arr, otsu_threshold(arr), polarity)


def preprocess_image(data: bytes, sigma: float = 1.0,
                     polarity: str = DARK_INK) -> np.ndarray:
    """Run the full chain from encoded bytes to a normalized 64x64 binary image."""
    return normalize_digit(ink(gaussian_smooth(decode_image(data), sigma),
                               polarity))
