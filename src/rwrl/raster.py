"""Image decoding and the preprocessing chain.

Images are plain numpy arrays: grayscale images are 2-D uint8 arrays with
intensities in [0, 255], binary images are 2-D uint8 arrays in {0, 1} where
1 marks foreground ink. The library functions take any 2-D array whose
values are integers in 0..255; another value raises ValueError rather than
wrapping to a uint8.

`gaussian_smooth`, `otsu_threshold`, `binarize` and `ink` also take a
(..., H, W) stack: page i of the result is bit for bit that of page i alone.

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
    DARK_INK,
    LIGHT_INK,
    MAX_SIGMA,
    PGM_MAX_DIGITS,
    EmptyImageError,
    MalformedHeaderError,
    TruncatedDataError,
    UnsupportedFormatError,
)

NORMALIZED_SIZE = 64

_HEADER_BOUND = 10 ** 18  # any header field of 19 or more significant digits

_COMMENT = re.compile(rb"#[^\r\n]*")
# magic, width, height, maxval: each number ends at whitespace or a comment,
# which runs to its line end, so no digit run is split or lent to a field
_PGM_HEADER = re.compile(rb"P[25]%s*(\d+)%s+(\d+)%s+(\d+)(?=\s|#|\Z)"
                         % ((rb"(?:\s|#[^\r\n]*(?![^\r\n]))",) * 3))


def _as_gray(img, stack: bool = False) -> np.ndarray:
    """`img` as uint8: a page or, if `stack`, a (..., H, W) stack of pages."""
    arr = np.asarray(img)
    if arr.size == 0 or arr.ndim < 2 or arr.ndim > 2 and not stack:
        raise ValueError("image must be a non-empty 2-D array"
                         + " or a stack of them" * stack)
    # a uint8 or bool page needs no scan; any other must fit uint8 exactly
    if arr.dtype not in (np.uint8, np.bool_) and not (
            (arr >= 0) & (arr <= 255) & (np.floor(arr) == arr)).all():
        raise ValueError("image values must be integers in 0..255")
    return arr.astype(np.uint8, copy=False)


def _as_binary(img, stack: bool = False) -> np.ndarray:
    arr = _as_gray(img, stack)
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


def _p2_samples(body, n: int, count) -> np.ndarray:
    """The first n samples of a bytes-like P2 body as uint16 values; `count`
    is n as error messages give it. A sample of 1000 or more is refused
    here, so each is at most 999.

    Tokens are looked for in a prefix of the body, 4n bytes and then four
    times longer, until the n-th one ends inside it: memory follows the
    samples read, not the bytes after them.
    """
    size = 4 * n
    while True:
        whole = size >= len(body)
        prefix = bytes(body[:size])
        if b"#" in prefix:  # a comment runs to its line end and separates
            prefix = _COMMENT.sub(b" ", prefix)
        buf = np.frombuffer(prefix, dtype=np.uint8)
        # the six bytes bytes.split() takes for whitespace: 9-13 and 32
        sep = (buf == 32) | ((buf >= 9) & (buf <= 13))
        # fenced by separators, token i spans edges[2i]:edges[2i + 1]
        edges = np.flatnonzero(np.diff(sep, prepend=True, append=True))
        if len(edges) >= 2 * n and (whole or edges[2 * n - 1] < len(buf)):
            break
        if whole:
            raise TruncatedDataError(
                f"expected {count} samples, found {len(edges) // 2}")
        size *= 4
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
    samples = np.zeros(n, dtype=np.uint16)
    for back, place in ((3, 100), (2, 10), (1, 1)):
        at = ends - back
        value = head.take(at, mode="clip") - np.uint8(ord("0"))
        value[at < starts] = 0
        # widened before scaling: uint8 products wrap without a warning
        samples += np.multiply(value, place, dtype=np.uint16)
    return samples


def _header_field(field: bytes) -> tuple[int, str]:
    """A header field's value and its text in error messages. A field of
    more than 18 significant digits is larger than any file holds: it
    stands as _HEADER_BOUND, never passed to int(), whose digit limit the
    interpreter may set as low as 640, and messages give its digit count."""
    digits = field.lstrip(b"0")
    if len(digits) > 18:
        return _HEADER_BOUND, f"({len(digits)} digits)"
    value = int(digits or b"0")
    return value, str(value)


def _decode_pgm(data: bytes) -> np.ndarray:
    header = _PGM_HEADER.match(data)
    if header is None:
        raise MalformedHeaderError(
            "graymap header is not three integers after the magic")
    _check_digits(max(map(len, header.groups())), "header field")
    (width, w), (height, h), (maxval, m) = map(_header_field, header.groups())
    pos = header.end()
    if width < 1 or height < 1 or maxval < 1:
        raise MalformedHeaderError(
            f"bad graymap dimensions {w}x{h} maxval={m}")
    if maxval > 255:
        raise UnsupportedFormatError("only 8-bit graymaps are supported")

    n = width * height
    count = f"{w}x{h}" if max(width, height) == _HEADER_BOUND else n
    if data[:2] == b"P5":
        # exactly one whitespace byte separates the header from raw samples
        if pos >= len(data) or data[pos:pos + 1] not in b" \t\r\n\x0b\x0c":
            raise MalformedHeaderError("missing separator before raster data")
        pos += 1
        raster = data[pos:pos + n]
        if len(raster) < n:
            raise TruncatedDataError(
                f"expected {count} pixel bytes, found {len(raster)}")
        pixels = np.frombuffer(raster, dtype=np.uint8, count=n)
    else:  # P2
        pixels = _p2_samples(memoryview(data)[pos:], n, count)
    if pixels.max() > maxval:
        raise MalformedHeaderError("sample value exceeds declared maxval")
    # a copy: writable, and sharing no memory with `data`
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
    if rows.max() >= n_colors:
        raise MalformedHeaderError("pixel index outside the palette")
    if not top_down:
        rows = rows[::-1]
    return palette[:, 0][rows]


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

def gaussian_smooth(img, sigma: float) -> np.ndarray:
    """Separable Gaussian blur; the image is reflected at its borders.

    sigma=0 is the identity; sigma must lie in [0, MAX_SIGMA]. Output
    values are rounded to the nearest integer and stay inside [0, 255].
    """
    arr = _as_gray(img, stack=True)
    if not 0 <= sigma <= MAX_SIGMA:
        raise ValueError(f"sigma must be in [0, {MAX_SIGMA}], got {sigma}")
    if sigma == 0:
        return arr.copy()
    # normalized 1-D kernel of radius ceil(3 sigma)
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    # 2 sigma^2 may underflow, making the centre 0/0: it is exp(-0) = 1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    k[radius] = 1.0
    k /= k.sum()
    pad = [(0, 0)] * (arr.ndim - 2) + [(radius, radius)] * 2
    padded = np.pad(arr.astype(np.float64), pad, mode="symmetric")
    horiz = sliding_window_view(padded, len(k), axis=-1) @ k
    both = sliding_window_view(horiz, len(k), axis=-2) @ k
    return np.clip(np.rint(both), 0, 255).astype(np.uint8)


def otsu_threshold(img) -> int:
    """Threshold maximizing between-class variance over the 256-bin histogram.

    Pixels <= t form one class, pixels > t the other. Ties pick the smallest
    t; a constant image returns its own value. A stack gets an int64 array
    of one threshold per page.
    """
    arr = _as_gray(img, stack=True)
    pages = arr.reshape(-1, arr.shape[-2] * arr.shape[-1])
    # one bincount for all pages: page i counts its values at 256 i + value
    offsets = np.arange(0, 256 * len(pages), 256)[:, None]
    hist = np.bincount((pages + offsets).ravel(), minlength=256 * len(pages))
    hist = hist.reshape(-1, 256).astype(np.float64)
    # counts and level sums are integers below 2**53: every sum is exact
    w0 = np.cumsum(hist, axis=1)
    sum0 = np.cumsum(hist * np.arange(256), axis=1)
    w1 = w0[:, -1:] - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = sum0 / w0
        mu1 = (sum0[:, -1:] - sum0) / w1
        var_between = w0 * w1 * (mu0 - mu1) ** 2
    var_between[~np.isfinite(var_between)] = 0.0
    constant = (hist > 0).sum(axis=1) == 1
    t = np.where(constant, hist.argmax(axis=1), var_between.argmax(axis=1))
    return int(t[0]) if arr.ndim == 2 else t.reshape(arr.shape[:-2])


def binarize(img, t: int, polarity: str = DARK_INK) -> np.ndarray:
    """Threshold at t; dark-ink maps pixel<=t to 1, light-ink maps pixel>t.
    A stack takes one t for all pages or an array of one t per page."""
    arr = _as_gray(img, stack=True)
    t = np.asarray(t)[..., None, None]
    if not ((0 <= t) & (t <= 255)).all():
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
    square = np.zeros((side, side), dtype=np.uint8)
    top, left = (side - h) // 2, (side - w) // 2
    square[top:top + h, left:left + w] = crop
    idx = np.arange(NORMALIZED_SIZE) * side // NORMALIZED_SIZE
    return square[idx[:, None], idx]


def ink(gray, polarity: str) -> np.ndarray:
    """The ink of a grayscale page, binarized at its Otsu threshold.

    A constant page carries no separable ink, so it is rejected as empty
    rather than letting the degenerate threshold mark everything foreground;
    a stack holding one is rejected whole.
    """
    arr = _as_gray(gray, stack=True)
    if (arr.min(axis=(-2, -1)) == arr.max(axis=(-2, -1))).any():
        raise EmptyImageError("blank page: image is constant")
    return binarize(arr, otsu_threshold(arr), polarity)
