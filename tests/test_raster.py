import struct
import sys

import numpy as np
import pytest

from rwrl.errors import (
    EmptyImageError,
    MalformedHeaderError,
    TruncatedDataError,
    UnsupportedFormatError,
)
from rwrl.raster import (
    DARK_INK,
    LIGHT_INK,
    binarize,
    decode_image,
    encode_pgm,
    gaussian_smooth,
    ink,
    normalize_digit,
    otsu_threshold,
)

from oracle_utils import (
    dense_gaussian_reference,
    encode_pgm_ascii,
    reference_normalize,
    sweep_otsu_reference,
)


def make_bmp(pixels: np.ndarray, palette_rgb=None, bitcount=8,
             compression=0) -> bytes:
    """Hand-rolled bottom-up 8-bit BMP encoder for test inputs."""
    h, w = pixels.shape
    if palette_rgb is None:
        palette_rgb = [(v, v, v) for v in range(256)]
    palette = b"".join(struct.pack("<BBBB", b, g, r, 0)
                       for r, g, b in palette_rgb)
    row_size = (w + 3) // 4 * 4
    raster = b"".join(
        pixels[r].tobytes() + b"\x00" * (row_size - w)
        for r in range(h - 1, -1, -1))
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, bitcount, compression,
                      len(raster), 2835, 2835, len(palette_rgb), 0)
    offset = 14 + len(dib) + len(palette)
    header = struct.pack("<2sIHHI", b"BM", offset + len(raster), 0, 0, offset)
    return header + dib + palette + raster


TOO_LONG_INTEGERS = pytest.mark.parametrize("data", [
    b"P5 " + b"1" * 5000 + b" 1 255\n\x00",
    b"P2 1 1 255\n" + b"0" * 5000 + b"1",
    b"P2 1 1 255\n" + b"0" * 4300 + b"7",
], ids=["p5-width", "p2-sample", "p2-4301-digits"])


class TestDecode:
    def test_binary_graymap(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])
        img = decode_image(data)
        assert img.shape == (2, 2)
        assert img.tolist() == [[0, 255], [255, 0]]

    def test_ascii_graymap(self):
        img = decode_image(b"P2 1 1 255 128")
        assert img.shape == (1, 1)
        assert img[0, 0] == 128

    def test_header_comments(self):
        img = decode_image(b"P2 # comment\n2 1 # another\n255\n7 9")
        assert img.tolist() == [[7, 9]]

    @pytest.mark.parametrize("data", [
        b"P2 2 1 255\n7 # comment 8\n9",     # comment inside the raster
        b"P2 2 1 255\n7#c\n9",               # comment glued to a sample
        b"P2 2 1 255#c\n7 9",                # comment glued to maxval
        b"P2 2 1 255\n7\r\n# a\r# b\n\t9",   # CR ends a comment too
        b"P2 2 1 255\n7 9 11 x # trailing",  # tokens past the raster
    ])
    def test_ascii_raster_tokens(self, data):
        assert decode_image(data).tolist() == [[7, 9]]

    @pytest.mark.parametrize("data", [
        b"P2 2 1 255\n7 # 9",
        b"P2 2 1 255\n7#9",
    ])
    def test_commented_out_sample_is_missing(self, data):
        with pytest.raises(TruncatedDataError):
            decode_image(data)

    def test_non_numeric_ascii_sample(self):
        # int() accepts a sign or an underscore; PGM integers are ASCII digits
        for data in (b"P2 2 1 255\n7 x9", b"P2\n2 1\n255\n+3 1_0",
                     b"P2 2 1 255\n7 +9", b"P2 2 1 255\n7 1_0",
                     b"P2 0_2 1 255\n7 9", b"P2 2 +1 255\n7 9",
                     b"P2 2 1 2_55\n7 9", b"P5 +2 1 255\n\x07\x09"):
            with pytest.raises(MalformedHeaderError):
                decode_image(data)

    def test_empty_input(self):
        with pytest.raises(MalformedHeaderError):
            decode_image(b"")

    def test_unknown_magic(self):
        with pytest.raises(MalformedHeaderError):
            decode_image(b"XY whatever")

    def test_color_pixmap_rejected(self):
        with pytest.raises(UnsupportedFormatError):
            decode_image(b"P3 1 1 255 1 2 3")

    def test_wide_maxval_rejected(self):
        with pytest.raises(UnsupportedFormatError):
            decode_image(b"P2 1 1 65535 300")

    def test_truncated_binary_body(self):
        with pytest.raises(TruncatedDataError):
            decode_image(b"P5\n2 2\n255\n" + bytes([0, 255]))

    def test_truncated_ascii_body(self):
        with pytest.raises(TruncatedDataError):
            decode_image(b"P2 2 2 255 0 255")

    def test_ascii_sample_count_past_bytes(self):
        # 2**64 samples: more than the body's bytes, and past what
        # bytes.split can count
        with pytest.raises(TruncatedDataError, match="samples"):
            decode_image(b"P2 4294967296 4294967296 255\n0 1 2\n")

    def test_sample_above_maxval(self):
        with pytest.raises(MalformedHeaderError):
            decode_image(b"P2 1 1 100 101")

    @pytest.mark.parametrize("sample", [b"-1", b"99999999999999999999"])
    def test_ascii_sample_outside_range(self, sample):
        with pytest.raises(MalformedHeaderError):
            decode_image(b"P2 1 1 100 " + sample)

    @TOO_LONG_INTEGERS
    def test_integer_too_long_to_convert(self, data):
        # a PGM integer has at most 4300 digits, leading zeros counted
        with pytest.raises(MalformedHeaderError, match="too long"):
            decode_image(data)

    @TOO_LONG_INTEGERS
    def test_digit_limit_does_not_follow_the_interpreter(self, data):
        # with int()'s own limit off, the 4300-digit rule still holds
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int() digit limit")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(MalformedHeaderError, match="too long"):
                decode_image(data)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("sample, value", [
        (b"0000000255", 255),
        (b"0" * 4299 + b"7", 7),
        (b"00", 0),
        (b"099", 99),
    ])
    def test_leading_zeros_do_not_count_toward_the_value(self, sample, value):
        assert decode_image(b"P2 1 1 255\n" + sample).tolist() == [[value]]

    @pytest.mark.parametrize("sample", [b"0256", b"1000", b"0001000",
                                        b"99999"])
    def test_sample_above_maxval_with_any_digit_count(self, sample):
        with pytest.raises(MalformedHeaderError, match="maxval"):
            decode_image(b"P2 1 1 255\n" + sample)

    def test_body_ending_on_the_last_digit(self):
        assert decode_image(b"P2 3 1 255\n1 22 255").tolist() == [[1, 22, 255]]

    def test_truncation_is_checked_before_digits(self):
        with pytest.raises(TruncatedDataError):
            decode_image(b"P2 3 1 255\n7 x")

    @pytest.mark.parametrize("data", [
        b"P5 1 12 ",        # two fields: 12 must not split into 1 and 2
        b"P2 1 12\n",
        b"P2 1 #2 3\n",     # a comment lends no digits to a field
    ])
    def test_truncated_header_is_malformed(self, data):
        with pytest.raises(MalformedHeaderError):
            decode_image(data)

    def test_binary_graymap_without_separator(self):
        with pytest.raises(MalformedHeaderError, match="separator"):
            decode_image(b"P5 1 1 255")

    @pytest.mark.parametrize("size", [2, 53])
    def test_bmp_shorter_than_its_header(self, size):
        data = make_bmp(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(MalformedHeaderError, match="header truncated"):
            decode_image(data[:size])

    def test_bmp_oversized_palette_rejected(self):
        pixels = np.zeros((2, 2), dtype=np.uint8)
        palette = [(v % 256,) * 3 for v in range(300)]
        with pytest.raises(MalformedHeaderError):
            decode_image(make_bmp(pixels, palette_rgb=palette))

    def test_bmp_roundtrip(self):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        assert np.array_equal(decode_image(make_bmp(pixels)), pixels)

    def test_bmp_row_padding(self):
        pixels = np.arange(15, dtype=np.uint8).reshape(3, 5)
        assert np.array_equal(decode_image(make_bmp(pixels)), pixels)

    def test_bmp_color_palette_rejected(self):
        pixels = np.zeros((2, 2), dtype=np.uint8)
        palette = [(255, 0, 0)] + [(v, v, v) for v in range(255)]
        with pytest.raises(UnsupportedFormatError):
            decode_image(make_bmp(pixels, palette_rgb=palette))

    def test_bmp_wrong_depth_rejected(self):
        pixels = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(UnsupportedFormatError):
            decode_image(make_bmp(pixels, bitcount=24))

    def test_bmp_compressed_rejected(self):
        pixels = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(UnsupportedFormatError):
            decode_image(make_bmp(pixels, compression=1))

    def test_bmp_truncated(self):
        data = make_bmp(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(TruncatedDataError):
            decode_image(data[:-8])

    def test_pgm_roundtrip_both_variants(self):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, size=(9, 6), dtype=np.uint8)
        assert np.array_equal(decode_image(encode_pgm(img)), img)
        assert np.array_equal(
            decode_image(encode_pgm_ascii(img)), img)


class TestGaussian:
    def test_constant_image_unchanged(self):
        img = np.full((5, 9), 100, dtype=np.uint8)
        for sigma in (0.3, 1.0, 2.5):
            assert np.array_equal(gaussian_smooth(img, sigma), img)

    def test_sigma_zero_identity(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        assert np.array_equal(gaussian_smooth(img, 0.0), img)

    def test_impulse_center_value(self):
        img = np.zeros((7, 7), dtype=np.uint8)
        img[3, 3] = 255
        out = gaussian_smooth(img, 1.0)
        # round(255 * k(0)^2) with the normalized radius-3 kernel
        assert out[3, 3] == 41
        assert np.array_equal(out, dense_gaussian_reference(img, 1.0))

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(5)
        for sigma in (0.6, 1.0, 1.7):
            img = rng.integers(0, 256, size=(10, 12), dtype=np.uint8)
            assert np.array_equal(gaussian_smooth(img, sigma),
                                  dense_gaussian_reference(img, sigma))

    def test_output_within_input_range(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            img = rng.integers(40, 200, size=(9, 9), dtype=np.uint8)
            out = gaussian_smooth(img, rng.uniform(0.2, 3.0))
            assert out.min() >= img.min()
            assert out.max() <= img.max()

    @pytest.mark.parametrize("sigma", [-1.0, 64.5, 1e300, float("inf"),
                                       float("nan")])
    def test_negative_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            gaussian_smooth(np.zeros((3, 3), dtype=np.uint8), sigma)


class TestOtsu:
    def test_constant_image_returns_its_value(self):
        img = np.full((4, 4), 77, dtype=np.uint8)
        assert otsu_threshold(img) == 77

    def test_bimodal_histogram(self):
        img = np.array([50] * 100 + [200] * 100, dtype=np.uint8).reshape(20, 10)
        t = otsu_threshold(img)
        assert t == 50  # frozen from the exhaustive sweep
        assert t == sweep_otsu_reference(img)
        assert 50 <= t < 200

    def test_two_valued_image(self):
        img = np.array([0, 255] * 32, dtype=np.uint8).reshape(8, 8)
        t = otsu_threshold(img)
        assert t == sweep_otsu_reference(img)
        assert 0 <= t <= 254
        lit = binarize(img, t, LIGHT_INK)
        assert np.array_equal(lit, (img == 255).astype(np.uint8))

    def test_matches_sweep_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            img = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
            assert otsu_threshold(img) == sweep_otsu_reference(img)

    def test_binarize_separates_two_values(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            lo, hi = sorted(rng.choice(256, size=2, replace=False))
            img = rng.choice([lo, hi], size=(10, 10)).astype(np.uint8)
            if img.min() == img.max():
                continue
            out = binarize(img, otsu_threshold(img), DARK_INK)
            assert set(out[img == lo].tolist()) == {1}
            assert set(out[img == hi].tolist()) == {0}


class TestBinarize:
    def test_all_bright_dark_ink(self):
        img = np.full((3, 3), 255, dtype=np.uint8)
        assert binarize(img, 128, DARK_INK).sum() == 0

    def test_all_dark_dark_ink(self):
        img = np.zeros((3, 3), dtype=np.uint8)
        assert binarize(img, 128, DARK_INK).sum() == 9

    def test_pair(self):
        img = np.array([[0, 255]], dtype=np.uint8)
        assert binarize(img, 128, DARK_INK).tolist() == [[1, 0]]
        assert binarize(img, 128, LIGHT_INK).tolist() == [[0, 1]]

    def test_bad_polarity(self):
        with pytest.raises(ValueError):
            binarize(np.zeros((2, 2), dtype=np.uint8), 128, "sideways")


class TestInk:
    @pytest.mark.parametrize("value", [0, 128, 255])
    @pytest.mark.parametrize("polarity", [DARK_INK, LIGHT_INK])
    def test_constant_page_is_empty(self, value, polarity):
        with pytest.raises(EmptyImageError, match="constant"):
            ink(np.full((64, 64), value, dtype=np.uint8), polarity)

    @pytest.mark.parametrize("polarity", [DARK_INK, LIGHT_INK])
    def test_binarizes_at_otsu_threshold(self, polarity):
        img = np.random.default_rng(4).integers(0, 256, size=(12, 9),
                                                 dtype=np.uint8)
        assert np.array_equal(ink(img, polarity),
                              binarize(img, otsu_threshold(img), polarity))


class TestNormalize:
    def test_full_foreground_unchanged(self):
        img = np.ones((64, 64), dtype=np.uint8)
        assert np.array_equal(normalize_digit(img), img)

    def test_single_pixel_fills(self):
        img = np.zeros((40, 50), dtype=np.uint8)
        img[13, 29] = 1
        assert normalize_digit(img).sum() == 64 * 64

    def test_square_block_fills(self):
        img = np.zeros((100, 100), dtype=np.uint8)
        img[10:42, 20:52] = 1
        assert normalize_digit(img).sum() == 64 * 64

    def test_tall_block_matches_reference(self):
        img = np.zeros((100, 100), dtype=np.uint8)
        img[30:46, 10:42] = 1  # 16 rows x 32 cols
        out = normalize_digit(img)
        ref = reference_normalize(img)
        assert np.array_equal(out, ref)
        # rows pad evenly: 8 above + 8 below before the 2x upscale
        assert np.array_equal(np.flatnonzero(out.any(axis=1)),
                              np.arange(16, 48))
        assert out[:, 0].any() and out[:, 63].any()

    def test_random_inputs_match_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            img = (rng.random((rng.integers(5, 80), rng.integers(5, 80)))
                   < 0.2).astype(np.uint8)
            if not img.any():
                continue
            out = normalize_digit(img)
            assert out.shape == (64, 64)
            assert out.any()
            assert np.array_equal(out, reference_normalize(img))

    def test_empty_image_raises(self):
        with pytest.raises(EmptyImageError):
            normalize_digit(np.zeros((10, 10), dtype=np.uint8))

    def test_odd_padding_goes_bottom_right(self):
        img = np.zeros((9, 9), dtype=np.uint8)
        img[2:5, 2:6] = 1  # 3 rows x 4 cols -> pad rows by 1: 0 above, 1 below
        out = normalize_digit(img)
        top_fg = np.flatnonzero(out.any(axis=1))
        assert top_fg[0] == 0  # no padding above
        assert top_fg[-1] < 63  # the extra background row lands below


class TestImageValues:
    """A library image function takes integers in 0..255 of any dtype and
    refuses other values rather than wrapping them to uint8."""

    def test_gray_value_above_255_rejected(self):
        page = np.zeros((8, 8), dtype=np.int64)
        page[2:5, 2:5] = 300
        with pytest.raises(ValueError, match="0..255"):
            gaussian_smooth(page, 1.0)

    def test_binary_value_256_rejected(self):
        page = np.zeros((8, 8), dtype=np.int64)
        page[2:5, 2:5] = 256
        with pytest.raises(ValueError, match="0..255"):
            normalize_digit(page)

    @pytest.mark.parametrize("page", [
        np.linspace(0.1, 0.9, 64).reshape(8, 8),
        np.full((8, 8), -1),
        np.full((8, 8), np.nan),
        np.full((8, 8), np.inf),
    ], ids=["fractions", "negative", "nan", "inf"])
    @pytest.mark.parametrize("apply", [
        lambda a: gaussian_smooth(a, 1.0),
        otsu_threshold,
        lambda a: binarize(a, 128),
        lambda a: ink(a, DARK_INK),
        encode_pgm,
    ], ids=["smooth", "otsu", "binarize", "ink", "encode"])
    def test_values_outside_uint8_rejected(self, page, apply):
        with pytest.raises(ValueError, match="0..255"):
            apply(page)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.uint16])
    def test_integer_values_of_any_dtype_read_as_uint8(self, dtype):
        page = np.random.default_rng(9).integers(0, 256, size=(12, 9),
                                                  dtype=np.uint8)
        assert np.array_equal(gaussian_smooth(page.astype(dtype), 1.0),
                              gaussian_smooth(page, 1.0))
        assert np.array_equal(ink(page.astype(dtype), DARK_INK),
                              ink(page, DARK_INK))
        bits = ink(page, DARK_INK)
        assert np.array_equal(normalize_digit(bits.astype(bool)),
                              normalize_digit(bits))
