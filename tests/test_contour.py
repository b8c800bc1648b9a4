import numpy as np
import pytest

from rwrl.errors import WrongDimensionsError
from rwrl.features import extract_contour


def blank():
    return np.zeros((64, 64), dtype=np.uint8)


def test_single_pixel_is_its_own_contour():
    img = blank()
    img[30, 30] = 1
    assert np.array_equal(extract_contour(img), img)


def test_solid_block_keeps_border_only():
    img = blank()
    img[10:13, 20:23] = 1
    out = extract_contour(img)
    assert out.sum() == 8
    assert out[11, 21] == 0  # the center has four foreground neighbors


def test_full_image_gives_frame():
    out = extract_contour(np.ones((64, 64), dtype=np.uint8))
    assert out.sum() == 4 * 64 - 4
    assert out[0].all() and out[-1].all()
    assert out[:, 0].all() and out[:, -1].all()
    assert not out[1:-1, 1:-1].any()


@pytest.mark.parametrize("stroke", ["horizontal", "vertical", "diagonal", "ell"])
def test_thin_strokes_are_fixed_points(stroke):
    img = blank()
    if stroke == "horizontal":
        img[20, 5:40] = 1
    elif stroke == "vertical":
        img[5:40, 20] = 1
    elif stroke == "diagonal":
        for i in range(30):
            img[10 + i, 10 + i] = 1
    else:
        img[10:30, 10] = 1
        img[29, 10:30] = 1
    assert np.array_equal(extract_contour(img), img)


def test_contour_subset_with_background_neighbor():
    rng = np.random.default_rng(17)
    for _ in range(10):
        img = (rng.random((64, 64)) < 0.4).astype(np.uint8)
        out = extract_contour(img)
        assert out.sum() <= img.sum()
        assert not (out & ~img & 1).any()  # contour within foreground
        padded = np.pad(img, 1)
        for r, c in zip(*np.nonzero(out)):
            neighbors = [padded[r, c + 1], padded[r + 2, c + 1],
                         padded[r + 1, c], padded[r + 1, c + 2]]
            assert min(neighbors) == 0


def test_interior_pixels_removed():
    rng = np.random.default_rng(18)
    img = (rng.random((64, 64)) < 0.7).astype(np.uint8)
    out = extract_contour(img)
    padded = np.pad(img, 1)
    for r, c in zip(*np.nonzero(img & (1 - out))):
        neighbors = [padded[r, c + 1], padded[r + 2, c + 1],
                     padded[r + 1, c], padded[r + 1, c + 2]]
        assert min(neighbors) == 1


def test_wrong_size_rejected():
    with pytest.raises(WrongDimensionsError):
        extract_contour(np.ones((32, 32), dtype=np.uint8))


def test_non_binary_page_rejected():
    # a 0/255 page is grayscale: read as uint8 0/1 it would have no contour
    img = np.zeros((64, 64), dtype=np.uint8)
    img[20:40, 20:40] = 255
    with pytest.raises(ValueError, match="0 or 1"):
        extract_contour(img)


def test_shape_checked_before_values():
    with pytest.raises(WrongDimensionsError):
        extract_contour(np.full((32, 32), 255, dtype=np.uint8))


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
def test_binary_values_of_any_dtype(dtype):
    img = (np.random.default_rng(6).random((64, 64)) < 0.5).astype(np.uint8)
    assert np.array_equal(extract_contour(img.astype(dtype)),
                          extract_contour(img))
