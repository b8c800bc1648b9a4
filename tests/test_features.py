import numpy as np
import pytest

from rwrl.errors import (
    FeatureFileError,
    LengthMismatchError,
    WrongDimensionsError,
)
from rwrl.features import (
    DIRECTIONS,
    FEATURE_DIM,
    NUM_WINDOWS,
    WEIGHT_MAP,
    Direction,
    extract_features,
    read_feature_file,
    scale_features,
    write_feature_file,
)

from oracle_utils import (
    NotForegroundError,
    brute_window_feature,
    enumerate_run_lengths,
    region_of,
    region_weight,
    run_length_at,
    window_feature,
    window_grid,
)


class TestWindowGrid:
    def test_count(self):
        assert len(window_grid()) == NUM_WINDOWS == 49

    def test_first_and_last_origin(self):
        grid = window_grid()
        assert (grid[0].row, grid[0].col) == (0, 0)
        assert (grid[-1].row, grid[-1].col) == (48, 48)

    def test_row_major_stride8(self):
        grid = window_grid()
        assert [(w.row, w.col) for w in grid[:8]] == [
            (0, 0), (0, 8), (0, 16), (0, 24), (0, 32), (0, 40), (0, 48),
            (8, 0)]


class TestRegions:
    def test_examples(self):
        assert region_of(7, 7) == 1
        assert region_of(4, 4) == 2
        assert region_of(0, 15) == 4
        assert region_of(2, 8) == 3

    def test_partition_and_sizes(self):
        sizes = {1: 0, 2: 0, 3: 0, 4: 0}
        for r in range(16):
            for c in range(16):
                sizes[region_of(r, c)] += 1
        assert sizes == {1: 16, 2: 48, 3: 80, 4: 112}

    def test_weights(self):
        assert [region_weight(i) for i in (1, 2, 3, 4)] == [8, 4, 2, 1]
        assert WEIGHT_MAP[7, 7] == 8
        assert WEIGHT_MAP[0, 0] == 1
        assert int(WEIGHT_MAP.sum()) == 8 * 16 + 4 * 48 + 2 * 80 + 1 * 112
        for r in range(16):
            for c in range(16):
                assert WEIGHT_MAP[r, c] == region_weight(region_of(r, c))

    def test_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            region_of(16, 0)


class TestRunLengthAt:
    def test_isolated_pixel(self):
        w = np.zeros((16, 16), dtype=np.uint8)
        w[4, 12] = 1
        for d in DIRECTIONS:
            assert run_length_at(w, (4, 12), d) == 1

    def test_horizontal_run(self):
        w = np.zeros((16, 16), dtype=np.uint8)
        w[7, 6:9] = 1
        assert run_length_at(w, (7, 7), Direction.HORIZONTAL) == 3
        assert run_length_at(w, (7, 7), Direction.VERTICAL) == 1

    def test_anti_diagonal_chain(self):
        w = np.zeros((16, 16), dtype=np.uint8)
        for r, c in [(5, 10), (6, 9), (7, 8)]:
            w[r, c] = 1
        assert run_length_at(w, (6, 9), Direction.DIAG_PLUS45) == 3
        assert run_length_at(w, (6, 9), Direction.DIAG_MINUS45) == 1

    def test_clipped_at_border(self):
        w = np.ones((16, 16), dtype=np.uint8)
        assert run_length_at(w, (0, 0), Direction.HORIZONTAL) == 16
        assert run_length_at(w, (5, 10), Direction.DIAG_MINUS45) == 11

    def test_background_pixel_rejected(self):
        w = np.zeros((16, 16), dtype=np.uint8)
        with pytest.raises(NotForegroundError):
            run_length_at(w, (3, 3), Direction.HORIZONTAL)


class TestWindowFeature:
    def test_empty_window(self):
        w = np.zeros((16, 16), dtype=np.uint8)
        for d in DIRECTIONS:
            assert window_feature(w, d) == 0

    def test_central_run(self):
        w = np.zeros((16, 16), dtype=np.uint8)
        w[7, 6:9] = 1
        assert window_feature(w, Direction.HORIZONTAL) == 72
        assert window_feature(w, Direction.VERTICAL) == 24

    def test_full_width_run(self):
        w = np.zeros((16, 16), dtype=np.uint8)
        w[7, :] = 1
        assert window_feature(w, Direction.HORIZONTAL) == 960

    def test_matches_brute_force(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            w = (rng.random((16, 16)) < rng.uniform(0.05, 0.95)).astype(np.uint8)
            for d in DIRECTIONS:
                assert window_feature(w, d) == brute_window_feature(w, d)

    def test_agrees_with_per_pixel_walker(self):
        rng = np.random.default_rng(102)
        w = (rng.random((16, 16)) < 0.4).astype(np.uint8)
        for d in DIRECTIONS:
            runs = enumerate_run_lengths(w, d)
            for r, c in zip(*np.nonzero(w)):
                assert runs[r, c] == run_length_at(w, (r, c), d)

    def test_monotone_in_foreground(self):
        rng = np.random.default_rng(103)
        for _ in range(30):
            w = (rng.random((16, 16)) < 0.3).astype(np.uint8)
            before = [window_feature(w, d) for d in DIRECTIONS]
            empty = np.argwhere(w == 0)
            r, c = empty[rng.integers(len(empty))]
            w[r, c] = 1
            after = [window_feature(w, d) for d in DIRECTIONS]
            assert all(b <= a for b, a in zip(before, after))

    def test_crude_upper_bound(self):
        w = np.ones((16, 16), dtype=np.uint8)
        for d in DIRECTIONS:
            assert window_feature(w, d) <= 8 * 16 * 16 * 16

    def test_wrong_shape_rejected(self):
        with pytest.raises(WrongDimensionsError):
            window_feature(np.ones((8, 8), dtype=np.uint8),
                           Direction.HORIZONTAL)


class TestExtractFeatures:
    def test_blank_image(self):
        out = extract_features(np.zeros((64, 64), dtype=np.uint8))
        assert out.shape == (FEATURE_DIM,)
        assert not out.any()

    def test_length_and_nonnegative(self):
        rng = np.random.default_rng(104)
        out = extract_features((rng.random((64, 64)) < 0.2).astype(np.uint8))
        assert out.shape == (196,)
        assert (out >= 0).all()

    def test_deterministic(self):
        rng = np.random.default_rng(105)
        img = (rng.random((64, 64)) < 0.2).astype(np.uint8)
        assert np.array_equal(extract_features(img), extract_features(img.copy()))

    def test_window_ordering_matches_window_feature(self):
        rng = np.random.default_rng(106)
        img = (rng.random((64, 64)) < 0.25).astype(np.uint8)
        out = extract_features(img)
        for n, win in enumerate(window_grid()):
            patch = img[win.row:win.row + 16, win.col:win.col + 16]
            for k, d in enumerate(DIRECTIONS):
                assert out[4 * n + k] == window_feature(patch, d)

    def test_every_window_matches_brute_force(self):
        rng = np.random.default_rng(109)
        images = [(rng.random((64, 64)) < p).astype(np.uint8)
                  for p in (0.05, 0.3, 0.7)]
        images += [np.ones((64, 64), dtype=np.uint8),
                    np.eye(64, dtype=np.uint8),
                    np.fliplr(np.eye(64, dtype=np.uint8))]
        for img in images:
            out = extract_features(img)
            for n, win in enumerate(window_grid()):
                patch = img[win.row:win.row + 16, win.col:win.col + 16]
                for k, d in enumerate(DIRECTIONS):
                    assert out[4 * n + k] == brute_window_feature(patch, d)

    def test_translation_permutes_blocks(self):
        rng = np.random.default_rng(107)
        img = np.zeros((64, 64), dtype=np.uint8)
        img[:56, :56] = (rng.random((56, 56)) < 0.2).astype(np.uint8)
        moved = np.zeros_like(img)
        moved[8:, 8:] = img[:-8, :-8]
        base = extract_features(img).reshape(7, 7, 4)
        shifted = extract_features(moved).reshape(7, 7, 4)
        assert np.array_equal(shifted[1:, 1:], base[:-1, :-1])

    def test_wrong_size_rejected(self):
        with pytest.raises(WrongDimensionsError):
            extract_features(np.zeros((32, 32), dtype=np.uint8))


class TestScaleFeatures:
    def test_mean_maps_to_zero(self):
        v = np.arange(5, dtype=float)
        assert not scale_features(v, v, np.ones(5)).any()

    def test_zero_std_maps_to_zero(self):
        v = np.arange(5, dtype=float)
        assert not scale_features(v, np.zeros(5), np.zeros(5)).any()

    def test_simple_scaling(self):
        out = scale_features(np.full(4, 2.0), np.zeros(4), np.full(4, 2.0))
        assert np.array_equal(out, np.ones(4))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            scale_features(np.ones(4), np.ones(3), np.ones(3))


class TestFeatureFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(108)
        X = rng.integers(0, 500, size=(12, 196))
        y = rng.integers(0, 10, size=12)
        path = tmp_path / "features.txt"
        write_feature_file(path, y, X)
        first = path.read_text().splitlines()[0]
        assert first == "#rwrl-v1,dim=196"
        labels, matrix = read_feature_file(path)
        assert np.array_equal(labels, y)
        assert np.array_equal(matrix, X)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,2,3\n")
        with pytest.raises(FeatureFileError):
            read_feature_file(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#rwrl-v1,dim=3\n1,1,2,3\n2,1,2\n")
        with pytest.raises(FeatureFileError):
            read_feature_file(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#rwrl-v1,dim=2\n1,x,3\n")
        with pytest.raises(FeatureFileError):
            read_feature_file(path)

    @pytest.mark.parametrize("data", [
        b"#rwrl-v1,dim=2\n0,1,2\n1,nan,3\n",
        b"#rwrl-v1,dim=2\n0,1,2\n1,inf,3\n",
        b"#rwrl-v1,dim=2\n0,1,2\n1,2,-inf\n",
        b"#rwrl-v1,dim=2\n0,1,2\n99999999999999999999,2,3\n",
        b"#rwrl-v1,dim=2\n0,1,2\n1,2,\xb53\n",
        b"#rwrl-v1,dim=0\n0\n1\n",
        b"#rwrl-v1,dim=-1\n",
    ], ids=["nan", "inf", "-inf", "huge-label", "non-ascii", "dim-0",
            "dim-negative"])
    def test_bad_contents_rejected(self, tmp_path, data):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(FeatureFileError):
            read_feature_file(path)
