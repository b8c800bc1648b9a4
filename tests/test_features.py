import tracemalloc

import numpy as np
import pytest

from rwrl.errors import (
    DimensionMismatchError,
    EmptyDataError,
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
    _features,
    extract_contour,
    extract_features,
)
from rwrl.knn import knn_predict_batch, knn_train
from rwrl.reader import read_feature_file
from rwrl.rows import (
    format_rows,
    scale_features,
    training_rows,
    write_feature_file,
)
from rwrl.svm import (
    KernelParams,
    svm_decision_table,
    svm_predict_batch,
    svm_train,
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

    def test_negative_std(self):
        with pytest.raises(ValueError):
            scale_features(np.ones(3), np.zeros(3), np.array([1.0, -1.0, 1.0]))


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

    def test_float_rows_roundtrip_exactly(self, tmp_path):
        X = np.array([[0.1, -2.5, 1e300, 5e-324], [1 / 3, -1e-300, 7.0, 0.0]])
        path = tmp_path / "floats.txt"
        write_feature_file(path, [1, 2], X)
        assert path.read_text().splitlines()[2].startswith("2,0.3333")
        assert np.array_equal(read_feature_file(path)[1], X)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_not_written(self, tmp_path, value):
        path = tmp_path / "features.txt"
        with pytest.raises(FeatureFileError):
            write_feature_file(path, [0, 1], [[value, 1.0], [2.0, 3.0]])
        assert not path.exists()

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [np.nan, 1.0],
                                        [0.0, 2.0 ** 63], [0, 2 ** 64],
                                        ["0", "1"], [None, 1]],
                             ids=["fractions", "nan", "2**63", "int 2**64",
                                  "text", "None"])
    def test_label_outside_int64_not_written(self, tmp_path, labels):
        # the rule training_rows applies: a label must equal its int64 value
        path = tmp_path / "features.txt"
        with pytest.raises(FeatureFileError):
            write_feature_file(path, labels, np.zeros((2, 3)))
        assert not path.exists()

    def test_int64_labels_roundtrip(self, tmp_path):
        y = np.array([-2 ** 63, 2 ** 63 - 1, 0])
        path = tmp_path / "features.txt"
        write_feature_file(path, y, np.zeros((3, 2)))
        assert np.array_equal(read_feature_file(path)[0], y)
        write_feature_file(path, [3.0, -0.0, 2.0 ** 62], np.zeros((3, 2)))
        assert read_feature_file(path)[0].tolist() == [3, 0, 2 ** 62]

    def test_fewer_labels_than_rows_not_written(self, tmp_path):
        path = tmp_path / "features.txt"
        with pytest.raises(LengthMismatchError):
            write_feature_file(path, [0], np.zeros((2, 3)))
        assert not path.exists()

    def test_label_column_not_written(self, tmp_path):
        path = tmp_path / "features.txt"
        with pytest.raises(LengthMismatchError):
            write_feature_file(path, [[0], [1]], np.zeros((2, 3)))
        assert not path.exists()

    def test_ragged_rows_not_written(self, tmp_path):
        path = tmp_path / "features.txt"
        with pytest.raises(LengthMismatchError):
            write_feature_file(path, [0, 1], [np.zeros(3), np.zeros(2)])
        assert not path.exists()

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
        # the header is exactly `#rwrl-v1,dim=<digits>`, and a label is
        # ASCII digits after an optional minus sign, as in model files
        b"#rwrl-v12junk,dim=2\n0,1,2\n",
        b"#rwrl-v1 junk dim=2\n0,1,2\n",
        b"#rwrl-v1,dim=+2\n0,1,2\n",
        b"#rwrl-v1,dim= 2\n0,1,2\n",
        b"#rwrl-v1,dim=2\n+3,1,2\n",
        b"#rwrl-v1,dim=2\n1_0,1,2\n",
        b"#rwrl-v1,dim=2\n 3,1,2\n4 ,1,2\n",
        b"#rwrl-v1,dim=" + b"9" * 5000 + b"\n0,1\n",
        b"#rwrl-v1,dim=1\n" + b"9" * 5000 + b",1\n",
        # a value is what float() reads from the bytes 0-9 . e + - alone
        b"#rwrl-v1,dim=2\n0,1_0,2\n",
        b"#rwrl-v1,dim=2\n0,1, 2\n",
        b"#rwrl-v1,dim=2\n0,1E5,2\n",
        b"#rwrl-v1,dim=2\n0,1,Infinity\n",
        b"#rwrl-v1,dim=2\n0,-nan,2\n",
        b"#rwrl-v1,dim=2\n0,0x1p3,2\n",
        b"#rwrl-v1,dim=2\n0,1e999,2\n",
        b"#rwrl-v1,dim=2\n0,1,\xd9\xa1\n",
        # a short row is found before anything of `dim` values is allocated
        b"#rwrl-v1,dim=1000000000000\n0,1\n",
    ], ids=["nan", "inf", "-inf", "huge-label", "non-ascii", "dim-0",
            "dim-negative", "version-suffix", "no-comma", "plus-dim",
            "spaced-dim", "plus-label", "underscore-label", "spaced-label",
            "dim-5000-digits", "label-5000-digits", "underscore-value",
            "spaced-value", "upper-exponent", "infinity", "minus-nan",
            "hex-float", "overflow-to-inf", "arabic-indic-digit",
            "dim-10^12-short-row"])
    def test_bad_contents_rejected(self, tmp_path, data):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(FeatureFileError):
            read_feature_file(path)

    @pytest.mark.parametrize("label, value", [
        (b"0" * 700 + b"3", 3),
        (b"-" + b"0" * 4299 + b"3", -3),
        (b"0" * 4300 + b"3", None),
        (b"0" * 5000 + b"3", None),
        (b"9223372036854775808", None),     # 19 digits, one past int64
        (b"-9223372036854775809", None),
    ], ids=["700-zeros", "4300-digits", "4301-digits", "5001-digits",
            "past-int64", "below-int64"])
    def test_label_digits_do_not_follow_the_interpreter(
            self, tmp_path, int_digit_limit, label, value):
        # at most 4300 digits, leading zeros counted, then int64
        path = tmp_path / "labels.txt"
        path.write_bytes(b"#rwrl-v1,dim=1\n" + label + b",1\n")
        if value is None:
            with pytest.raises(FeatureFileError, match="out of range"):
                read_feature_file(path)
        else:
            assert read_feature_file(path)[0].tolist() == [value]

    def test_float_spellings_load_as_float_reads_them(self, tmp_path):
        path = tmp_path / "spellings.txt"
        path.write_text("#rwrl-v1,dim=4\n0,+3,.5,5.,1e5\n1,-0,-.5e-3,1e+2,7\n")
        _, X = read_feature_file(path)
        assert X.tolist() == [[3.0, 0.5, 5.0, 1e5], [-0.0, -5e-4, 100.0, 7.0]]
        assert np.signbit(X[1, 0])

    def test_negative_label_loads(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("#rwrl-v1,dim=1\n-3,1\n-0,2\n")
        labels, _ = read_feature_file(path)
        assert labels.tolist() == [-3, 0]


class TestFeatureFileRoundTrip:
    """Seeded property: what `write_feature_file` accepts,
    `read_feature_file` returns equal; what the reader would refuse, the
    writer refuses first and leaves no file behind."""

    @staticmethod
    def draw(rng) -> tuple[np.ndarray, np.ndarray]:
        rows = int(rng.choice([0, 1, 2, 9]))
        shape = (rows, int(rng.choice([1, 2, 5, FEATURE_DIM])))
        labels = rng.integers(-2 ** 63, 2 ** 63, size=rows, dtype=np.int64)
        kind = rng.integers(3)
        if kind == 0:       # integers up to 2**53, which floats hold exactly
            X = rng.integers(-2 ** 53, 2 ** 53, size=shape, endpoint=True)
        else:
            X = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
            if kind == 2:   # integral floats past 2**53 too
                X = np.round(X * 10.0 ** -rng.integers(280, 300, shape))
                labels = labels.astype(np.float64) // 2 ** 11
            X[rng.random(shape) < 0.2] = -0.0
        return labels, X

    def test_accepted_rows_read_back_equal(self, tmp_path):
        rng = np.random.default_rng(270)
        path = tmp_path / "features.txt"
        for case in range(60):
            labels, X = self.draw(rng)
            # a matrix, or its rows as they are when it has any
            for features in (X, list(X))[:1 + bool(len(X))]:
                write_feature_file(path, labels, features)
                y, read = read_feature_file(path)
                assert np.array_equal(y, labels), case
                assert read.shape == X.shape and np.array_equal(read, X), case

    @pytest.mark.parametrize("where, value", [
        ("width", 0), ("value", np.nan), ("value", np.inf),
        ("value", -np.inf), ("label", 0.5), ("label", np.nan),
        ("label", 2.0 ** 63)])
    def test_refused_rows_leave_no_file(self, tmp_path, where, value):
        rng = np.random.default_rng(list(f"{where}{value}".encode()))
        path = tmp_path / "features.txt"
        for case in range(20):
            labels, X = self.draw(rng)
            if where == "width":
                X = X[:, :0]
            elif not X.size:
                continue
            elif where == "label":
                labels = labels.astype(np.float64)
                labels[rng.integers(len(labels))] = value
            else:
                X = X.astype(np.float64)
                X[tuple(rng.integers(X.shape))] = value
            for features in (X, list(X))[:1 + bool(len(X))]:
                with pytest.raises(FeatureFileError):
                    write_feature_file(path, labels, features)
                assert not path.exists(), case


class TestScaleFeaturesMemory:
    def test_peak_is_one_result(self):
        rng = np.random.default_rng(9)
        X = rng.integers(0, 500, size=(1000, FEATURE_DIM)).astype(np.float64)
        mean, std = X.mean(axis=0), X.std(axis=0)
        std[::7] = 0.0
        tracemalloc.start()
        try:
            out = scale_features(X, mean, std)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * out.nbytes
        assert not out[:, ::7].any()


class TestFeatureFileMemory:
    def test_read_peak_is_at_most_three_results(self, tmp_path):
        rng = np.random.default_rng(9)
        X = rng.integers(0, 500, size=(1000, FEATURE_DIM))
        path = tmp_path / "features.txt"
        write_feature_file(path, rng.integers(0, 10, size=1000), X)
        tracemalloc.start()
        try:
            _, out = read_feature_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, X)
        assert peak <= 3 * out.nbytes


class TestClassifierInput:
    """SVM and k-NN accept and reject the same training and probe input."""

    X = np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 4.0], [5.0, 5.0]])
    y = np.array([0, 0, 1, 1])

    def test_single_vector_is_one_row(self):
        svm = svm_train(self.X, self.y, KernelParams("linear"))
        knn = knn_train(self.X, self.y, k=1)
        assert np.array_equal(svm_decision_table(svm, self.X[3]),
                              svm_decision_table(svm, self.X[3:]))
        assert svm_predict_batch(svm, self.X[3]).tolist() == [1]
        assert knn_predict_batch(knn, self.X[3]).tolist() == [1]

    @pytest.mark.parametrize("probe", [
        np.zeros(3), np.zeros(1), np.zeros((2, 3)), np.zeros((2, 1)),
        np.zeros((1, 2, 2)),
    ], ids=["vector-3", "vector-1", "rows-3", "rows-1", "3-d"])
    def test_wrong_width_rejected(self, probe):
        svm = svm_train(self.X, self.y, KernelParams("linear"))
        knn = knn_train(self.X, self.y, k=1)
        for predict, model in ((svm_decision_table, svm),
                               (svm_predict_batch, svm),
                               (knn_predict_batch, knn)):
            with pytest.raises(DimensionMismatchError):
                predict(model, probe)

    @pytest.mark.parametrize("X, y, error", [
        (np.zeros((0, 2)), np.zeros(0, dtype=int), EmptyDataError),
        (np.zeros((4, 0)), np.array([0, 0, 1, 1]), EmptyDataError),
        (np.zeros(4), np.array([0, 0, 1, 1]), EmptyDataError),
        (np.zeros((4, 2)), np.array([0, 0, 1]), DimensionMismatchError),
        (np.zeros((4, 2)), np.array([[0, 0, 1, 1]]), DimensionMismatchError),
        (np.zeros((4, 2)), np.array(1), DimensionMismatchError),
        (np.array([[1e308, 0.0], [-1e308, 1.0]] * 2), np.array([0, 1, 0, 1]),
         FeatureFileError),
        # a label must equal its int64 value, not be cast to it
        (np.zeros((4, 2)), np.array([0.0, 0.5, 1.0, 1.7]), ValueError),
        (np.zeros((4, 2)), np.array([0.0, np.nan, 1.0, 1.0]), ValueError),
        (np.zeros((4, 2)), np.array([0.0, 0.0, 1.0, 2.0 ** 63]), ValueError),
    ], ids=["empty", "no-columns", "one-dimensional", "short-labels",
            "label-matrix", "scalar-label", "overflowing-statistics",
            "fractional", "nan", "past-int64"])
    def test_training_errors_agree(self, X, y, error):
        with pytest.raises(error):
            svm_train(X, y)
        with pytest.raises(error):
            knn_train(X, y, k=1)


class TestTrainingStatistics:
    """training_rows' mean and std are X.mean(axis=0) and X.std(axis=0) bit
    for bit, and no copy of X is made for them."""

    DRAWS = {
        "normal": lambda rng, shape: rng.normal(scale=10, size=shape),
        "integral": lambda rng, shape: np.round(
            rng.normal(scale=50, size=shape)),
        "counts": lambda rng, shape: rng.integers(
            0, 4001, size=shape).astype(np.float64),
    }

    @pytest.mark.parametrize("values", sorted(DRAWS))
    @pytest.mark.parametrize("rows", [1, 2, 7, 100, 1500])
    def test_equal_numpy_bit_for_bit(self, rows, values):
        # widths around each block edge, one-column tails included
        rng = np.random.default_rng(rows)
        for dim in [*range(1, 40), FEATURE_DIM]:
            X = self.DRAWS[values](rng, (rows, dim))
            _, _, _, mean, std = training_rows(
                X, np.zeros(rows, dtype=np.int64), True)
            assert mean.tobytes() == X.mean(axis=0).tobytes(), dim
            assert std.tobytes() == X.std(axis=0).tobytes(), dim

    def test_training_holds_no_copy_of_the_rows(self):
        # X.std(axis=0) alone peaks at X.nbytes; k-NN training keeps X as it
        # is given, so its peak is the statistics' own
        rng = np.random.default_rng(10)
        X = rng.normal(size=(2000, FEATURE_DIM))
        y = np.repeat(np.arange(10), 200)
        tracemalloc.start()
        try:
            knn_train(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * X.nbytes


class TestStacks:
    """Page i of `extract_contour` and `extract_features` over a stack is
    what each gives page i alone."""

    def test_stack_rows_match_pages(self):
        rng = np.random.default_rng(34)
        density = rng.uniform(0.05, 0.6, size=(7, 1, 1))
        pages = (rng.random((7, 64, 64)) < density).astype(np.uint8)
        pages[0], pages[1] = 0, 1
        contours = extract_contour(pages)
        features = extract_features(contours)
        assert features.shape == (7, FEATURE_DIM)
        for page, contour, row in zip(pages, contours, features):
            assert np.array_equal(contour, extract_contour(page))
            assert np.array_equal(row, extract_features(contour))
        assert np.array_equal(extract_features(contours.reshape(7, 1, 64, 64)),
                              features[:, None])

    def test_stack_of_wrong_size_rejected(self):
        with pytest.raises(WrongDimensionsError):
            extract_contour(np.ones((3, 63, 64), dtype=np.uint8))
        with pytest.raises(WrongDimensionsError):
            extract_features(np.ones((3, 64, 63), dtype=np.uint8))


class TestWindowStacks:
    """`_features` of a window stack, one window to more than a 16-page
    chunk (784), against the brute-force oracle; density 1 is the
    all-foreground worst case of the int16 line sums."""

    @pytest.mark.parametrize("density", [0, 0.05, 0.3, 0.7, 1])
    @pytest.mark.parametrize("size", [1, 2, 49, 784, 900])
    def test_stack_matches_brute_force(self, size, density):
        rng = np.random.default_rng([size, int(100 * density)])
        windows = (rng.random((size, 16, 16)) < density).astype(np.uint8)
        out = _features(windows)
        assert out.shape == (size, 4) and out.dtype == np.int64
        # the oracle takes about a millisecond a window: every window of
        # a small stack, a seeded sample and both ends of a large one
        checked = range(size) if size <= 49 else {
            0, size - 1, *rng.choice(size, 30, replace=False).tolist()}
        for i in checked:
            assert out[i].tolist() == [brute_window_feature(windows[i], d)
                                       for d in DIRECTIONS]

    def test_chunk_peak_holds_no_run_table(self):
        # a 16-page chunk is 784 windows: (16 steps, 94 lines, 784) int8
        # tables of its bits and runs took 3.2-3.4 MiB
        rng = np.random.default_rng(38)
        contours = extract_contour(
            (rng.random((16, 64, 64)) < 0.3).astype(np.uint8))
        extract_features(contours)      # the scan-line table, built once
        tracemalloc.start()
        try:
            extract_features(contours)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 ** 20


class TestFormatRows:
    """Integer rows within 2**53 of 0 are joined as they are; every row
    reads as the per-value rule writes it: digits for an integral float()
    of the value, repr otherwise."""

    @staticmethod
    def per_value(row) -> str:
        return ",".join(str(int(f)) if f.is_integer() else repr(f)
                        for f in map(float, row.tolist()))

    @pytest.mark.parametrize("row", [
        np.array([-0.0, 3.0, 2.0 ** 53 + 1, 2.0 ** 63 - 1024,
                  -(2.0 ** 63 - 1024)]),
        np.array([2 ** 53, -2 ** 53, 2 ** 53 + 1, -(2 ** 53 + 1),
                  2 ** 63 - 1024, -(2 ** 63 - 1024), 2 ** 63 - 1, -2 ** 63],
                 dtype=np.int64),
        np.array([7.0, 1e300, -2.0]),
        np.array([2 ** 64 - 1, 5], dtype=np.uint64),
        np.array([True, False]),
        np.arange(-300, 300, 7, dtype=np.int16),
        np.random.default_rng(35).integers(-2 ** 53, 2 ** 53, size=50),
        np.zeros(0, dtype=np.int64),
    ], ids=["floats", "int64-bounds", "1e300", "uint64", "bool", "int16",
            "random", "empty"])
    def test_paths_agree(self, row):
        lines = list(format_rows(np.stack([row, row]), ",", ValueError))
        assert lines == [self.per_value(row)] * 2

    EDGES = [0.0, -0.0, 2.0 ** 53, -2.0 ** 53, 2.0 ** 53 + 2, 1e300, 0.5]

    @pytest.mark.parametrize("row", [
        *(np.array([v]) for v in EDGES), np.array(EDGES),
        np.array(EDGES[:4] + [3.0]), np.array(EDGES[::-1]),
        np.array([-0.0, 3.0, 2.0 ** 24], dtype=np.float32),
        np.array([-0.0, 3.0, 0.5], dtype=np.float32)])
    def test_float_rows_agree(self, row):
        # a float row of integers within 2**53 joins as its int64 cast;
        # one value past that, or not integral, keeps the per-value rule
        lines = list(format_rows(np.stack([row, row]), ",", ValueError))
        assert lines == [self.per_value(row)] * 2
