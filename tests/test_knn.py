import tracemalloc

import numpy as np
import pytest

from rwrl import knn, rows
from rwrl.cli import main
from rwrl.errors import (
    DimensionMismatchError,
    EmptyModelError,
    FeatureFileError,
    TooFewSamplesError,
)
from rwrl.knn import CHUNK_BYTES, KnnModel, knn_predict_batch, knn_train
from rwrl.model_io import model_load, model_save
from rwrl.rows import probe_rows, scale_features, write_feature_file


def test_k1_returns_exact_match():
    X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
    y = np.array([3, 7, 1])
    model = knn_train(X, y, k=1)
    for row, label in zip(X, y):
        assert knn_predict_batch(model, row)[0] == label


def test_majority_beats_single_closer_neighbor():
    # two label-0 points at distance 1, one label-1 point at distance 0.5
    X = np.array([[1.0], [-1.0], [0.5]])
    y = np.array([0, 0, 1])
    model = knn_train(X, y, k=3, scale=False)
    assert knn_predict_batch(model, np.array([0.0]))[0] == 0


def test_vote_tie_goes_to_nearest():
    # k=2: one of each class, class 1's representative is closer
    X = np.array([[1.0], [-0.5]])
    y = np.array([0, 1])
    model = knn_train(X, y, k=2, scale=False)
    assert knn_predict_batch(model, np.array([0.0]))[0] == 1


def test_distance_tie_prefers_smaller_label():
    X = np.array([[1.0], [-1.0]])
    y = np.array([5, 2])
    model = knn_train(X, y, k=1, scale=False)
    assert knn_predict_batch(model, np.array([0.0]))[0] == 2


def test_k1_training_accuracy_is_perfect():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(60, 8))
    y = rng.integers(0, 10, size=60)
    model = knn_train(X, y, k=1)
    assert (knn_predict_batch(model, X) == y).all()


@pytest.mark.parametrize("rows, dim", [(0, 2), (3, 0)],
                         ids=["no-rows", "no-columns"])
def test_empty_model_rejected(rows, dim):
    model = KnnModel(1, [0], np.zeros(dim), np.ones(dim),
                     np.empty((rows, dim)), np.zeros(rows, dtype=np.int64))
    with pytest.raises(EmptyModelError):
        knn_predict_batch(model, np.zeros(dim))


def test_pool_is_z_scored_on_the_first_prediction(monkeypatch, tmp_path):
    scaled = []

    def spy(values, mean, std):
        scaled.append(values)
        return scale_features(values, mean, std)

    monkeypatch.setattr(knn, "scale_features", spy)
    rng = np.random.default_rng(13)
    X, y = rng.normal(size=(20, 4)), rng.integers(0, 3, size=20)
    model = knn_train(X, y, k=3)
    loaded = model_load(model_save(model))
    write_feature_file(tmp_path / "f.txt", y, X)
    assert main(["train", str(tmp_path / "f.txt"), str(tmp_path / "m.txt"),
                 "--classifier", "knn"]) == 0
    assert scaled == []
    for m in (model, loaded):
        first = knn_predict_batch(m, X)
        assert (knn_predict_batch(m, X[::-1]) == first[::-1]).all()
    assert len(scaled) == 2
    assert scaled[0] is model.pool and scaled[1] is loaded.pool


def test_k_bounds_checked():
    X = np.zeros((3, 2))
    y = np.array([0, 1, 2])
    with pytest.raises(TooFewSamplesError):
        knn_train(X, y, k=4)
    with pytest.raises(ValueError):
        knn_train(X, y, k=0)


def test_dimension_mismatch():
    model = knn_train(np.zeros((3, 2)), np.array([0, 1, 0]), k=1)
    with pytest.raises(DimensionMismatchError):
        knn_predict_batch(model, np.zeros(3))


def reference_predict(model, vector) -> int:
    """Per-row k-NN vote: nearest-first among tied classes."""
    v = probe_rows(model, vector)
    dist = np.sqrt(((model.samples - v) ** 2).sum(axis=1))
    top = model.labels[np.lexsort((model.labels, dist))[:model.k]]
    counts = {label: int((top == label).sum()) for label in top}
    return int(next(t for t in top if counts[t] == max(counts.values())))


@pytest.mark.parametrize("seed", range(6))
def test_batch_matches_per_row_reference(seed):
    # few distinct values and negative labels: many distance and vote ties
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(50, 3)).astype(np.float64)
    y = rng.integers(-4, 4, size=50)
    probes = rng.integers(0, 3, size=(300, 3))
    for k in (1, 2, 3, 6, 50):
        model = knn_train(X, y, k=k, scale=False)
        expected = [reference_predict(model, p) for p in probes]
        assert knn_predict_batch(model, probes).tolist() == expected
        assert knn_predict_batch(model, probes[0])[0] == expected[0]


def assert_matches_reference(X, y, probes, k):
    model = knn_train(X, y, k=k, scale=False)
    expected = [reference_predict(model, p) for p in probes]
    assert knn_predict_batch(model, probes).tolist() == expected


def test_duplicate_samples_match_reference():
    rng = np.random.default_rng(20)
    base = rng.normal(size=(6, 5))
    X = base[rng.integers(0, 6, size=40)]       # each row many times
    y = rng.integers(0, 4, size=40)             # copies differ in label
    probes = np.vstack([base, rng.normal(size=(30, 5))])
    for k in (1, 3, 8, 40):
        assert_matches_reference(X, y, probes, k)


def test_equidistant_samples_on_a_sphere_match_reference():
    # the axis points +-r e_i all lie at distance r from the probe
    probe = np.array([3.0, -1.0, 0.5, 2.0])
    X = probe + 1.5 * np.vstack([np.eye(4), -np.eye(4)])
    y = np.array([4, 1, 3, 1, 0, 2, 4, 0])
    for k in range(1, 9):
        assert_matches_reference(X, y, probe[None, :], k)


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_samples_a_few_ulp_apart_match_reference(scale):
    # distances differ in the last bits only, far below the filter's bound
    rng = np.random.default_rng(21)
    probe = rng.normal(size=8) * scale
    direction = rng.normal(size=8)
    X = probe + direction * (1 + np.arange(-2, 3)[:, None] * 2.0 ** -52)
    X = np.vstack([X, probe + (X - probe)[::-1] * (1 + 2.0 ** -52)])
    y = rng.integers(0, 3, size=len(X))
    probes = np.vstack([probe, probe + direction * 2.0 ** -51])
    for k in (1, 2, 5, len(X)):
        assert_matches_reference(X, y, probes, k)


@pytest.mark.parametrize("regime", ["shell", "subnormal"])
def test_near_ties_where_the_bound_decides_match_reference(regime):
    # samples on a thin shell around a probe of large norm put the distance
    # gaps near the rounding error of |q|² + |s|² − 2 q·s; small integers
    # times 2^-540 or less make the squares underflow
    rng = np.random.default_rng(25)
    for _ in range(200):
        d, n = int(rng.integers(1, 30)), int(rng.integers(2, 40))
        k = int(rng.integers(1, min(n, 4) + 1))
        if regime == "shell":
            probes = rng.normal(size=(1, d)) * 10.0 ** rng.integers(2, 6)
            off = rng.normal(size=(n, d))
            off /= np.linalg.norm(off, axis=1, keepdims=True)
            gap = rng.integers(0, 50, size=(n, 1)) * 10.0 ** -rng.integers(6, 14)
            X = probes + off * (1 + gap)
        else:
            unit = 2.0 ** -int(rng.integers(530, 545))
            X = rng.integers(0, 40, size=(n, d)) * unit
            probes = rng.integers(0, 40, size=(5, d)) * unit
        assert_matches_reference(X, rng.integers(0, 3, size=n), probes, k)


def test_k_equal_to_n_matches_reference():
    rng = np.random.default_rng(22)
    X = rng.normal(size=(25, 4))
    y = rng.integers(0, 5, size=25)
    assert_matches_reference(X, y, rng.normal(size=(40, 4)), 25)


@pytest.mark.parametrize("seed", range(3))
def test_feature_shaped_rows_match_reference(seed):
    # 196 non-negative integer cells around ten class prototypes
    rng = np.random.default_rng(seed)
    centers = rng.integers(0, 20, size=(10, 196))
    y = rng.integers(0, 10, size=150)
    X = np.maximum(0, centers[y] + rng.integers(-6, 7, size=(150, 196)))
    probes = np.maximum(0, centers[rng.integers(0, 10, size=120)]
                        + rng.integers(-6, 7, size=(120, 196)))
    probes[:20] = X[:20]
    model = knn_train(X, y, k=3)
    expected = [reference_predict(model, p) for p in probes]
    assert knn_predict_batch(model, probes).tolist() == expected


def test_chunk_and_slab_boundaries_match_reference(monkeypatch):
    rng = np.random.default_rng(23)
    X = rng.integers(0, 3, size=(30, 6)).astype(np.float64)
    y = rng.integers(0, 4, size=30)
    probes = rng.integers(0, 3, size=(50, 6))
    probes[::3] *= 1000     # most beyond EXACT_NORM: the reference path
    # chunks of 7 rows at 40 bytes per (row, sample) pair; reference slabs
    # of 7 samples, fewer than the 30 of the pool
    monkeypatch.setattr(rows, "CHUNK_BYTES", 7 * 40 * 30)
    monkeypatch.setattr(knn, "CHUNK_BYTES", 7 * 8 * 6)
    for k in (1, 4, 30):
        assert_matches_reference(X, y, probes, k)


def test_bound_edge_splits_exact_and_reference_paths(monkeypatch):
    # the largest pool row has norm 1000, so |q| + 1000 is just below the
    # bound for each first probe and at or above it for each second: 1448
    # on the grid, and 2^16 times that for integer rows, as the pool's are
    X = np.array([[1000.0, 0, 0], [0, 600, 0], [3, 0, 1], [-2, 1, 0]])
    y = np.array([2, 0, 3, 1])
    edge = knn.EXACT_NORM * 2 ** 16 - 1000
    referenced = []

    def spy(q, S):
        referenced.append(q.tolist())
        return reference_squares(q, S)

    reference_squares = knn._reference_squares
    monkeypatch.setattr(knn, "_reference_squares", spy)
    for probes in ([[-447.984375, 0, 0], [-448.015625, 0, 0]],
                   [[1 - edge, 0, 0], [-edge, 0, 0]]):
        probes = np.array(probes)
        for k in range(1, 5):
            referenced.clear()
            assert_matches_reference(X, y, probes, k)
            assert referenced == [probes[1].tolist()]


def test_labels_do_not_depend_on_the_batch():
    # midpoints of feature-shaped rows around ten class prototypes
    rng = np.random.default_rng(26)
    centers = rng.integers(0, 20, size=(10, 196))
    y = rng.integers(0, 10, size=300)
    X = np.maximum(0, centers[y] + rng.integers(-6, 7, size=(300, 196)))
    probes = (X[:100] + X[rng.permutation(300)[:100]]) / 2
    model = knn_train(X, y, k=3)
    whole = knn_predict_batch(model, probes)
    for batch in (1, 2, 33):
        parts = [knn_predict_batch(model, probes[a:a + batch])
                 for a in range(0, len(probes), batch)]
        assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e153, 1e-160, 1e-310])
def test_overflow_and_underflow_follow_the_reference(scale):
    # the error is raised exactly when some reference distance is not finite
    rng = np.random.default_rng(24)
    X = rng.integers(0, 30, size=(60, 196)) * scale
    y = rng.integers(0, 10, size=60)
    probes = rng.integers(0, 30, size=(40, 196)) * scale
    probes[:10] = X[:10]
    model = knn_train(X, y, k=3, scale=False)
    with np.errstate(over="ignore"):
        finite = all(np.isfinite(np.sqrt(((X - p) ** 2).sum(axis=1))).all()
                     for p in probes)
    assert finite == (scale != 1e153)
    if not finite:
        with pytest.raises(FeatureFileError):
            knn_predict_batch(model, probes)
    else:
        expected = [reference_predict(model, p) for p in probes]
        assert knn_predict_batch(model, probes).tolist() == expected


@pytest.mark.parametrize("spread", [20, 0], ids=["distinct", "all-equal"])
@pytest.mark.parametrize("n", [150, 4000])
def test_peak_memory_stays_within_two_chunks(n, spread):
    # all-equal samples make every (row, sample) pair a candidate
    rng = np.random.default_rng(n)
    X = rng.integers(0, spread + 1, size=(n, 196)).astype(np.float64)
    model = knn_train(X, rng.integers(0, 10, size=n), k=3, scale=False)
    probes = rng.integers(0, 20, size=(250, 196)).astype(np.float64)
    model.samples   # z-score the pool outside the measured call
    tracemalloc.start()
    try:
        knn_predict_batch(model, probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the scaled copy of the probes
    assert peak - probes.nbytes <= 2 * CHUNK_BYTES
