import numpy as np
import pytest

from rwrl.errors import (
    DimensionMismatchError,
    EmptyModelError,
    TooFewSamplesError,
)
from rwrl.knn import KnnModel, knn_predict_batch, knn_train


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


def test_empty_model_rejected():
    model = KnnModel(1, [0], np.zeros(2), np.ones(2),
                     np.empty((0, 2)), np.empty(0, dtype=np.int64))
    with pytest.raises(EmptyModelError):
        knn_predict_batch(model, np.zeros(2))


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
    v = (np.asarray(vector, dtype=np.float64) - model.mean) / model.std
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
