"""k-nearest-neighbor baseline on z-scored features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDataError,
    EmptyModelError,
    FeatureFileError,
    TooFewSamplesError,
)
from .features import scale_features, scaling_stats

CHUNK_BYTES = 1 << 20     # bound on the (rows, n, d) difference temporary


@dataclass
class KnnModel:
    k: int
    classes: list[int]
    mean: np.ndarray
    std: np.ndarray
    samples: np.ndarray     # (n, d) z-scored rows
    labels: np.ndarray      # (n,)

    @property
    def dim(self) -> int:
        return len(self.mean)


def knn_train(features, labels, k: int = 3, scale: bool = True) -> KnnModel:
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or len(X) == 0:
        raise EmptyDataError("training data is empty")
    if len(X) != len(y):
        raise DimensionMismatchError(f"{len(X)} rows but {len(y)} labels")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(X):
        raise TooFewSamplesError(f"k={k} exceeds the {len(X)} training samples")
    mean, std = scaling_stats(X, scale)
    classes = sorted(set(y.tolist()))
    return KnnModel(k, classes, mean, std, scale_features(X, mean, std), y)


def knn_predict_batch(model: KnnModel, features) -> np.ndarray:
    """Majority label among the k nearest neighbors by Euclidean distance,
    per row of a feature matrix; a single vector is one row.

    Vote ties go to the class of the nearest tied neighbor; equal distances
    rank the smaller label first.
    """
    if len(model.samples) == 0:
        raise EmptyModelError("model holds no samples")
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"model expects {model.dim} features, got {X.shape[1:]}")
    Xs = scale_features(X, model.mean, model.std)
    classes = np.asarray(model.classes, dtype=np.int64)
    class_of = np.searchsorted(classes, model.labels)
    step = max(1, CHUNK_BYTES // (8 * max(model.samples.size, 1)))
    out = np.empty(len(X), dtype=np.int64)
    for start in range(0, len(X), step):
        rows = Xs[start:start + step, None, :]
        with np.errstate(over="ignore"):
            dist = np.sqrt(((model.samples - rows) ** 2).sum(axis=-1))
        if not np.isfinite(dist).all():
            raise FeatureFileError("feature values overflow the k-NN distance")
        order = np.lexsort((np.broadcast_to(model.labels, dist.shape), dist),
                           axis=-1)
        nearest = class_of[order[:, :model.k]]          # nearest first
        counts = (nearest[:, :, None] == np.arange(len(classes))).sum(axis=1)
        # argmax takes the nearest neighbor among those of a top-voted class
        first = np.take_along_axis(counts, nearest, axis=1).argmax(axis=1)
        out[start:start + step] = classes[nearest[np.arange(len(rows)), first]]
    return out
