"""k-nearest-neighbor baseline on z-scored features.

On the grid of `rows.GRID`, one matrix product gives each squared distance
|q|² + |s|² − 2 q·s exactly (the GEMM form of brute-force k-NN, Garcia,
Debreuve & Barlaud, CVPR-W 2008) for a probe row q with |q| + max |s| <
EXACT_NORM. A row outside that bound gets the reference distance
``sqrt(((s - q) ** 2).sum())``, which the product equals inside it, so the
labels are those of a full reference distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyModelError, FeatureFileError, TooFewSamplesError
from .rows import CHUNK_BYTES, probe_chunks, scale_features, training_rows

# (|q| + |s|)² < 1448² < 2^21 bounds every partial sum of |q|², |s|² and
# |q|² + |s|² − 2 q·s, which the grid makes exact below 2^21; integer rows
# (rwrl's features under --no-scale) are exact below 2^53, 2^16 times as far
EXACT_NORM = 1448.0


@dataclass
class KnnModel:
    kind = "knn"                # the model file's kind; not a field
    k: int
    classes: list[int]
    mean: np.ndarray
    std: np.ndarray
    pool: np.ndarray        # (n, d) raw rows
    labels: np.ndarray      # (n,)

    @cached_property
    def samples(self) -> np.ndarray:    # z-scored on the first prediction
        return scale_features(self.pool, self.mean, self.std)

    @property
    def dim(self) -> int:
        return len(self.mean)

    def predict(self, features) -> np.ndarray:
        """Majority label among the k nearest neighbors by Euclidean
        distance, per row of a feature matrix; a single vector is one row.

        Vote ties go to the class of the nearest tied neighbor; equal
        distances rank the smaller label first, then the earlier sample.
        """
        if self.pool.size == 0:
            raise EmptyModelError("model holds no samples")
        classes = np.asarray(self.classes, dtype=np.int64)
        class_of = np.searchsorted(classes, self.labels)
        S = self.samples
        k = min(self.k, len(S))
        with np.errstate(over="ignore", invalid="ignore"):
            s_norms = np.einsum("ij,ij->i", S, S)
        integral = _integral(S)

        def vote(rows):
            nearest = class_of[_k_nearest(rows, S, s_norms, integral,
                                          self.labels, k)]
            counts = (nearest[:, :, None]
                      == np.arange(len(classes))).sum(axis=1)
            # argmax takes the nearest neighbor among those of a top-voted class
            first = np.take_along_axis(counts, nearest, axis=1).argmax(axis=1)
            return classes[nearest[np.arange(len(rows)), first]]

        # a chunk's ranking holds five 8-byte arrays per (row, sample) pair
        # when every pair ties: distance, row, column, label and sort order
        return probe_chunks(self, features, 40 * len(S), vote)


knn_predict_batch = KnnModel.predict


def knn_train(features, labels, k: int = 3, scale: bool = True) -> KnnModel:
    X, y, classes, mean, std = training_rows(features, labels, scale)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(X):
        raise TooFewSamplesError(f"k={k} exceeds the {len(X)} training samples")
    return KnnModel(k, classes, mean, std, X, y)


def _k_nearest(Q: np.ndarray, S: np.ndarray, s_norms: np.ndarray,
               integral: bool, labels: np.ndarray, k: int) -> np.ndarray:
    """(rows, k) indices of each query row's k nearest samples, nearest
    first, equal distances by label and then by sample index; `integral`
    tells whether every sample value is an integer."""
    limit = EXACT_NORM * (2.0 ** 16 if integral and _integral(Q) else 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        q_norms = np.einsum("ij,ij->i", Q, Q)
        dist = Q @ S.T
        dist *= -2.0
        dist += q_norms[:, None]
        dist += s_norms
        outside = ~(np.sqrt(q_norms) + np.sqrt(s_norms.max()) < limit)
        for row in np.flatnonzero(outside):
            dist[row] = _reference_squares(Q[row], S)
        np.sqrt(dist, out=dist)
    if not np.isfinite(dist).all():
        raise FeatureFileError("feature values overflow the k-NN distance")
    # every sample within the k-th distance, ranked; at least k per row
    kth = np.partition(dist, k - 1, axis=1)[:, [k - 1]]
    row, col = np.divmod(np.flatnonzero(dist <= kth), len(S))
    order = np.lexsort((col, labels[col], dist[row, col], row))
    per_row = np.bincount(row, minlength=len(Q))
    return col[order[(np.cumsum(per_row) - per_row)[:, None] + np.arange(k)]]


def _reference_squares(q: np.ndarray, S: np.ndarray) -> np.ndarray:
    """((S - q) ** 2).sum(axis=1), in slabs of samples within CHUNK_BYTES."""
    slab = max(1, CHUNK_BYTES // (8 * S.shape[1]))
    out = np.empty(len(S))
    for start in range(0, len(S), slab):
        diff = S[start:start + slab] - q
        diff **= 2
        out[start:start + slab] = diff.sum(axis=1)
    return out


def _integral(A: np.ndarray) -> bool:
    """Whether every value of A is an integer or infinite (NaN is not),
    tested in slabs of rows within CHUNK_BYTES."""
    slab = max(1, CHUNK_BYTES // (8 * A.shape[1]))
    return all(np.array_equal(np.rint(A[start:start + slab]),
                              A[start:start + slab])
               for start in range(0, len(A), slab))
