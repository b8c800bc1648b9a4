"""k-nearest-neighbor baseline on z-scored features."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyModelError, FeatureFileError, TooFewSamplesError
from .rows import probe_rows, scale_features, training_rows

# Bound on a chunk's (rows, n) block, and separately on its refine slab.
CHUNK_BYTES = 1 << 20
# Bytes per (row, sample) pair of a chunk at its peak: when every pair is a
# candidate, the ranking holds five 8-byte arrays of them (row, column,
# distance, label and sort order), and the filter as many at its end (two
# float64 bounds, the flat candidates and their row and column arrays).
PAIR_BYTES = 40


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

        Exact filter and refine: per chunk of rows one matrix product gives
        approximate squared distances |q|² + |s|² − 2 q·s (the GEMM form of
        brute-force k-NN, Garcia, Debreuve & Barlaud, CVPR-W 2008), and a
        rounding bound keeps every sample that could be among the k nearest
        or tie with them. Only those candidates get the exact distance
        ``sqrt(((s - q) ** 2).sum())``, so the labels are the ones a full
        distance matrix would give.
        """
        if self.pool.size == 0:
            raise EmptyModelError("model holds no samples")
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        probe_rows(self, X[:0])    # refuses a wrong dimension, rows or not
        classes = np.asarray(self.classes, dtype=np.int64)
        class_of = np.searchsorted(classes, self.labels)
        S = self.samples
        n = len(S)
        k = min(self.k, n)
        step = max(1, CHUNK_BYTES // (PAIR_BYTES * n))
        out = np.empty(len(X), dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            s_norms = np.einsum("ij,ij->i", S, S)
        for start in range(0, len(X), step):
            # z-scored per chunk: no copy of all rows lives through the loop
            rows = probe_rows(self, X[start:start + step])
            with np.errstate(over="ignore", invalid="ignore"):
                nearest = class_of[
                    _k_nearest(rows, S, s_norms, self.labels, k)]
            counts = (nearest[:, :, None]
                      == np.arange(len(classes))).sum(axis=1)
            # argmax takes the nearest neighbor among those of a top-voted class
            first = np.take_along_axis(counts, nearest, axis=1).argmax(axis=1)
            out[start:start + step] = classes[
                nearest[np.arange(len(rows)), first]]
        return out


knn_predict_batch = KnnModel.predict


def knn_train(features, labels, k: int = 3, scale: bool = True) -> KnnModel:
    X, y, classes, mean, std = training_rows(features, labels, scale)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(X):
        raise TooFewSamplesError(f"k={k} exceeds the {len(X)} training samples")
    return KnnModel(k, classes, mean, std, X, y)


def _k_nearest(Q: np.ndarray, S: np.ndarray, s_norms: np.ndarray,
               labels: np.ndarray, k: int) -> np.ndarray:
    """(rows, k) indices of each query row's k nearest samples, nearest
    first, equal distances by label and then by sample index.

    Each candidate's distance is the reference expression
    ``sqrt(((S[col] - Q[row]) ** 2).sum(-1))``, bit-identical to a full
    distance matrix, computed in slabs whose two gathered rows per
    candidate fill at most CHUNK_BYTES.
    """
    row, col = _candidates(Q, S, s_norms, k)
    slab = max(1, CHUNK_BYTES // (16 * S.shape[1]))
    dist = np.empty(len(row))
    for start in range(0, len(row), slab):
        diff = S[col[start:start + slab]]
        diff -= Q[row[start:start + slab]]
        diff **= 2
        dist[start:start + slab] = np.sqrt(diff.sum(axis=-1))
    if not np.isfinite(dist).all():
        raise FeatureFileError("feature values overflow the k-NN distance")
    del diff
    order = np.lexsort((col, labels[col], dist, row))
    per_row = np.bincount(row, minlength=len(Q))    # each at least k
    return col[order[(np.cumsum(per_row) - per_row)[:, None] + np.arange(k)]]


def _candidates(Q: np.ndarray, S: np.ndarray, s_norms: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column arrays, row-major, of every (row, sample) pair that a
    rounding bound cannot rule out of the k nearest of that query row."""
    # With u = ε/2 the unit roundoff, N = |q|² + |s|² and η = 2^-1075 the
    # largest error of an underflowing product, the approximation
    # A = (−2 q·s + |q|²) + |s|² differs from the exact D = |s − q|² by at
    # most 2γ_d·N + 4u·N + 4dη: the dot product, whatever its summation
    # order or FMA use, is off by γ_d·|q|·|s| ≤ γ_d·N/2 plus dη (Higham,
    # Accuracy and Stability of Numerical Algorithms, §3.1), each norm by
    # γ_d times itself plus dη, and the two additions by u·2N each. The
    # reference R = fl(sum((s − q)²)) differs from D by at most
    # γ_{d+2}·D ≤ 2γ_{d+2}·N plus dη. Forming lower = A − tol and
    # upper = lower + 2·tol costs 2u·|A| ≤ 4.1u·N more, and a further margin
    # of 8.1u·N ≥ 4.01u·R makes upper_i < lower_j imply
    # sqrt(R_i) < sqrt(R_j) after the square roots round, so a ruled-out
    # sample cannot tie a kept one either. To first order in u that sums to
    # (4d + 20.2)u·N + 5dη; tol = c·(|q|² + |s|²) + tiny with
    # c = 2(d + 8)ε = (4d + 32)u and tiny = 16dη = d·2^-1071 covers it with
    # room for the roundings of tol.
    #
    # The bounds hold whenever they are finite, since an overflow anywhere
    # leaves an inf or NaN in the result. A sample is ruled out only when
    # its bounds are finite and its lower bound exceeds the k-th smallest
    # upper bound of its row, a non-finite one counted as +inf: at least k
    # samples then have a strictly smaller reference distance, also after
    # the square root rounds. Every other sample, such as one whose
    # distance overflows, is a candidate.
    d = S.shape[1]
    q_norms = np.einsum("ij,ij->i", Q, Q)[:, None]
    lower = Q @ S.T
    lower *= -2.0
    lower += q_norms
    lower += s_norms
    upper = np.add(q_norms, s_norms)
    upper *= 2 * (d + 8) * np.finfo(np.float64).eps
    upper += d * 2.0 ** -1071
    lower -= upper
    upper *= 2.0
    upper += lower
    unbounded = ~np.isfinite(upper)
    upper[unbounded] = np.inf
    lower[unbounded] = -np.inf
    upper.partition(k - 1, axis=1)
    return np.divmod(np.flatnonzero(lower <= upper[:, k - 1:k]), len(S))
