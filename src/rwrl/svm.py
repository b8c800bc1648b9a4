"""One-vs-one kernel SVM trained with sequential minimal optimization.

One binary C-SVC is trained per unordered class pair on z-scored features;
prediction lets every machine vote and breaks vote ties by summed decision
magnitude, then by the smaller label. Kernel evaluations are cached as a
dense Gram matrix per binary problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDataError,
    SingleClassError,
)
from .features import scale_features

SMO_TOLERANCE = 1e-3      # KKT violation tolerance
SMO_EPSILON = 1e-3        # minimal useful alpha step
SMO_STALL_FACTOR = 10     # stop after 10*n examinations without progress


@dataclass
class KernelParams:
    kind: str = "polynomial"          # linear | polynomial | rbf
    degree: int = 3
    gamma: float | None = None        # default 1 / n_features at training
    coef0: float = 1.0
    C: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "polynomial", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.C <= 0:
            raise ValueError("C must be > 0")


def kernel_matrix(params: KernelParams, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix K[i, j] = k(a_i, b_j)."""
    if params.kind == "linear":
        return a @ b.T
    if params.kind == "polynomial":
        return (params.gamma * (a @ b.T) + params.coef0) ** params.degree
    sq = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
          - 2.0 * (a @ b.T))
    return np.exp(-params.gamma * np.maximum(sq, 0.0))


@dataclass
class BinaryMachine:
    """One trained class-pair machine; positive decisions vote `first`."""

    first: int
    second: int
    support_vectors: np.ndarray       # (m, d) z-scored rows
    coefficients: np.ndarray          # (m,) alpha_k * y_k
    bias: float

    def decision(self, params: KernelParams, x: np.ndarray) -> np.ndarray:
        k = kernel_matrix(params, x, self.support_vectors)
        return k @ self.coefficients + self.bias


@dataclass
class SvmModel:
    classes: list[int]
    params: KernelParams
    mean: np.ndarray
    std: np.ndarray
    machines: list[BinaryMachine] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.mean)


class _Smo:
    """Platt-style SMO on one binary problem with a cached Gram matrix."""

    def __init__(self, K, y, C, rng, tol=SMO_TOLERANCE, eps=SMO_EPSILON):
        self.K = K
        self.y = y.astype(np.float64)
        self.C = float(C)
        self.rng = rng
        self.tol = tol
        self.eps = eps
        self.n = len(y)
        self.alpha = np.zeros(self.n)
        self.b = 0.0
        self.errors = -self.y.copy()   # f(x) = 0 initially, E = f - y
        self.stall_limit = SMO_STALL_FACTOR * self.n
        self.since_progress = 0

    def solve(self) -> tuple[np.ndarray, float]:
        examine_all = True
        while self.since_progress < self.stall_limit:
            if examine_all:
                candidates = range(self.n)
            else:
                candidates = np.flatnonzero(
                    (self.alpha > 0) & (self.alpha < self.C))
            changed = 0
            for i in candidates:
                changed += self._examine(int(i))
                if self.since_progress >= self.stall_limit:
                    break
            if examine_all:
                if changed == 0:
                    break           # full sweep satisfied KKT: converged
                examine_all = False
            elif changed == 0:
                examine_all = True
        return self.alpha, self.b

    def _examine(self, i: int) -> int:
        r = self.errors[i] * self.y[i]
        if not ((r < -self.tol and self.alpha[i] < self.C)
                or (r > self.tol and self.alpha[i] > 0)):
            self.since_progress += 1
            return 0
        non_bound = np.flatnonzero((self.alpha > 0) & (self.alpha < self.C))
        if len(non_bound) > 1:
            j = int(non_bound[np.argmax(np.abs(self.errors[i]
                                               - self.errors[non_bound]))])
            if self._step(i, j):
                self.since_progress = 0
                return 1
        for pool in (non_bound, np.arange(self.n)):
            if len(pool) == 0:
                continue
            start = int(self.rng.integers(len(pool)))
            for j in np.roll(pool, -start):
                if self._step(i, int(j)):
                    self.since_progress = 0
                    return 1
        self.since_progress += 1
        return 0

    def _step(self, i: int, j: int) -> bool:
        if i == j:
            return False
        K, y, alpha, C = self.K, self.y, self.alpha, self.C
        ai, aj = alpha[i], alpha[j]
        if y[i] != y[j]:
            low, high = max(0.0, aj - ai), min(C, C + aj - ai)
        else:
            low, high = max(0.0, ai + aj - C), min(C, ai + aj)
        if low >= high:
            return False
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 0:
            return False    # degenerate curvature; skip the pair
        aj_new = aj + y[j] * (self.errors[i] - self.errors[j]) / eta
        aj_new = min(high, max(low, aj_new))
        if aj_new < 1e-8:
            aj_new = 0.0
        elif aj_new > C - 1e-8:
            aj_new = C
        if abs(aj_new - aj) < self.eps * (aj_new + aj + self.eps):
            return False
        ai_new = ai + y[i] * y[j] * (aj - aj_new)
        ai_new = min(C, max(0.0, ai_new))

        di = y[i] * (ai_new - ai)
        dj = y[j] * (aj_new - aj)
        b1 = self.b - self.errors[i] - di * K[i, i] - dj * K[i, j]
        b2 = self.b - self.errors[j] - di * K[i, j] - dj * K[j, j]
        if 0.0 < ai_new < C:
            b_new = b1
        elif 0.0 < aj_new < C:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)

        self.errors += di * K[:, i] + dj * K[:, j] + (b_new - self.b)
        alpha[i], alpha[j] = ai_new, aj_new
        self.b = b_new
        return True


def _pair_rng(seed: int, a_idx: int, b_idx: int) -> np.random.Generator:
    # independent, order-free stream per class pair
    return np.random.default_rng([seed & 0xFFFFFFFF, a_idx, b_idx])


def svm_train(features, labels, params: KernelParams | None = None,
              seed: int = 0, scale: bool = True) -> SvmModel:
    """Train a one-vs-one SVM; deterministic for a given seed."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or len(X) == 0:
        raise EmptyDataError("training data is empty")
    if len(X) != len(y):
        raise DimensionMismatchError(
            f"{len(X)} feature rows but {len(y)} labels")
    classes = sorted(int(c) for c in np.unique(y))
    if len(classes) < 2:
        raise SingleClassError("need at least two distinct labels")

    params = params or KernelParams()
    if params.gamma is None:
        params = KernelParams(params.kind, params.degree,
                              1.0 / X.shape[1], params.coef0, params.C)
    if scale:
        mean = X.mean(axis=0)
        std = X.std(axis=0)
    else:
        mean = np.zeros(X.shape[1])
        std = np.ones(X.shape[1])
    Xs = scale_features(X, mean, std)

    model = SvmModel(classes, params, mean, std)
    for a_idx in range(len(classes)):
        for b_idx in range(a_idx + 1, len(classes)):
            a, b = classes[a_idx], classes[b_idx]
            mask = (y == a) | (y == b)
            sub = Xs[mask]
            sub_y = np.where(y[mask] == a, 1.0, -1.0)
            gram = kernel_matrix(params, sub, sub)
            smo = _Smo(gram, sub_y, params.C, _pair_rng(seed, a_idx, b_idx))
            alpha, bias = smo.solve()
            sv = alpha > 0
            model.machines.append(BinaryMachine(
                a, b, sub[sv].copy(), (alpha[sv] * sub_y[sv]).copy(), bias))
    return model


def svm_decision_table(model: SvmModel, features) -> tuple[np.ndarray, np.ndarray]:
    """Votes (n, K) and summed winning decision magnitudes (n, K)."""
    X = np.asarray(features, dtype=np.float64)
    if X.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"model expects {model.dim} features, got {X.shape[1]}")
    Xs = scale_features(X, model.mean, model.std)
    index = {c: k for k, c in enumerate(model.classes)}
    votes = np.zeros((len(X), len(model.classes)), dtype=np.int64)
    magnitude = np.zeros_like(votes, dtype=np.float64)
    for machine in model.machines:
        f = machine.decision(model.params, Xs)
        win_first = f >= 0
        ka, kb = index[machine.first], index[machine.second]
        votes[win_first, ka] += 1
        votes[~win_first, kb] += 1
        magnitude[win_first, ka] += f[win_first]
        magnitude[~win_first, kb] -= f[~win_first]
    return votes, magnitude


def svm_predict_batch(model: SvmModel, features) -> np.ndarray:
    """Predicted labels for a feature matrix."""
    votes, magnitude = svm_decision_table(model, np.atleast_2d(
        np.asarray(features, dtype=np.float64)))
    classes = np.array(model.classes, dtype=np.int64)
    # most votes, then largest magnitude, then the smaller label
    order = np.lexsort((np.broadcast_to(-classes, votes.shape), magnitude,
                        votes), axis=-1)
    return classes[order[:, -1]]


def svm_predict(model: SvmModel, vector) -> tuple[int, dict[int, int]]:
    """Predicted label and per-class vote counts for one feature vector."""
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError("svm_predict expects a single vector")
    votes, _ = svm_decision_table(model, v[None, :])
    counts = {c: int(votes[0, k]) for k, c in enumerate(model.classes)}
    return int(svm_predict_batch(model, v)[0]), counts
