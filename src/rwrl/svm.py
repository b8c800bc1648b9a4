"""One-vs-one kernel SVM trained with sequential minimal optimization.

One binary C-SVC is trained per unordered class pair on z-scored features;
prediction lets every machine vote and breaks vote ties by summed decision
magnitude, then by the smaller label. Kernel evaluations are cached as a
dense Gram matrix per binary problem.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDataError,
    NonFiniteKernelError,
    SingleClassError,
)
from .features import scale_features, scaling_stats

SMO_TOLERANCE = 1e-3        # stop once the KKT violation gap is below this
SMO_TAU = 1e-12             # curvature used where K_ii + K_jj - 2 K_ij <= 0
SMO_MAX_ITER_FACTOR = 100   # give up after 100*n iterations


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


def _smo(K: np.ndarray, y: np.ndarray, C: float
         ) -> tuple[np.ndarray, float, bool]:
    """Solve one binary C-SVC dual; return alpha, bias and convergence.

    SMO with second-order working-set selection (Fan, Chen & Lin, JMLR
    2005, as in LIBSVM). G is the gradient of 1/2 a'Qa - sum(a) with
    Q = yy'K. Each step moves the pair (i, j) along a_i += y_i t,
    a_j -= y_j t, which keeps sum(y a) = 0, so G changes by
    t y (K_i - K_j).
    """
    n = len(y)
    alpha = np.zeros(n)
    G = -np.ones(n)
    diag = np.diag(K)
    converged = False
    for _ in range(SMO_MAX_ITER_FACTOR * n):
        score = -y * G
        up = np.where(y > 0, alpha < C, alpha > 0)
        low = np.where(y > 0, alpha > 0, alpha < C)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        gap = score[i] - np.min(score, where=low, initial=np.inf)
        if gap < SMO_TOLERANCE:
            converged = True
            break
        b = score[i] - score
        a = diag[i] + diag - 2.0 * K[i]
        a = np.where(a > 0, a, SMO_TAU)
        j = int(np.argmax(np.where(low & (b > 0), b * b / a, -np.inf)))
        # largest step that keeps both multipliers inside [0, C]
        room_i = C - alpha[i] if y[i] > 0 else alpha[i]
        room_j = alpha[j] if y[j] > 0 else C - alpha[j]
        t = min(b[j] / a[j], room_i, room_j)
        G += t * y * (K[i] - K[j])
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        if t == room_i:
            alpha[i] = C if y[i] > 0 else 0.0
        if t == room_j:
            alpha[j] = 0.0 if y[j] > 0 else C

    # rho as in LIBSVM: the mean of yG over free multipliers, else the
    # midpoint of the bounds that the multipliers at 0 or C put on it
    yG = y * G
    free = (alpha > 0) & (alpha < C)
    if free.any():
        rho = yG[free].mean()
    else:
        below = (alpha > 0) == (y > 0)
        rho = 0.5 * (yG[~below].min() + yG[below].max())
    return alpha, -float(rho), converged


def svm_train(features, labels, params: KernelParams | None = None,
              seed: int = 0, scale: bool = True) -> SvmModel:
    """Train a one-vs-one SVM; the result is fully deterministic.

    `seed` has no effect: the solver makes no random choice. It is kept
    so that callers passing one keep working.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or len(X) == 0:
        raise EmptyDataError("training data is empty")
    if len(X) != len(y):
        raise DimensionMismatchError(
            f"{len(X)} feature rows but {len(y)} labels")
    classes = sorted(set(y.tolist()))
    if len(classes) < 2:
        raise SingleClassError("need at least two distinct labels")

    params = params or KernelParams()
    if params.gamma is None:
        params = KernelParams(params.kind, params.degree,
                              1.0 / X.shape[1], params.coef0, params.C)
    mean, std = scaling_stats(X, scale)
    Xs = scale_features(X, mean, std)

    model = SvmModel(classes, params, mean, std)
    for a_idx in range(len(classes)):
        for b_idx in range(a_idx + 1, len(classes)):
            a, b = classes[a_idx], classes[b_idx]
            mask = (y == a) | (y == b)
            sub = Xs[mask]
            sub_y = np.where(y[mask] == a, 1.0, -1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                gram = kernel_matrix(params, sub, sub)
            if not np.isfinite(gram).all():
                raise NonFiniteKernelError(
                    f"kernel matrix of classes {a} and {b} is not finite "
                    "(the kernel parameters overflow)")
            alpha, bias, converged = _smo(gram, sub_y, params.C)
            if not converged:
                warnings.warn(
                    f"SMO for classes {a} and {b} stopped at the iteration "
                    f"cap of {SMO_MAX_ITER_FACTOR * len(sub_y)} before "
                    "converging", RuntimeWarning, stacklevel=2)
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
        with np.errstate(over="ignore", invalid="ignore"):
            f = machine.decision(model.params, Xs)
        if not np.isfinite(f).all():
            raise NonFiniteKernelError(
                f"decision of classes {machine.first} and {machine.second} "
                "is not finite (the feature values overflow the kernel)")
        win_first = f >= 0
        ka, kb = index[machine.first], index[machine.second]
        votes[win_first, ka] += 1
        votes[~win_first, kb] += 1
        magnitude[win_first, ka] += f[win_first]
        magnitude[~win_first, kb] -= f[~win_first]
    return votes, magnitude


def svm_predict_batch(model: SvmModel, features) -> np.ndarray:
    """Predicted labels for a feature matrix; a single vector is one row."""
    votes, magnitude = svm_decision_table(model, np.atleast_2d(
        np.asarray(features, dtype=np.float64)))
    classes = np.array(model.classes, dtype=np.int64)
    # most votes, then largest magnitude, then the smaller label
    order = np.lexsort((np.broadcast_to(-classes, votes.shape), magnitude,
                        votes), axis=-1)
    return classes[order[:, -1]]

