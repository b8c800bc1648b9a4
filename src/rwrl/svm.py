"""One-vs-one kernel SVM trained with sequential minimal optimization.

One binary C-SVC is trained per unordered class pair on z-scored features;
prediction lets every machine vote by the sign of its decision, and a vote
tie goes to the class appearing first, the smaller label, as in LIBSVM
(Chang & Lin, ACM TIST 2011, §4-7). Training caches a Gram matrix per
pair; a chunk of probe rows takes one kernel against the support-vector
pool, and each decision sums it left to right over the pool rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .errors import (MAX_DEGREE, MAX_QUOTE, ConvergenceError,
                     NonFiniteKernelError, SingleClassError)
from .rows import probe_chunks, scale_features, training_rows

SMO_TOLERANCE = 1e-3        # stop once the KKT violation gap is below this
SMO_TAU = 1e-12             # curvature used where K_ii + K_jj - 2 K_ij <= 0
SMO_MAX_ITER_FACTOR = 100   # ConvergenceError after 100*n iterations


@dataclass
class KernelParams:
    kind: str = "polynomial"          # linear | polynomial | rbf
    degree: int = 3
    gamma: float | None = None        # default 1 / n_features at training
    coef0: float = 1.0
    C: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "polynomial", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r:.{MAX_QUOTE}}")
        if not (1 <= self.degree <= MAX_DEGREE and self.degree % 1 == 0):
            raise ValueError(f"degree must be an integer in 1..{MAX_DEGREE}")
        # as the CLI flags and the model file's float rule: finite values,
        # held as the int and floats that a model file's kernel line writes
        self.degree = int(self.degree)
        if self.gamma is not None:
            self.gamma = _finite("gamma", self.gamma, 0.0)
        self.coef0 = _finite("coef0", self.coef0, -math.inf)
        self.C = _finite("C", self.C, 0.0)


def _finite(name: str, value, low: float) -> float:
    """`value` as a float, if it is finite and above `low`; an int past
    float range is refused, not left to overflow."""
    try:
        if low < value < math.inf:
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{name} must be finite" + (" and > 0" if low == 0 else ""))


def kernel_matrix(params: KernelParams, a: np.ndarray, b: np.ndarray,
                  b_norms: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix K[i, j] = k(a_i, b_j). The RBF kernel takes |b_j|² from
    `b_norms` when given, which must be `np.sum(b * b, axis=1)`."""
    if params.kind == "linear":
        return a @ b.T
    if params.kind == "polynomial":
        # in place: the ufuncs and values of (gamma * (a @ b.T) + coef0)
        # ** degree, so the same bits, with no temporary of K's size
        K = a @ b.T
        K *= params.gamma
        K += params.coef0
        return np.power(K, params.degree, out=K)
    if b_norms is None:
        b_norms = np.sum(b * b, axis=1)
    sq = np.sum(a * a, axis=1)[:, None] + b_norms[None, :] - 2.0 * (a @ b.T)
    return np.exp(-params.gamma * np.maximum(sq, 0.0))


@dataclass
class BinaryMachine:
    """One trained class-pair machine; decisions >= 0 vote `first`."""

    first: int
    second: int
    pool_index: np.ndarray            # (m,) support vectors' rows of the pool
    coefficients: np.ndarray          # (m,) beta_k = y_k alpha_k, nonzero
    bias: float
    samples: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def support_vectors(self) -> np.ndarray:    # read by perfbench's replay
        return self.samples[self.pool_index]    # z-scored, gathered per call


@dataclass
class SvmModel:
    kind = "svm"                # the model file's kind; not a field
    classes: list[int]
    params: KernelParams
    mean: np.ndarray
    std: np.ndarray
    pool: np.ndarray          # (P, d) raw support vectors, each row once
    machines: list[BinaryMachine]

    def __post_init__(self):    # z-score the pool once, for every machine
        self.samples = scale_features(self.pool, self.mean, self.std)
        # and the RBF kernel's |s|² of each row, which would otherwise be
        # a (P, d) temporary per chunk of probe rows
        self.norms = (np.sum(self.samples * self.samples, axis=1)
                      if self.params.kind == "rbf" else None)
        self.weights = np.zeros((len(self.pool), len(self.machines)))
        for m, machine in enumerate(self.machines):     # beta in column m
            np.add.at(self.weights[:, m], machine.pool_index,
                      machine.coefficients)
            machine.samples = self.samples

    @property
    def dim(self) -> int:
        return len(self.mean)

    def predict(self, features) -> np.ndarray:
        """Predicted labels for a feature matrix; a single vector is one row:
        the class of most votes, the first of the sorted classes on a tie."""
        votes = svm_decision_table(self, features)
        return np.array(self.classes, dtype=np.int64)[votes.argmax(axis=1)]


def _smo(K: np.ndarray, y: np.ndarray, C: float
         ) -> tuple[np.ndarray, float, bool]:
    """Solve one binary C-SVC dual in beta = y alpha; return beta, the bias
    and convergence.

    SMO with second-order working-set selection (Fan, Chen & Lin, JMLR
    2005, as in LIBSVM) over the box min(0, C y) <= beta <= max(0, C y)
    (Bottou & Lin, 2007). score = -yG, with G the gradient of
    1/2 a'Qa - sum(a) and Q = yy'K. Each step moves the pair (i, j) along
    beta_i += t, beta_j -= t, which keeps sum(beta) = 0, so score changes by
    -t (K_i - K_j).
    """
    n = len(y)
    lb = np.minimum(0.0, C * y)
    ub = np.maximum(0.0, C * y)
    beta = np.zeros(n)
    score = y.copy()                    # -yG at beta = 0, where G = -1
    diag = np.diag(K)
    converged = False
    for _ in range(SMO_MAX_ITER_FACTOR * n):
        up, low = beta < ub, beta > lb
        i = int(np.where(up, score, -np.inf).argmax())
        gap = score[i] - np.where(low, score, np.inf).min()
        if gap < SMO_TOLERANCE:
            converged = True
            break
        b = score[i] - score
        a = diag[i] + diag - 2.0 * K[i]
        a = np.where(a > 0, a, SMO_TAU)
        j = int(np.where(low & (b > 0), b * b / a, -np.inf).argmax())
        # largest step that keeps both coefficients inside their box
        room_i, room_j = ub[i] - beta[i], beta[j] - lb[j]
        t = min(b[j] / a[j], room_i, room_j)
        score -= t * (K[i] - K[j])
        beta[i] = ub[i] if t == room_i else beta[i] + t
        beta[j] = lb[j] if t == room_j else beta[j] - t

    # rho as in LIBSVM: the mean of yG over free coefficients, else the
    # midpoint of the bounds that the coefficients at lb or ub put on it
    yG = -score
    up = beta < ub
    free = up & (beta > lb)
    if free.any():
        rho = yG[free].mean()
    else:
        rho = 0.5 * (yG[up].min() + yG[~up].max())
    return beta, -float(rho), converged


def svm_train(features, labels, params: KernelParams | None = None,
              seed: int = 0, scale: bool = True) -> SvmModel:
    """Train a one-vs-one SVM; the result is fully deterministic.

    `seed` has no effect: the solver makes no random choice. It is kept
    so that callers passing one keep working.
    """
    X, y, classes, mean, std = training_rows(features, labels, scale)
    if len(classes) < 2:
        raise SingleClassError("need at least two distinct labels")

    params = params or KernelParams()
    if params.gamma is None:
        params = replace(params, gamma=1.0 / X.shape[1])

    solved = []
    used = np.zeros(len(X), dtype=bool)     # support vector of some machine
    for a, b in combinations(classes, 2):
        rows = np.flatnonzero((y == a) | (y == b))
        sub = scale_features(X[rows], mean, std)
        sub_y = np.where(y[rows] == a, 1.0, -1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            gram = kernel_matrix(params, sub, sub)
        if not np.isfinite(gram).all():
            raise NonFiniteKernelError(
                f"kernel matrix of classes {a} and {b} is not finite "
                "(the kernel parameters overflow)")
        beta, bias, converged = _smo(gram, sub_y, params.C)
        del sub, gram   # before the next pair's: one Gram matrix at a time
        if not converged:
            raise ConvergenceError(
                f"SMO for classes {a} and {b} stopped at the iteration cap "
                f"of {SMO_MAX_ITER_FACTOR * len(sub_y)} before converging "
                f"at C={params.C:g}; a smaller C converges in fewer iterations")
        sv = beta != 0
        used[rows[sv]] = True
        solved.append((a, b, rows[sv], beta[sv], bias))
    pool_row = np.cumsum(used) - 1      # training row -> row of the pool
    machines = [BinaryMachine(a, b, pool_row[sv_rows], coefficients, bias)
                for a, b, sv_rows, coefficients, bias in solved]
    return SvmModel(classes, params, mean, std, X[used], machines)


def _decisions(model: SvmModel, Z: np.ndarray) -> np.ndarray:
    """(rows, machines) decisions: one pool kernel, summed left to right
    over the pool rows by einsum's own loop (BLAS `K @ W` sums 1 row
    otherwise than many), plus each bias."""
    with np.errstate(over="ignore", invalid="ignore"):
        K = kernel_matrix(model.params, Z, model.samples, model.norms)
        F = np.einsum("rp,pm->rm", K, model.weights)
        F += [machine.bias for machine in model.machines]
    if not np.isfinite(F).all():    # W's zeros make inf NaN in every machine
        raise NonFiniteKernelError(
            "a decision is not finite (the feature values overflow the kernel)")
    return F


def svm_decision_table(model: SvmModel, features) -> np.ndarray:
    """Votes (n, K) for a feature matrix; a single vector is one row. A
    machine votes for its first class when its decision is >= 0."""
    index = {c: k for k, c in enumerate(model.classes)}

    def vote(Z):
        votes = np.zeros((len(Z), len(model.classes)), dtype=np.int64)
        rows = np.arange(len(Z))
        for machine, f in zip(model.machines, _decisions(model, Z).T):
            votes[rows, np.where(f >= 0, index[machine.first],
                                 index[machine.second])] += 1
        return votes

    # a chunk's z-scored rows, decisions and pool kernel (three for RBF)
    width = model.dim + 3 * len(model.pool) + len(model.machines)
    return probe_chunks(model, features, 8 * width, vote)


svm_predict_batch = SvmModel.predict
