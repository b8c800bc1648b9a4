import numpy as np
import pytest

from rwrl.errors import (
    DimensionMismatchError,
    EmptyDataError,
    NonFiniteKernelError,
    SingleClassError,
)
from rwrl.features import scale_features
from rwrl.svm import (
    SMO_TOLERANCE,
    KernelParams,
    kernel_matrix,
    svm_decision_table,
    svm_predict_batch,
    svm_train,
)

SEPARABLE_X = np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 4.0], [5.0, 5.0]])
SEPARABLE_Y = np.array([0, 0, 1, 1])

XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([0, 0, 1, 1])


def ten_class_blobs(n_per_class=6, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10, 10, size=(10, 5))
    X, y = [], []
    for label, center in enumerate(centers):
        X.append(center + rng.normal(scale=0.3, size=(n_per_class, 5)))
        y.extend([label] * n_per_class)
    return np.vstack(X), np.array(y)


class TestTraining:
    def test_linear_separable(self):
        model = svm_train(SEPARABLE_X, SEPARABLE_Y,
                          KernelParams("linear", C=10.0), seed=0)
        assert (svm_predict_batch(model, SEPARABLE_X) == SEPARABLE_Y).all()

    def test_xor_with_quadratic_kernel(self):
        model = svm_train(XOR_X, XOR_Y,
                          KernelParams("polynomial", degree=2, coef0=1.0,
                                       C=10.0), seed=0)
        assert (svm_predict_batch(model, XOR_X) == XOR_Y).all()

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            svm_train(np.zeros((3, 2)), np.zeros(3, dtype=int))

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            svm_train(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_label_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            svm_train(np.zeros((3, 2)), np.array([0, 1]))

    def test_dual_constraints_hold(self):
        X, y = ten_class_blobs(seed=3)
        model = svm_train(X, y, KernelParams("rbf", gamma=0.5, C=2.0), seed=1)
        for machine in model.machines:
            alphas = np.abs(machine.coefficients)
            assert (alphas <= 2.0 + 1e-9).all()
            assert (alphas > 0).all()  # only support vectors are stored
            assert abs(machine.coefficients.sum()) <= 1e-6

    def test_separable_margins(self):
        model = svm_train(SEPARABLE_X, SEPARABLE_Y,
                          KernelParams("linear", C=10.0), seed=0)
        machine = model.machines[0]
        Xs = scale_features(SEPARABLE_X, model.mean, model.std)
        decisions = machine.decision(model.params, Xs)
        signed = np.where(SEPARABLE_Y == machine.first, 1.0, -1.0) * decisions
        assert (signed >= 1.0 - 1e-3).all()

    def test_deterministic_model_bytes(self):
        from rwrl.model_io import model_save
        X, y = ten_class_blobs(seed=4)
        params = KernelParams("polynomial")
        a = model_save(svm_train(X, y, params, seed=7))
        b = model_save(svm_train(X, y, params, seed=7))
        c = model_save(svm_train(X, y, params, seed=8))
        assert a == b == c   # the solver makes no random choice

    @pytest.mark.parametrize("params", [
        KernelParams("linear", C=0.5),
        KernelParams("polynomial", C=2.0),
        KernelParams("rbf", gamma=0.3, C=1.0),
        KernelParams("rbf", gamma=0.3, C=0.01),   # no multiplier is free
    ], ids=["linear", "polynomial", "rbf", "rbf-small-C"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_saved_model_satisfies_kkt(self, params, seed):
        """Every training row meets the C-SVC optimality conditions.

        Only the loaded model and the training data are used: a row's
        multiplier is |coefficient| of the support vector equal to it, or 0.
        """
        from rwrl.model_io import model_load, model_save
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal(loc=c, size=(15, 4)) for c in (0.0, 1.0, 2.0)])
        y = np.repeat([0, 1, 2], 15)
        model = model_load(model_save(svm_train(X, y, params)))
        Xs = scale_features(X, model.mean, model.std)
        tol = SMO_TOLERANCE + 1e-9
        C = model.params.C
        for machine in model.machines:
            mask = (y == machine.first) | (y == machine.second)
            rows = Xs[mask]
            sign = np.where(y[mask] == machine.first, 1.0, -1.0)
            matches = (rows[:, None, :] == machine.support_vectors[None]).all(-1)
            assert (matches.sum(axis=0) == 1).all()
            alpha = np.abs(matches.astype(float) @ machine.coefficients)
            margin = sign * machine.decision(model.params, rows)
            at_zero, at_c = alpha == 0, alpha == C
            free = ~at_zero & ~at_c
            assert (margin[at_zero] >= 1 - tol).all()
            assert (np.abs(margin[free] - 1) <= tol).all()
            assert (margin[at_c] <= 1 + tol).all()

    def test_iteration_cap_warns_and_keeps_model(self):
        # a large C on overlapping classes needs more than 100 n SMO steps
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 6))
        y = np.repeat([0, 1], 20)
        with pytest.warns(RuntimeWarning, match="classes 0 and 1"):
            model = svm_train(X, y, KernelParams("linear", C=100.0))
        assert len(model.machines[0].coefficients) > 0
        assert (svm_predict_batch(model, X) == y).mean() > 0.5

    def test_non_finite_kernel_rejected(self):
        X = np.vstack([np.eye(3), -np.eye(3)])
        y = np.array([0, 0, 1, 1, 2, 2])
        with pytest.raises(NonFiniteKernelError, match="classes 0 and 1"):
            svm_train(X, y, KernelParams("polynomial", coef0=1e300))

    def test_duplicated_training_set_same_predictions(self):
        rng = np.random.default_rng(5)
        probes = rng.uniform(-1, 6, size=(40, 2))
        base = svm_train(SEPARABLE_X, SEPARABLE_Y,
                         KernelParams("linear", C=10.0), seed=0)
        doubled = svm_train(np.vstack([SEPARABLE_X, SEPARABLE_X]),
                            np.concatenate([SEPARABLE_Y, SEPARABLE_Y]),
                            KernelParams("linear", C=10.0), seed=0)
        assert (svm_predict_batch(base, probes)
                == svm_predict_batch(doubled, probes)).all()


class TestPrediction:
    def test_training_points_recovered(self):
        X, y = ten_class_blobs(seed=6)
        model = svm_train(X, y, KernelParams("polynomial"), seed=0)
        assert (svm_predict_batch(model, X) == y).all()

    def test_vote_counts_sum(self):
        X, y = ten_class_blobs(seed=8)
        model = svm_train(X, y, KernelParams("polynomial"), seed=0)
        votes, _ = svm_decision_table(model, X[17:18])
        assert votes[0].sum() == 45
        assert svm_predict_batch(model, X[17])[0] == y[17]

    def test_dimension_mismatch(self):
        model = svm_train(SEPARABLE_X, SEPARABLE_Y,
                          KernelParams("linear"), seed=0)
        with pytest.raises(DimensionMismatchError):
            svm_predict_batch(model, np.zeros(5))


class TestKernels:
    def test_linear(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        assert kernel_matrix(KernelParams("linear"), a, b)[0, 0] == 11.0

    def test_polynomial(self):
        p = KernelParams("polynomial", degree=2, gamma=1.0, coef0=1.0)
        a = np.array([[1.0, 0.0]])
        assert kernel_matrix(p, a, a)[0, 0] == 4.0  # (1*1 + 1)^2

    def test_rbf_diagonal_is_one(self):
        p = KernelParams("rbf", gamma=0.7)
        a = np.random.default_rng(0).normal(size=(5, 3))
        assert np.allclose(np.diag(kernel_matrix(p, a, a)), 1.0)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            KernelParams("polynomial", degree=0)
        with pytest.raises(ValueError):
            KernelParams("rbf", gamma=-1.0)
        with pytest.raises(ValueError):
            KernelParams("polynomial", C=0.0)
        with pytest.raises(ValueError):
            KernelParams("sigmoid")
