import tracemalloc

import numpy as np
import pytest

from rwrl.errors import (
    ConvergenceError,
    DimensionMismatchError,
    EmptyDataError,
    NonFiniteKernelError,
    SingleClassError,
)
from rwrl.rows import CHUNK_BYTES, scale_features
from rwrl.svm import (
    SMO_TOLERANCE,
    BinaryMachine,
    KernelParams,
    SvmModel,
    _smo,
    kernel_matrix,
    svm_decision_table,
    svm_predict_batch,
    svm_train,
)

from oracle_utils import smo_alpha_reference

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


def feature_shaped(rng, n):
    """n rows of 196 non-negative integer cells around ten class
    prototypes, and their labels."""
    centers = rng.integers(0, 20, size=(10, 196))
    y = rng.integers(0, 10, size=n)
    return np.maximum(0, centers[y] + rng.integers(-6, 7, size=(n, 196))), y


class TestTraining:
    def test_linear_separable(self):
        model = svm_train(SEPARABLE_X, SEPARABLE_Y,
                          KernelParams("linear", C=10.0))
        assert (svm_predict_batch(model, SEPARABLE_X) == SEPARABLE_Y).all()

    def test_xor_with_quadratic_kernel(self):
        model = svm_train(XOR_X, XOR_Y,
                          KernelParams("polynomial", degree=2, coef0=1.0,
                                       C=10.0))
        assert (svm_predict_batch(model, XOR_X) == XOR_Y).all()

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            svm_train(np.zeros((3, 2)), np.zeros(3, dtype=int))

    @pytest.mark.parametrize("scale", [True, False])
    @pytest.mark.parametrize("shape", [(0, 2), (4, 0)],
                             ids=["no-rows", "no-columns"])
    def test_empty_rejected(self, shape, scale):
        # no column would make the default gamma 1 / 0
        with pytest.raises(EmptyDataError):
            svm_train(np.zeros(shape), np.arange(shape[0]) % 2, scale=scale)

    def test_label_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            svm_train(np.zeros((3, 2)), np.array([0, 1]))

    def test_dual_constraints_hold(self):
        X, y = ten_class_blobs(seed=3)
        model = svm_train(X, y, KernelParams("rbf", gamma=0.5, C=2.0))
        for machine in model.machines:
            alphas = np.abs(machine.coefficients)
            assert (alphas <= 2.0 + 1e-9).all()
            assert (alphas > 0).all()  # only support vectors are stored
            assert abs(machine.coefficients.sum()) <= 1e-6

    def test_separable_margins(self):
        model = svm_train(SEPARABLE_X, SEPARABLE_Y,
                          KernelParams("linear", C=10.0))
        machine = model.machines[0]
        Xs = scale_features(SEPARABLE_X, model.mean, model.std)
        decisions = (kernel_matrix(model.params, Xs, machine.support_vectors)
                     @ machine.coefficients + machine.bias)
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
            margin = sign * (kernel_matrix(model.params, rows,
                                           machine.support_vectors)
                             @ machine.coefficients + machine.bias)
            at_zero, at_c = alpha == 0, alpha == C
            free = ~at_zero & ~at_c
            assert (margin[at_zero] >= 1 - tol).all()
            assert (np.abs(margin[free] - 1) <= tol).all()
            assert (margin[at_c] <= 1 + tol).all()

    def test_iteration_cap_raises(self):
        # a large C on overlapping classes needs more than 100 n SMO steps
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 6))
        y = np.repeat([0, 1], 20)
        with pytest.raises(ConvergenceError,
                           match="classes 0 and 1 .* cap of 4000 .* C=100;"):
            svm_train(X, y, KernelParams("linear", C=100.0))

    def test_no_copy_of_all_rows(self):
        # each class pair's rows are z-scored on their own; scale=False,
        # as X.std alone makes a temporary the size of X
        rng = np.random.default_rng(0)
        centers = rng.uniform(-10, 10, size=(10, 196))
        X = (np.repeat(centers, 80, axis=0)
             + rng.normal(scale=0.3, size=(800, 196)))
        y = np.repeat(np.arange(10), 80)
        tracemalloc.start()
        try:
            svm_train(X, y, scale=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes

    def test_one_gram_matrix_at_a_time(self):
        # three classes of 400 two-column rows: each pair's 800x800 Gram
        # matrix (5 MB) dwarfs X (19 KB), so a pair's rows and Gram matrix
        # kept alive while the next pair's are built would double the peak
        rng = np.random.default_rng(0)
        X = (np.repeat([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]], 400, axis=0)
             + rng.normal(size=(1200, 2)))
        y = np.repeat([0, 1, 2], 400)
        gram_bytes = 800 * 800 * X.itemsize
        tracemalloc.start()
        try:
            svm_train(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * gram_bytes

    def test_non_finite_kernel_rejected(self):
        X = np.vstack([np.eye(3), -np.eye(3)])
        y = np.array([0, 0, 1, 1, 2, 2])
        with pytest.raises(NonFiniteKernelError, match="classes 0 and 1"):
            svm_train(X, y, KernelParams("polynomial", coef0=1e300))

    def test_duplicated_training_set_same_predictions(self):
        rng = np.random.default_rng(5)
        probes = rng.uniform(-1, 6, size=(40, 2))
        base = svm_train(SEPARABLE_X, SEPARABLE_Y,
                         KernelParams("linear", C=10.0))
        doubled = svm_train(np.vstack([SEPARABLE_X, SEPARABLE_X]),
                            np.concatenate([SEPARABLE_Y, SEPARABLE_Y]),
                            KernelParams("linear", C=10.0))
        assert (svm_predict_batch(base, probes)
                == svm_predict_batch(doubled, probes)).all()


class TestPrediction:
    def test_training_points_recovered(self):
        X, y = ten_class_blobs(seed=6)
        model = svm_train(X, y, KernelParams("polynomial"))
        assert (svm_predict_batch(model, X) == y).all()

    def test_vote_counts_sum(self):
        X, y = ten_class_blobs(seed=8)
        model = svm_train(X, y, KernelParams("polynomial"))
        votes = svm_decision_table(model, X[17:18])
        assert votes[0].sum() == 45
        assert svm_predict_batch(model, X[17])[0] == y[17]

    def test_vote_rule(self):
        # linear machines on the pool [[1, 0], [0, 1]], unscaled: each
        # machine's decisions on the probes below are exact, zero included
        machines = [
            BinaryMachine(0, 1, np.array([0]), np.array([1.0]), -1.0),
            BinaryMachine(0, 2, np.array([1]), np.array([2.0]), -0.5),
            BinaryMachine(1, 2, np.array([0, 1]), np.array([1.0, -1.0]), 0.25),
        ]
        model = SvmModel([0, 1, 2], KernelParams("linear"), np.zeros(2),
                         np.ones(2), np.eye(2), machines)
        probes = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        decisions = [[0.0, -1.0, 1.0], [-0.5, 1.5, 3.5], [1.25, -0.75, 0.25]]
        # a machine votes `first` when f >= 0, else `second`
        votes = np.zeros((3, 3), dtype=np.int64)
        for machine, row_f in zip(machines, decisions):
            for row, f in enumerate(row_f):
                winner = machine.first if f >= 0 else machine.second
                votes[row, winner] += 1
        assert votes.tolist() == [[1, 1, 1], [1, 1, 1], [2, 1, 0]]
        got_votes = svm_decision_table(model, probes)
        assert got_votes.tolist() == votes.tolist()
        # equal votes: the class appearing first, the smaller label
        assert svm_predict_batch(model, probes).tolist() == [0, 0, 0]

    def test_dimension_mismatch(self):
        model = svm_train(SEPARABLE_X, SEPARABLE_Y,
                          KernelParams("linear"))
        with pytest.raises(DimensionMismatchError):
            svm_predict_batch(model, np.zeros(5))

    @pytest.mark.parametrize("kind", ["linear", "polynomial", "rbf"])
    def test_votes_do_not_depend_on_the_batch(self, kind):
        # midpoints of two rows sit near the machines' decision boundaries
        rng = np.random.default_rng(28)
        X, y = feature_shaped(rng, 300)
        probes = (X[:100] + X[rng.permutation(300)[:100]]) / 2
        model = svm_train(X, y, KernelParams(kind))
        whole = svm_decision_table(model, probes)
        for batch in (1, 2, 33):
            parts = [svm_decision_table(model, probes[a:a + batch])
                     for a in range(0, len(probes), batch)]
            assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("kind, chunks", [
        ("linear", 1.25), ("polynomial", 1.25), ("rbf", 2)])
    def test_peak_memory_stays_within_its_chunks(self, kind, chunks):
        # rows are z-scored a chunk at a time: no copy of all 1000 (1.5 MB);
        # the RBF kernel holds temporaries of its kernel rows besides
        rng = np.random.default_rng(29)
        X, y = feature_shaped(rng, 300)
        model = svm_train(X, y, KernelParams(kind))
        probes = feature_shaped(rng, 1000)[0].astype(np.float64)
        tracemalloc.start()
        try:
            svm_predict_batch(model, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= chunks * CHUNK_BYTES


class TestKernels:
    def test_linear(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        assert kernel_matrix(KernelParams("linear"), a, b)[0, 0] == 11.0

    def test_polynomial(self):
        p = KernelParams("polynomial", degree=2, gamma=1.0, coef0=1.0)
        a = np.array([[1.0, 0.0]])
        assert kernel_matrix(p, a, a)[0, 0] == 4.0  # (1*1 + 1)^2

    @pytest.mark.parametrize("degree", [1, 2, 3, 7])
    @pytest.mark.parametrize("gamma, coef0", [(1 / 196, 1.0), (0.37, -2.5)])
    def test_polynomial_in_place_equals_the_expression(self, degree, gamma,
                                                       coef0):
        # kernel_matrix builds K in place, with the ufuncs of this
        # expression: the bits must be the same
        rng = np.random.default_rng(1331)
        a, b = rng.normal(size=(40, 196)), rng.normal(size=(30, 196))
        p = KernelParams("polynomial", degree=degree, gamma=gamma, coef0=coef0)
        expected = (gamma * (a @ b.T) + coef0) ** degree
        assert kernel_matrix(p, a, b).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["linear", "polynomial", "rbf"])
    def test_row_alone_equals_its_row_of_the_matrix(self, kind):
        # z-scores on the grid make every product exact in any summation
        # order, so the shape of the product cannot change a bit
        X, _ = feature_shaped(np.random.default_rng(27), 600)
        Z = scale_features(X, X.mean(axis=0), X.std(axis=0))
        p = KernelParams(kind, gamma=1 / 196)
        K = kernel_matrix(p, Z, Z)
        for i in (0, 1, 37, 599):
            alone = kernel_matrix(p, Z[i:i + 1], Z)[0]
            assert alone.tobytes() == K[i].tobytes()

    def test_rbf_diagonal_is_one(self):
        p = KernelParams("rbf", gamma=0.7)
        a = np.random.default_rng(0).normal(size=(5, 3))
        assert np.allclose(np.diag(kernel_matrix(p, a, a)), 1.0)

    def test_degree_must_fit_a_model_file(self):
        # model files hold int64 integers, so a larger degree could be
        # saved but never loaded
        with pytest.raises(ValueError, match="degree"):
            KernelParams("linear", degree=2 ** 63)
        assert KernelParams("linear", degree=2 ** 63 - 1).degree == 2 ** 63 - 1

    def test_degree_is_an_integer(self):
        # a kernel line writes the degree as an integer: 2.5 would be
        # trained with ** 2.5 and saved as some other degree
        for degree in (2.5, np.nan, np.float64(1.5)):
            with pytest.raises(ValueError, match="integer"):
                KernelParams("polynomial", degree=degree)
        for degree in (3.0, np.int64(3), np.float64(3.0)):
            stored = KernelParams("polynomial", degree=degree).degree
            assert stored == 3 and type(stored) is int, degree

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            KernelParams("polynomial", degree=0)
        with pytest.raises(ValueError):
            KernelParams("rbf", gamma=-1.0)
        with pytest.raises(ValueError):
            KernelParams("polynomial", C=0.0)
        with pytest.raises(ValueError):
            KernelParams("sigmoid")
        # finite values only, as the CLI flags and model files hold
        for kind, values in (("polynomial", {"C": np.nan}),
                             ("polynomial", {"C": np.inf}),
                             ("rbf", {"gamma": np.inf}),
                             ("linear", {"gamma": np.nan}),
                             ("linear", {"coef0": np.inf}),
                             ("polynomial", {"coef0": -np.inf}),
                             ("polynomial", {"coef0": np.nan})):
            with pytest.raises(ValueError):
                KernelParams(kind, **values)

    @pytest.mark.parametrize("field, value", [
        ("gamma", 10 ** 400), ("coef0", 10 ** 400), ("coef0", -10 ** 400),
        ("C", 10 ** 400)], ids=["gamma", "coef0", "coef0-negative", "C"])
    def test_int_past_float_range_rejected(self, field, value):
        # float() of such an int raises OverflowError, not the ValueError
        # every other unusable value raises
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            KernelParams("rbf", **{field: value})


class TestSolver:
    """`_smo` solves in beta = y alpha what the alpha-form reference solves,
    bit for bit: beta, the bias and the exit reason."""

    @staticmethod
    def overlapping_blobs(seed, n=20, d=8, shift=1.0):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal(0, 1, (n, d)), rng.normal(shift, 1, (n, d))])
        return X, np.repeat([1.0, -1.0], n)

    @staticmethod
    def solve_both(K, y, C):
        beta, bias, converged = _smo(K, y, C)
        alpha, ref_bias, ref_converged = smo_alpha_reference(K, y, C)
        assert np.array_equal(beta, y * alpha)
        assert np.array_equal(beta != 0, alpha > 0)
        assert bias == ref_bias and converged == ref_converged
        return alpha, converged

    @pytest.mark.parametrize("C", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    @pytest.mark.parametrize("params", [
        KernelParams("linear"),
        KernelParams("polynomial", gamma=0.25),
        KernelParams("rbf", gamma=0.25),
    ], ids=lambda p: p.kind)
    def test_beta_is_y_alpha_of_the_reference(self, params, C):
        X, y = self.overlapping_blobs(seed=int(np.log10(C)) + 3)
        alpha, converged = self.solve_both(kernel_matrix(params, X, X), y, C)
        assert converged and (alpha > 0).any()

    def test_no_free_coefficient(self):
        # every multiplier ends at 0 or C: the bias is the midpoint branch
        X, y = self.overlapping_blobs(seed=0)
        C = 1e-3
        K = kernel_matrix(KernelParams("rbf", gamma=0.25), X, X)
        alpha, _ = self.solve_both(K, y, C)
        assert not ((alpha > 0) & (alpha < C)).any()

    def test_iteration_cap(self):
        # as test_convergence_error_exits_2_writing_nothing: C = 1e300 on
        # overlapping classes stops at the cap
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (10, 6)), rng.normal(0.3, 1, (10, 6))])
        y = np.repeat([1.0, -1.0], 10)
        _, converged = self.solve_both(X @ X.T, y, 1e300)
        assert not converged
