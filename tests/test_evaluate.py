import csv

import numpy as np
import pytest

import rwrl.evaluate

from rwrl.errors import (
    DegenerateMatrixError,
    EmptyMatrixError,
    LengthMismatchError,
    TooFewSamplesError,
    UnknownLabelError,
)
from rwrl.evaluate import (
    ConfusionMatrix,
    class_metrics,
    confusion,
    holdout_split,
    overall_metrics,
    read_confusion_csv,
    render_report,
    score_folds,
    stratified_kfold,
    write_confusion_csv,
    write_reports,
)

from reference_data import (
    EXPECTED_OVERALL,
    EXPECTED_PER_CLASS,
    REFERENCE_CLASSES,
    REFERENCE_COUNTS,
)


def reference_cm():
    return ConfusionMatrix(REFERENCE_CLASSES, REFERENCE_COUNTS.copy())


class TestStratifiedKfold:
    def test_partition(self):
        labels = np.repeat(np.arange(4), 25)
        folds = stratified_kfold(labels, 5, seed=3)
        joined = np.concatenate(folds)
        assert len(joined) == len(labels)
        assert len(np.unique(joined)) == len(labels)

    def test_balanced_per_class(self):
        labels = np.repeat(np.arange(10), 600)
        folds = stratified_kfold(labels, 3, seed=0)
        for fold in folds:
            counts = np.bincount(labels[fold], minlength=10)
            assert (counts == 200).all()

    def test_uneven_classes_differ_by_at_most_one(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 5, size=137)
        folds = stratified_kfold(labels, 4, seed=9)
        for cls in range(5):
            per_fold = [int((labels[f] == cls).sum()) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            stratified_kfold(np.array([0, 0, 1]), 2, seed=0)

    def test_deterministic(self):
        labels = np.repeat(np.arange(3), 8)
        a = stratified_kfold(labels, 4, seed=11)
        b = stratified_kfold(labels, 4, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_k_lower_bound(self):
        with pytest.raises(ValueError):
            stratified_kfold(np.array([0, 1]), 1, seed=0)


class TestHoldoutSplit:
    def test_600_per_class_split(self):
        labels = np.repeat(np.arange(10), 600)
        train, test = holdout_split(labels, 400, seed=1)
        assert len(train) == 4000 and len(test) == 2000
        assert (np.bincount(labels[train]) == 400).all()
        assert (np.bincount(labels[test]) == 200).all()
        assert len(np.intersect1d(train, test)) == 0

    def test_zero_train(self):
        labels = np.array([0, 0, 1, 1])
        train, test = holdout_split(labels, 0, seed=0)
        assert len(train) == 0 and len(test) == 4

    def test_deterministic(self):
        labels = np.repeat(np.arange(3), 10)
        assert all(np.array_equal(a, b) for a, b in
                   zip(holdout_split(labels, 4, seed=5),
                       holdout_split(labels, 4, seed=5)))

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            holdout_split(np.array([0, 0, 1]), 1, seed=0)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            holdout_split(np.array([0, 0, 1, 1]), -1, seed=0)


class TestConfusion:
    def test_empty(self):
        cm = confusion([], [], [0, 1])
        assert cm.counts.sum() == 0

    def test_all_correct_is_diagonal(self):
        y = np.array([0, 1, 2, 2, 1])
        cm = confusion(y, y, [0, 1, 2])
        assert np.array_equal(cm.counts, np.diag([1, 2, 2]))

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            confusion([0, 3], [0, 0], [0, 1])

    @pytest.mark.parametrize("y_true, y_pred, classes", [
        ([1.7], [1], [0, 1]),
        ([0], [-1], [0, 1]),
        ([0], [np.nan], [0, 1]),
        ([0], [0], []),
    ], ids=["fraction", "below-every-class", "nan", "no-classes"])
    def test_label_equal_to_no_class_is_unknown(self, y_true, y_pred, classes):
        with pytest.raises(UnknownLabelError):
            confusion(y_true, y_pred, classes)

    def test_unequal_lengths(self):
        with pytest.raises(LengthMismatchError):
            confusion([0, 1, 1], [0, 1], [0, 1])

    def test_counts_each_pair_in_the_callers_class_order(self):
        rng = np.random.default_rng(5)
        classes = [7, -2, 3, 0]
        y_true, y_pred = rng.choice(classes, (2, 500))
        expected = np.zeros((4, 4), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            expected[classes.index(t), classes.index(p)] += 1
        cm = confusion(y_true, y_pred, classes)
        assert cm.classes == classes
        assert np.array_equal(cm.counts, expected)

    def test_reference_totals(self):
        cm = reference_cm()
        assert cm.total == 6000
        assert int(np.trace(cm.counts)) == 5701


class TestClassMetrics:
    def test_reference_values(self):
        per_class = class_metrics(reference_cm())
        assert per_class[0].tpr == pytest.approx(591 / 600)
        assert per_class[0].precision == pytest.approx(591 / 599)
        assert per_class[9].tpr == pytest.approx(0.917, abs=5e-4)
        assert per_class[9].auc == pytest.approx(0.954, abs=5e-4)

    def test_reference_table_reproduced(self):
        per_class = class_metrics(reference_cm())
        for cls, expected in EXPECTED_PER_CLASS.items():
            m = per_class[cls]
            got = (m.tpr, m.fpr, m.precision, m.recall, m.f_measure,
                   m.mcc, m.auc)
            for name, g, e in zip(("TPR", "FPR", "P", "R", "F", "MCC", "AUC"),
                                  got, expected):
                assert abs(round(g, 3) - e) <= 0.001 + 1e-9, (cls, name, g, e)

    def test_perfect_matrix(self):
        cm = ConfusionMatrix([0, 1, 2], np.diag([5, 5, 5]).astype(np.int64))
        for m in class_metrics(cm).values():
            assert m.tpr == m.precision == m.recall == 1.0
            assert m.f_measure == m.mcc == m.auc == 1.0
            assert m.fpr == 0.0

    def test_auc_one_iff_perfect_class(self):
        counts = np.array([[5, 0, 0], [0, 4, 1], [0, 2, 3]], dtype=np.int64)
        metrics = class_metrics(ConfusionMatrix([0, 1, 2], counts))
        assert metrics[0].auc == 1.0
        assert metrics[0].tpr == 1.0 and metrics[0].fpr == 0.0
        for cls in (1, 2):
            assert metrics[cls].auc < 1.0
            assert metrics[cls].tpr < 1.0 or metrics[cls].fpr > 0.0

    def test_degenerate_matrix(self):
        counts = np.array([[3, 0], [0, 0]], dtype=np.int64)
        with pytest.raises(DegenerateMatrixError):
            class_metrics(ConfusionMatrix([0, 1], counts))


class TestIntegerOverflow:
    # the MCC product and n * n overflow int64 well below these counts
    def test_metrics_beyond_int64_products(self):
        big, small = 3_000_000_000, 1_000_000_000
        cm = ConfusionMatrix([0, 1], np.array([[big, small], [small, big]]))
        assert [m.mcc for m in class_metrics(cm).values()] == [0.5, 0.5]
        assert overall_metrics(cm).kappa == 0.5


class TestOverallMetrics:
    def test_reference_values(self):
        overall = overall_metrics(reference_cm())
        assert overall.accuracy == pytest.approx(5701 / 6000)
        assert round(overall.accuracy, 4) == EXPECTED_OVERALL["accuracy"]
        assert overall.kappa == pytest.approx(EXPECTED_OVERALL["kappa"],
                                              abs=5e-5)
        assert overall.mae == pytest.approx(EXPECTED_OVERALL["mae"], abs=5e-5)
        assert overall.rmse == pytest.approx(EXPECTED_OVERALL["rmse"],
                                             abs=5e-5)
        assert overall.ci95_halfwidth == pytest.approx(0.0055, abs=5e-5)

    def test_mae_is_rmse_squared(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            counts = rng.integers(0, 50, size=(4, 4)).astype(np.int64)
            counts[np.diag_indices(4)] += 1
            overall = overall_metrics(ConfusionMatrix(list(range(4)), counts))
            assert overall.mae == pytest.approx(overall.rmse ** 2)

    def test_perfect_kappa(self):
        cm = ConfusionMatrix([0, 1], np.diag([7, 9]).astype(np.int64))
        assert overall_metrics(cm).kappa == pytest.approx(1.0)

    def test_random_permutation_kappa_near_zero(self):
        y_true = np.repeat(np.arange(10), 100)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y_pred = rng.permutation(y_true)
            cm = confusion(y_true, y_pred, list(range(10)))
            assert abs(overall_metrics(cm).kappa) <= 0.05

    def test_empty_matrix(self):
        cm = ConfusionMatrix([0, 1], np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(EmptyMatrixError):
            overall_metrics(cm)


class TestCrossValidate:
    def test_fold_accuracies_and_pooling(self):
        rng = np.random.default_rng(15)
        X = np.vstack([rng.normal(loc=c * 4, size=(30, 3)) for c in range(3)])
        y = np.repeat(np.arange(3), 30)

        def nearest_mean(train_X, train_y, test_X):
            means = np.stack([train_X[train_y == c].mean(axis=0)
                              for c in range(3)])
            d = ((test_X[:, None, :] - means[None]) ** 2).sum(axis=2)
            return d.argmin(axis=1)

        cm, fold_acc = score_folds(X, y, stratified_kfold(y, 3, seed=0),
                                   nearest_mean)
        assert cm.total == 90
        assert len(fold_acc) == 3
        assert all(acc > 0.9 for acc in fold_acc)

    def test_one_confusion_over_all_folds(self, monkeypatch):
        y = np.repeat(np.arange(3), 4)
        folds = stratified_kfold(y, 2, seed=0)
        calls = []

        def counted(*args):
            calls.append(args)
            return confusion(*args)

        def first_class(train_X, train_y, test_X):
            return np.zeros(len(test_X), dtype=np.int64)

        monkeypatch.setattr(rwrl.evaluate, "confusion", counted)
        cm, fold_acc = score_folds(np.zeros((12, 1)), y, folds, first_class)
        assert len(calls) == 1
        assert np.array_equal(cm.counts, [[4, 0, 0], [4, 0, 0], [4, 0, 0]])
        assert fold_acc == [2 / 6, 2 / 6]


class TestReports:
    def test_text_report_rounding(self):
        cm = reference_cm()
        text = render_report(cm, class_metrics(cm), overall_metrics(cm))
        assert "0.985" in text      # class 0 TPR at 3 decimals
        assert "accuracy  0.950" in text
        assert "591" in text

    def test_csv_roundtrip_at_4_decimals(self, tmp_path):
        cm = reference_cm()
        per_class = class_metrics(cm)
        overall = overall_metrics(cm)
        report = write_reports(tmp_path, cm, per_class, overall)
        assert report == (tmp_path / "report.txt").read_text(encoding="ascii")
        with open(tmp_path / "per_class.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        for row in rows:
            m = per_class[int(row["class"])]
            assert float(row["TPR"]) == round(m.tpr, 4)
            assert float(row["MCC"]) == round(m.mcc, 4)
        with open(tmp_path / "overall.csv", newline="") as fh:
            overall_row = next(csv.DictReader(fh))
        assert float(overall_row["accuracy"]) == round(overall.accuracy, 4)
        assert float(overall_row["kappa"]) == round(overall.kappa, 4)

    def test_confusion_csv_roundtrip(self, tmp_path):
        cm = reference_cm()
        path = tmp_path / "confusion.csv"
        write_confusion_csv(path, cm)
        restored = read_confusion_csv(path)
        assert restored.classes == cm.classes
        assert np.array_equal(restored.counts, cm.counts)

    @pytest.mark.parametrize("digits, count", [
        ("0" * 700 + "5", 5),
        ("0" * 5000 + "5", None),
        ("9223372036854775808", None),      # 19 digits, one past int64
    ], ids=["700-5", "5000-None", "past-int64"])
    def test_count_digits_do_not_follow_the_interpreter(
            self, tmp_path, int_digit_limit, digits, count):
        path = tmp_path / "confusion.csv"
        path.write_text(f"class,0,1\n0,1,0\n1,0,{digits}\n")
        if count is None:
            with pytest.raises(UnknownLabelError, match="out of range"):
                read_confusion_csv(path)
        else:
            assert read_confusion_csv(path).counts.tolist() == [[1, 0],
                                                                 [0, count]]

    def test_bad_confusion_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2\n")
        with pytest.raises(UnknownLabelError):
            read_confusion_csv(path)

    @pytest.mark.parametrize("text", [
        "class,0,1\n0,1,x\n1,0,2\n",
        "class,0,one\n0,1,0\n1,0,2\n",
        "class,0,1\n0,1.5,0\n1,0,2\n",
        "class,0,1\n0,1,-2\n1,0,2\n",
        "class,0,1\n\n0,1,0\n",
        "class,0,1\n0,1,0\n1,0," + "9" * 200_000 + "\n",
        # classes and counts follow the integer rule of model files
        "class,+0,1\n0,1,0\n1,0,2\n",
        "class,0,1\n+0,1,0\n1,0,2\n",
        "class,0,1_1\n0,1,0\n11,0,2\n",
        "class,0,1\n0,+1,0\n1,0,2\n",
        "class,0,1\n0,1_0,0\n1,0,2\n",
        "class,0,1\n0, 1,0\n1,0,2\n",
        "class,0,1\n0,1,0\n1,0," + "9" * 5000 + "\n",
        "class,0,1\n0,5000000000000000000,1\n1,1,5000000000000000000\n",
        "class,0,0\n0,1,2\n0,3,4\n",
        "class,0,1\n0,1,0\n",
        # no rwrl table quotes a field, so "1" is no count
        'class,0,1\n0,"1",0\n1,0,2\n',
    ], ids=["cell", "class", "fraction", "negative", "blank-row",
            "oversized-field", "plus-class", "plus-row-class",
            "underscore-class", "plus-count", "underscore-count",
            "spaced-count", "count-5000-digits", "total-past-int64",
            "repeated-class", "missing-row", "quoted-count"])
    def test_malformed_confusion_csv(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(UnknownLabelError):
            read_confusion_csv(path)


class TestConfusionCsvRoundTrip:
    """Seeded property: what `write_confusion_csv` accepts,
    `read_confusion_csv` returns equal; what the reader would refuse, the
    writer refuses first and leaves no file behind."""

    @staticmethod
    def draw(rng) -> ConfusionMatrix:
        k = int(rng.choice([0, 1, 2, 10]))
        classes = rng.choice(np.array([-2 ** 63, -7, 0, 3, 9, 42, 2 ** 63 - 1]
                                      + list(range(10, 20))), k, replace=False)
        top = int(rng.choice([1, 1000, 2 ** 62 // max(k * k, 1)]))
        counts = rng.integers(0, top, size=(k, k), endpoint=True)
        exact = max([top, *map(abs, classes.tolist())]) <= 2 ** 53
        if exact and rng.random() < 0.5:   # integral floats are integers too
            return ConfusionMatrix(classes.astype(np.float64).tolist(),
                                   counts.astype(np.float64))
        return ConfusionMatrix(classes.tolist(), counts)

    def test_accepted_matrices_read_back_equal(self, tmp_path):
        rng = np.random.default_rng(28)
        path = tmp_path / "confusion.csv"
        for case in range(60):
            cm = self.draw(rng)
            write_confusion_csv(path, cm)
            restored = read_confusion_csv(path)
            assert restored.classes == cm.classes, case
            assert np.array_equal(restored.counts, cm.counts), case

    @pytest.mark.parametrize("classes, counts", [
        ([0, 1], [[3, -1], [0, 2]]),
        ([0, 0], [[1, 0], [0, 1]]),
        ([0, 0.5], [[1, 0], [0, 1]]),
        ([0, 1], [[2 ** 62, 2 ** 62], [2 ** 62, 0]]),
        ([0, 1, 2], [[1, 0], [0, 1]]),
    ], ids=["negative-count", "repeated-class", "fractional-class",
            "total-past-int64", "counts-not-classes-square"])
    def test_refused_matrices_leave_no_file(self, tmp_path, classes, counts):
        path = tmp_path / "confusion.csv"
        with pytest.raises(UnknownLabelError):
            write_confusion_csv(path, ConfusionMatrix(classes, np.array(counts)))
        assert not path.exists()
