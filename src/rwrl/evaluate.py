"""Experimental protocol (holdout, stratified k-fold) and the metric battery.

All metrics are computed from hard predictions collected in a confusion
matrix: per class TPR/FPR/precision/recall/F/MCC plus a balanced-accuracy
AUC, and overall accuracy, Cohen's kappa, MAE/RMSE under the one-hot
prediction convention, and a normal-approximation 95% confidence interval.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateMatrixError,
    EmptyMatrixError,
    LengthMismatchError,
    TooFewSamplesError,
    UnknownLabelError,
)
from .reader import Lines, parse_ints
from .rows import _int_labels, write_csv


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def _class_ranks(y, seed: int, minimum: int, need: str) -> np.ndarray:
    """Each sample's place in its class's seeded order (one permutation per
    class, classes ascending, drawn as numpy's default_rng(seed) drew
    them); a class under `minimum` samples raises."""
    from .pcg import Stream     # here, so that `report` never loads it
    rng = Stream(seed)
    rank = np.empty(len(y), dtype=np.int64)
    for cls in sorted(set(y.tolist())):
        idx = np.flatnonzero(y == cls)
        if len(idx) < minimum:
            raise TooFewSamplesError(
                f"class {cls} has {len(idx)} samples, needs {need}")
        rank[rng.permutation(idx.tolist())] = np.arange(len(idx))
    return rank


def stratified_kfold(labels, k: int, seed: int = 0) -> list[np.ndarray]:
    """k disjoint index folds with per-class counts differing by at most 1."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rank = _class_ranks(np.asarray(labels), seed, k, f">= {k}")
    return [np.flatnonzero(rank % k == m) for m in range(k)]


def holdout_split(labels, train_per_class: int,
                  seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class sampling of a train set; the remainder is the test set."""
    if train_per_class < 0:
        raise ValueError("train_per_class must be >= 0")
    rank = _class_ranks(np.asarray(labels), seed, train_per_class + 1,
                        f"> {train_per_class}")
    return (np.flatnonzero(rank < train_per_class),
            np.flatnonzero(rank >= train_per_class))


# ---------------------------------------------------------------------------
# confusion matrix and metrics
# ---------------------------------------------------------------------------

@dataclass
class ConfusionMatrix:
    """Counts[t, p] = samples of true class t predicted as class p."""

    classes: list[int]
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class ClassMetrics:
    tpr: float
    fpr: float
    precision: float
    recall: float
    f_measure: float
    mcc: float
    auc: float


@dataclass
class OverallMetrics:
    accuracy: float
    kappa: float
    mae: float
    rmse: float
    ci95_halfwidth: float


def _positions(labels: np.ndarray, classes: list[int]) -> np.ndarray:
    """Each label's index in `classes`; a label equal to no class raises."""
    order = np.argsort(classes, kind="stable")
    ranked = np.asarray(classes)[order]
    at = np.searchsorted(ranked, labels, side="right") - 1
    # a label below every class gets at == -1: the largest class, not equal
    if labels.size and not (ranked.size and (ranked[at] == labels).all()):
        raise UnknownLabelError("label outside the class list")
    return order[at]


def confusion(y_true, y_pred, classes) -> ConfusionMatrix:
    classes = [int(c) for c in classes]
    y_true, y_pred = np.ravel(y_true), np.ravel(y_pred)
    if len(y_true) != len(y_pred):
        raise LengthMismatchError(
            f"{len(y_true)} true labels but {len(y_pred)} predictions")
    k = len(classes)
    cells = _positions(y_true, classes) * k + _positions(y_pred, classes)
    return ConfusionMatrix(classes,
                           np.bincount(cells, minlength=k * k).reshape(k, k))


def class_metrics(cm: ConfusionMatrix) -> dict[int, ClassMetrics]:
    counts = cm.counts
    n = counts.sum()
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    if (row == 0).any():
        bad = [cm.classes[k] for k in np.flatnonzero(row == 0)]
        raise DegenerateMatrixError(f"classes with no true samples: {bad}")
    out: dict[int, ClassMetrics] = {}
    for k, cls in enumerate(cm.classes):
        tp = counts[k, k]
        fn = row[k] - tp
        fp = col[k] - tp
        tn = n - tp - fn - fp
        tpr = tp / (tp + fn)
        fpr = fp / (fp + tn) if fp + tn else 0.0
        precision = tp / (tp + fp) if tp + fp else 0.0
        f_measure = (2 * precision * tpr / (precision + tpr)
                     if precision + tpr else 0.0)
        # in Python ints: the int64 product overflows from about 55000 samples
        denom = math.sqrt(float(math.prod(
            int(v) for v in (tp + fp, tp + fn, tn + fp, tn + fn))))
        mcc = (float(int(tp) * int(tn) - int(fp) * int(fn)) / denom
               if denom else 0.0)
        auc = (tpr + 1.0 - fpr) / 2.0
        out[cls] = ClassMetrics(tpr, fpr, precision, tpr, f_measure, mcc, auc)
    return out


def overall_metrics(cm: ConfusionMatrix) -> OverallMetrics:
    counts = cm.counts
    n = counts.sum()
    if n == 0:
        raise EmptyMatrixError("confusion matrix holds no counts")
    accuracy = float(np.trace(counts)) / n
    # in Python ints: n * n overflows int64 from about 3e9 samples
    rows, cols = counts.sum(axis=1).tolist(), counts.sum(axis=0).tolist()
    p_e = float(sum(r * c for r, c in zip(rows, cols))) / float(int(n) ** 2)
    kappa = (accuracy - p_e) / (1.0 - p_e) if p_e < 1.0 else 1.0
    # hard one-hot predictions over K classes: an error contributes to
    # exactly two of the K per-class dimensions
    error = 1.0 - accuracy
    k = len(cm.classes)
    mae = 2.0 * error / k
    rmse = math.sqrt(mae)
    ci = 1.96 * math.sqrt(accuracy * (1.0 - accuracy) / n)
    return OverallMetrics(accuracy, kappa, mae, rmse, ci)


# ---------------------------------------------------------------------------
# held-out driver
# ---------------------------------------------------------------------------

def score_folds(X: np.ndarray, y: np.ndarray, folds,
                fit_predict) -> tuple[ConfusionMatrix, list[float]]:
    """Test each fold of indices with the labels that
    fit_predict(train_X, train_y, test_X) predicts after training on its
    complement; returns one confusion matrix over all folds and the
    per-fold accuracies."""
    classes = sorted(set(y.tolist()))
    truth = [y[held_out] for held_out in folds]
    predicted = [np.ravel(fit_predict(np.delete(X, held_out, axis=0),
                                      np.delete(y, held_out), X[held_out]))
                 for held_out in folds]
    cm = confusion(np.concatenate(truth), np.concatenate(predicted), classes)
    return cm, [float((p == t).mean()) for t, p in zip(truth, predicted)]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

PER_CLASS_COLUMNS = ("TPR", "FPR", "precision", "recall", "F", "MCC", "AUC")
OVERALL_COLUMNS = ("accuracy", "kappa", "MAE", "RMSE", "ci95")


def _row(metrics: ClassMetrics | OverallMetrics) -> list[float]:
    return [getattr(metrics, f.name) for f in fields(metrics)]


def render_report(cm: ConfusionMatrix, per_class: dict[int, ClassMetrics],
                  overall: OverallMetrics) -> str:
    """Fixed-layout text report with values printed at 3 decimals."""
    out = io.StringIO()
    out.write("Confusion matrix (rows: true, cols: predicted)\n")
    out.write("      " + "".join(f"{c:>6}" for c in cm.classes) + "\n")
    for k, cls in enumerate(cm.classes):
        out.write(f"{cls:>6}" + "".join(f"{v:>6}" for v in cm.counts[k]) + "\n")
    out.write(f"total {cm.total}\n")
    out.write("\nPer-class metrics\n")
    out.write("class " + "".join(f"{c:>11}" for c in PER_CLASS_COLUMNS) + "\n")
    rows = [_row(per_class[c]) for c in cm.classes]
    for cls, row in zip(cm.classes, rows):
        out.write(f"{cls:>5} " + "".join(f"{v:>11.3f}" for v in row) + "\n")
    means = np.mean(rows, axis=0)
    out.write("  avg " + "".join(f"{v:>11.3f}" for v in means) + "\n")
    out.write("\nOverall\n")
    for name, value in zip(OVERALL_COLUMNS, _row(overall)):
        out.write(f"{name:>9}  {value:.3f}\n")
    return out.getvalue()


def write_reports(out_dir, cm: ConfusionMatrix,
                  per_class: dict[int, ClassMetrics],
                  overall: OverallMetrics) -> str:
    """Write report.txt plus per_class / overall / confusion CSVs (4
    decimals); returns the text of report.txt."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = render_report(cm, per_class, overall)
    (out_dir / "report.txt").write_text(report, encoding="ascii")
    write_csv(out_dir / "per_class.csv", [("class",) + PER_CLASS_COLUMNS] + [
        [cls] + [f"{v:.4f}" for v in _row(per_class[cls])]
        for cls in cm.classes])
    write_csv(out_dir / "overall.csv",
              [OVERALL_COLUMNS, [f"{v:.4f}" for v in _row(overall)]])
    write_confusion_csv(out_dir / "confusion.csv", cm)
    return report


def write_confusion_csv(path, cm: ConfusionMatrix) -> None:
    """A matrix that read_confusion_csv would refuse raises
    UnknownLabelError before the file is opened; classes and counts follow
    `rows._int_labels`' rule."""
    classes = _int_labels(cm.classes, UnknownLabelError).tolist()
    counts = _int_labels(cm.counts, UnknownLabelError)
    _check_counts(classes, counts)
    write_csv(path, [["class", *classes]] + [
        [cls, *row] for cls, row in zip(classes, counts.tolist())])


def read_confusion_csv(path) -> ConfusionMatrix:
    rows = [line.split(",") for line in
            Lines(Path(path).read_bytes(), UnknownLabelError)]
    if not rows or rows[0][:1] != ["class"]:
        raise UnknownLabelError("not a confusion matrix CSV")
    classes = parse_ints(rows[0][1:], UnknownLabelError)
    if len(rows) != len(classes) + 1:
        raise UnknownLabelError("confusion matrix CSV has wrong row count")
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for k, row in enumerate(rows[1:]):
        values = parse_ints(row, UnknownLabelError)
        if len(values) != len(classes) + 1 or values[0] != classes[k]:
            raise UnknownLabelError("confusion matrix CSV rows disagree "
                                    "with the header")
        counts[k] = values[1:]
    _check_counts(classes, counts)
    return ConfusionMatrix(classes, counts)


def _check_counts(classes: list[int], counts: np.ndarray) -> None:
    """The value rules of a confusion CSV, which both its writer and its
    reader apply."""
    if len(set(classes)) != len(classes):
        raise UnknownLabelError("confusion matrix CSV repeats a class")
    if counts.shape != (len(classes), len(classes)):
        raise UnknownLabelError("confusion counts disagree with the classes")
    if (counts < 0).any():
        raise UnknownLabelError("confusion matrix CSV holds a negative count")
    if sum(counts.ravel().tolist()) > np.iinfo(np.int64).max:
        raise UnknownLabelError("confusion matrix CSV counts sum past int64")
