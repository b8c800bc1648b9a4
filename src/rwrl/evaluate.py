"""Experimental protocol (holdout, stratified k-fold) and the metric battery.

All metrics are computed from hard predictions collected in a confusion
matrix: per class TPR/FPR/precision/recall/F/MCC plus a balanced-accuracy
AUC, and overall accuracy, Cohen's kappa, MAE/RMSE under the one-hot
prediction convention, and a normal-approximation 95% confidence interval.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateMatrixError,
    EmptyMatrixError,
    TooFewSamplesError,
    UnknownLabelError,
)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def stratified_kfold(labels, k: int, seed: int = 0) -> list[np.ndarray]:
    """k disjoint index folds with per-class counts differing by at most 1."""
    y = np.asarray(labels)
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in sorted(set(y.tolist())):
        idx = np.flatnonzero(y == cls)
        if len(idx) < k:
            raise TooFewSamplesError(
                f"class {cls} has {len(idx)} samples, needs >= {k}")
        idx = rng.permutation(idx)
        for m, i in enumerate(idx):
            folds[m % k].append(int(i))
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def holdout_split(labels, train_per_class: int,
                  seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class sampling of a train set; the remainder is the test set."""
    y = np.asarray(labels)
    if train_per_class < 0:
        raise ValueError("train_per_class must be >= 0")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in sorted(set(y.tolist())):
        idx = np.flatnonzero(y == cls)
        if len(idx) <= train_per_class:
            raise TooFewSamplesError(
                f"class {cls} has {len(idx)} samples, needs > {train_per_class}")
        idx = rng.permutation(idx)
        train.extend(int(i) for i in idx[:train_per_class])
        test.extend(int(i) for i in idx[train_per_class:])
    return (np.sort(np.array(train, dtype=np.int64)),
            np.sort(np.array(test, dtype=np.int64)))


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


def confusion(y_true, y_pred, classes) -> ConfusionMatrix:
    classes = [int(c) for c in classes]
    index = {c: k for k, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(np.asarray(y_true).ravel(), np.asarray(y_pred).ravel()):
        t, p = int(t), int(p)
        if t not in index or p not in index:
            raise UnknownLabelError(f"label outside class list: {t, p}")
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(classes, counts)


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
        denom = math.sqrt(float((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)))
        mcc = (float(tp * tn - fp * fn) / denom) if denom else 0.0
        auc = (tpr + 1.0 - fpr) / 2.0
        out[cls] = ClassMetrics(tpr, fpr, precision, tpr, f_measure, mcc, auc)
    return out


def overall_metrics(cm: ConfusionMatrix) -> OverallMetrics:
    counts = cm.counts
    n = counts.sum()
    if n == 0:
        raise EmptyMatrixError("confusion matrix holds no counts")
    accuracy = float(np.trace(counts)) / n
    p_e = float(counts.sum(axis=1) @ counts.sum(axis=0)) / (n * n)
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
# cross-validation driver
# ---------------------------------------------------------------------------

def cross_validate(features, labels, k: int, seed: int,
                   fit_predict) -> tuple[ConfusionMatrix, list[float]]:
    """Run stratified k-fold CV; fold matrices are merged by summation.

    fit_predict(train_X, train_y, test_X) must return predicted labels.
    Returns the pooled confusion matrix and per-fold accuracies.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    folds = stratified_kfold(y, k, seed)
    classes = sorted(set(y.tolist()))
    pooled = ConfusionMatrix(classes, np.zeros((len(classes),) * 2, np.int64))
    fold_acc = []
    for held_out in folds:
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[held_out] = False
        pred = fit_predict(X[train_mask], y[train_mask], X[held_out])
        cm = confusion(y[held_out], pred, classes)
        fold_acc.append(float(np.trace(cm.counts)) / cm.total)
        pooled.counts += cm.counts
    return pooled, fold_acc


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

PER_CLASS_COLUMNS = ("TPR", "FPR", "precision", "recall", "F", "MCC", "AUC")
OVERALL_COLUMNS = ("accuracy", "kappa", "MAE", "RMSE", "ci95")


def _row(metrics: ClassMetrics | OverallMetrics) -> list[float]:
    return [getattr(metrics, f.name) for f in fields(metrics)]


def render_report(cm: ConfusionMatrix,
                  per_class: dict[int, ClassMetrics] | None = None,
                  overall: OverallMetrics | None = None) -> str:
    """Fixed-layout text report with values printed at 3 decimals.

    Metric sections are skipped when not supplied, so a zero-count matrix
    still renders.
    """
    out = io.StringIO()
    out.write("Confusion matrix (rows: true, cols: predicted)\n")
    head = "      " + "".join(f"{c:>6}" for c in cm.classes)
    out.write(head + "\n")
    for k, cls in enumerate(cm.classes):
        out.write(f"{cls:>6}" + "".join(f"{v:>6}" for v in cm.counts[k]) + "\n")
    out.write(f"total {cm.total}\n")
    if per_class:
        out.write("\nPer-class metrics\n")
        out.write("class "
                  + "".join(f"{c:>11}" for c in PER_CLASS_COLUMNS) + "\n")
        rows = [_row(per_class[c]) for c in cm.classes if c in per_class]
        for cls, row in zip(cm.classes, rows):
            out.write(f"{cls:>5} " + "".join(f"{v:>11.3f}" for v in row) + "\n")
        means = np.mean(rows, axis=0)
        out.write("  avg " + "".join(f"{v:>11.3f}" for v in means) + "\n")
    if overall is not None:
        out.write("\nOverall\n")
        for name, value in zip(OVERALL_COLUMNS, _row(overall)):
            out.write(f"{name:>9}  {value:.3f}\n")
    return out.getvalue()


def write_reports(out_dir, cm: ConfusionMatrix,
                  per_class: dict[int, ClassMetrics],
                  overall: OverallMetrics) -> dict[str, str]:
    """Write report.txt plus per_class / overall / confusion CSVs (4 decimals)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out_dir / "report.txt",
        "per_class": out_dir / "per_class.csv",
        "overall": out_dir / "overall.csv",
        "confusion": out_dir / "confusion.csv",
    }
    paths["report"].write_text(render_report(cm, per_class, overall),
                               encoding="ascii")
    with open(paths["per_class"], "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(("class",) + PER_CLASS_COLUMNS)
        for cls in cm.classes:
            writer.writerow([cls] + [f"{v:.4f}" for v in _row(per_class[cls])])
    with open(paths["overall"], "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(OVERALL_COLUMNS)
        writer.writerow([f"{v:.4f}" for v in _row(overall)])
    write_confusion_csv(paths["confusion"], cm)
    return {name: str(path) for name, path in paths.items()}


def write_confusion_csv(path, cm: ConfusionMatrix) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class"] + [str(c) for c in cm.classes])
        for k, cls in enumerate(cm.classes):
            writer.writerow([cls] + [int(v) for v in cm.counts[k]])


def read_confusion_csv(path) -> ConfusionMatrix:
    with open(path, "r", newline="", encoding="ascii", errors="replace") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:
            raise UnknownLabelError(f"unreadable confusion CSV: {exc}") from None
    if not rows or rows[0][:1] != ["class"]:
        raise UnknownLabelError("not a confusion matrix CSV")
    try:
        classes = [int(c) for c in rows[0][1:]]
        counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
        if len(rows) != len(classes) + 1:
            raise UnknownLabelError("confusion matrix CSV has wrong row count")
        for k, row in enumerate(rows[1:]):
            if len(row) != len(classes) + 1 or int(row[0]) != classes[k]:
                raise UnknownLabelError("confusion matrix CSV rows disagree "
                                        "with the header")
            counts[k] = [int(v) for v in row[1:]]
    except (ValueError, OverflowError):
        raise UnknownLabelError("confusion matrix CSV holds a non-integer "
                                "class or count") from None
    if (counts < 0).any():
        raise UnknownLabelError("confusion matrix CSV holds a negative count")
    return ConfusionMatrix(classes, counts)
