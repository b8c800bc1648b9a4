"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live). The heavyweight criteria
share one synthetic corpus (seed 1, 600 images per class) built once per
session.
"""

import sys
import time

import numpy as np
import pytest

from rwrl.cli import main as cli_main
from rwrl.contour import extract_contour
from rwrl.dataset import synth_generate
from rwrl.errors import EmptyImageError
from rwrl.evaluate import (
    ConfusionMatrix,
    class_metrics,
    confusion,
    cross_validate,
    overall_metrics,
)
from rwrl.features import (
    DIRECTIONS,
    FEATURE_DIM,
    extract_features,
)
from rwrl.knn import knn_predict_batch, knn_train
from rwrl.raster import normalize_digit, preprocess_image
from rwrl.svm import KernelParams, svm_predict_batch, svm_train

from oracle_utils import (
    brute_window_feature,
    region_of,
    region_weight,
    window_feature,
    window_grid,
)
from reference_data import (
    EXPECTED_OVERALL,
    EXPECTED_PER_CLASS,
    REFERENCE_CLASSES,
    REFERENCE_COUNTS,
)

PER_CLASS_NAMES = ("TPR", "FPR", "precision", "recall", "F", "MCC", "AUC")


def report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}", file=sys.stderr)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Seed-1 synthetic corpus, 600 images/class, pushed through the full
    preprocess -> contour -> extract pipeline."""
    root = tmp_path_factory.mktemp("acceptance-corpus")
    t0 = time.time()
    manifest = synth_generate(1, 600, root)
    features = np.empty((len(manifest), FEATURE_DIM), dtype=np.int64)
    labels = np.empty(len(manifest), dtype=np.int64)
    contours = []
    failures = []
    for i, (path, label) in enumerate(manifest.entries):
        try:
            normalized = preprocess_image(path.read_bytes())
            contour = extract_contour(normalized)
            features[i] = extract_features(contour)
            labels[i] = label
            if len(contours) < 1000:
                contours.append(contour)
        except Exception as exc:  # count, do not abort: criterion 5 needs this
            failures.append((str(path), repr(exc)))
    print(f"[corpus] 6000 images generated+extracted in "
          f"{time.time() - t0:.1f}s, {len(failures)} failures",
          file=sys.stderr)
    return {"features": features, "labels": labels, "failures": failures,
            "contours": contours, "root": root}


def test_metric_table_reproduction():
    """Reference confusion matrix reproduces the expected metric table
    within +/-0.001 after 3-decimal rounding, in under a second."""
    t0 = time.time()
    cm = ConfusionMatrix(REFERENCE_CLASSES, REFERENCE_COUNTS.copy())
    per_class = class_metrics(cm)
    overall = overall_metrics(cm)
    problems = []
    if abs(round(overall.accuracy, 4) - EXPECTED_OVERALL["accuracy"]) > 1e-9:
        problems.append(f"accuracy {overall.accuracy}")
    for name, expected in (("kappa", EXPECTED_OVERALL["kappa"]),
                           ("mae", EXPECTED_OVERALL["mae"]),
                           ("rmse", EXPECTED_OVERALL["rmse"])):
        got = getattr(overall, name)
        if abs(round(got, 4) - expected) > 0.001 + 1e-9:
            problems.append(f"{name} {got}")
    for cls, expected_row in EXPECTED_PER_CLASS.items():
        m = per_class[cls]
        got_row = (m.tpr, m.fpr, m.precision, m.recall, m.f_measure,
                   m.mcc, m.auc)
        for name, got, expected in zip(PER_CLASS_NAMES, got_row, expected_row):
            if abs(round(got, 3) - expected) > 0.001 + 1e-9:
                problems.append(f"class {cls} {name}: {got} vs {expected}")
    elapsed = time.time() - t0
    ok = not problems and elapsed < 1.0
    report("metric-table-reproduction", ok,
           f"{len(EXPECTED_PER_CLASS) * 7 + 4} values checked, "
           f"{elapsed * 1000:.0f}ms")
    assert not problems, problems
    assert elapsed < 1.0


def test_feature_geometry():
    """Every 64x64 input yields exactly 196 values from 49 windows."""
    rng = np.random.default_rng(0)
    ok = len(window_grid()) == 49
    for _ in range(25):
        img = (rng.random((64, 64)) < rng.uniform(0, 0.6)).astype(np.uint8)
        out = extract_features(img)
        ok = ok and out.shape == (196,) and (out >= 0).all()
    report("feature-geometry", ok, "49 windows x 4 directions")
    assert ok


def test_oracle_equivalence():
    """1000 seeded random windows match the brute-force run enumeration
    exactly, for all four directions, in under 10 seconds."""
    rng = np.random.default_rng(2024)
    t0 = time.time()
    mismatches = 0
    for _ in range(1000):
        window = (rng.random((16, 16))
                  < rng.uniform(0.02, 0.98)).astype(np.uint8)
        for direction in DIRECTIONS:
            if (window_feature(window, direction)
                    != brute_window_feature(window, direction)):
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report("oracle-equivalence", ok,
           f"4000 comparisons, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_region_partition():
    """The four bands partition the window at sizes 16/48/80/112 with
    weights 8/4/2/1."""
    sizes = {1: 0, 2: 0, 3: 0, 4: 0}
    for r in range(16):
        for c in range(16):
            sizes[region_of(r, c)] += 1
    weights = [region_weight(i) for i in (1, 2, 3, 4)]
    ok = sizes == {1: 16, 2: 48, 3: 80, 4: 112} and weights == [8, 4, 2, 1]
    report("region-partition", ok, f"sizes {sizes}, weights {weights}")
    assert ok


def test_pipeline_soundness(corpus):
    """At least 100 images per class survive the full pipeline with zero
    errors; blank inputs give the zero vector and EmptyImage at
    normalization."""
    counts = np.bincount(corpus["labels"], minlength=10)
    zero_vector = extract_features(np.zeros((64, 64), dtype=np.uint8))
    try:
        normalize_digit(np.zeros((32, 32), dtype=np.uint8))
        empty_raised = False
    except EmptyImageError:
        empty_raised = True
    ok = (not corpus["failures"] and (counts >= 100).all()
          and not zero_vector.any() and empty_raised)
    report("pipeline-soundness", ok,
           f"{int(counts.sum())} images, {len(corpus['failures'])} failures")
    assert not corpus["failures"], corpus["failures"][:3]
    assert (counts >= 100).all()
    assert not zero_vector.any()
    assert empty_raised


def test_end_to_end_learning(corpus):
    """SVM (polynomial kernel) reaches >= 90% holdout accuracy on 500/100
    per-class splits, stays within 2 points of the k=3 baseline, and 3-fold
    CV fold accuracies agree within 5 points; all inside 5 minutes."""
    t0 = time.time()
    X = corpus["features"].astype(np.float64)
    y = corpus["labels"]
    from rwrl.evaluate import holdout_split
    train_idx, test_idx = holdout_split(y, 500, seed=1)

    svm_model = svm_train(X[train_idx], y[train_idx],
                          KernelParams("polynomial"), seed=1)
    svm_acc = float((svm_predict_batch(svm_model, X[test_idx])
                     == y[test_idx]).mean())
    knn_model = knn_train(X[train_idx], y[train_idx], k=3)
    knn_acc = float((knn_predict_batch(knn_model, X[test_idx])
                     == y[test_idx]).mean())

    def fit_predict(train_X, train_y, test_X):
        model = svm_train(train_X, train_y, KernelParams("polynomial"),
                          seed=1)
        return svm_predict_batch(model, test_X)

    _, fold_acc = cross_validate(X, y, 3, seed=1, fit_predict=fit_predict)
    spread = max(fold_acc) - min(fold_acc)
    elapsed = time.time() - t0
    ok = (svm_acc >= 0.90 and svm_acc >= knn_acc - 0.02
          and len(fold_acc) == 3 and spread < 0.05 and elapsed < 300)
    report("end-to-end-learning", ok,
           f"svm {svm_acc:.4f}, knn {knn_acc:.4f}, folds "
           f"{[round(a, 4) for a in fold_acc]}, {elapsed:.0f}s")
    assert svm_acc >= 0.90, svm_acc
    assert svm_acc >= knn_acc - 0.02, (svm_acc, knn_acc)
    assert len(fold_acc) == 3
    assert spread < 0.05, fold_acc
    assert elapsed < 300, elapsed


def test_determinism(tmp_path):
    """Two CLI runs with identical seeds produce byte-identical feature
    files, model files, and report CSVs."""
    artifacts = []
    for run in ("one", "two"):
        base = tmp_path / run
        assert cli_main(["synth", str(base / "raw"), "--per-class", "8",
                         "--seed", "4"]) == 0
        assert cli_main(["preprocess", str(base / "raw"), str(base / "norm"),
                         "--jobs", "1"]) == 0
        assert cli_main(["extract", str(base / "norm"),
                         str(base / "features.txt"), "--jobs", "1"]) == 0
        assert cli_main(["train", str(base / "features.txt"),
                         str(base / "model.txt")]) == 0
        assert cli_main(["eval", str(base / "features.txt"),
                         str(base / "reports"), "--cv", "2",
                         "--seed", "4"]) == 0
        artifacts.append({
            "features": (base / "features.txt").read_bytes(),
            "model": (base / "model.txt").read_bytes(),
            "per_class": (base / "reports" / "per_class.csv").read_bytes(),
            "overall": (base / "reports" / "overall.csv").read_bytes(),
            "confusion": (base / "reports" / "confusion.csv").read_bytes(),
            "folds": (base / "reports" / "folds.csv").read_bytes(),
        })
    mismatched = [k for k in artifacts[0] if artifacts[0][k] != artifacts[1][k]]
    report("determinism", not mismatched,
           f"{len(artifacts[0])} artifact kinds compared")
    assert not mismatched, mismatched


def test_throughput(corpus):
    """Feature extraction for 1000 normalized images finishes in under 5
    seconds single-threaded."""
    contours = corpus["contours"][:1000]
    assert len(contours) == 1000
    t0 = time.time()
    for img in contours:
        extract_features(img)
    elapsed = time.time() - t0
    ok = elapsed < 5.0
    report("throughput", ok, f"1000 images in {elapsed:.2f}s")
    assert elapsed < 5.0, elapsed
