"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live). The heavyweight criteria
share one synthetic corpus (seed 1, 600 images per class) built once per
session by the `rwrl` commands.
"""

import contextlib
import importlib
import io
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rwrl.cli import main as cli_main
from rwrl.dataset import scan_dataset
from rwrl.errors import EmptyImageError
from rwrl.evaluate import (
    ConfusionMatrix,
    class_metrics,
    confusion,
    overall_metrics,
    score_folds,
    stratified_kfold,
)
from rwrl.features import (
    DIRECTIONS,
    extract_contour,
    extract_features,
)
from rwrl.knn import knn_predict_batch, knn_train
from rwrl.raster import (
    DARK_INK,
    decode_image,
    encode_pgm,
    ink,
    normalize_digit,
)
from rwrl.reader import read_feature_file
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
    """Seed-1 synthetic corpus, 600 images/class, run through `rwrl synth`,
    `rwrl preprocess` and `rwrl extract` as a user runs them."""
    root = tmp_path_factory.mktemp("acceptance-corpus")
    raw, norm, path = (str(root / name) for name in ("raw", "norm", "f.txt"))
    t0 = time.time()
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        codes = [cli_main(argv) for argv in (
            ["synth", raw, "--per-class", "600", "--seed", "1"],
            ["preprocess", raw, norm], ["extract", norm, path])]
    # count, do not abort: criterion 5 needs this
    failures = [line for line in stderr.getvalue().splitlines()
                if line.startswith("warning: skipped")]
    labels, features = read_feature_file(path)
    pages = [decode_image(p.read_bytes())
             for p, _ in scan_dataset(norm).entries[:1000]]
    contours = extract_contour(ink(np.stack(pages), DARK_INK))
    print(f"[corpus] {len(labels)} images generated+extracted in "
          f"{time.time() - t0:.1f}s, {len(failures)} failures",
          file=sys.stderr)
    return {"features": features, "labels": labels, "failures": failures,
            "codes": codes, "contours": contours}


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
    """All 6000 images, at least 100 per class, survive `rwrl synth`,
    `preprocess` and `extract` with exit 0 and no skip warning; blank
    inputs give the zero vector and EmptyImage at normalization."""
    counts = np.bincount(corpus["labels"], minlength=10)
    zero_vector = extract_features(np.zeros((64, 64), dtype=np.uint8))
    try:
        normalize_digit(np.zeros((32, 32), dtype=np.uint8))
        empty_raised = False
    except EmptyImageError:
        empty_raised = True
    ok = (corpus["codes"] == [0, 0, 0] and not corpus["failures"]
          and counts.sum() == 6000 and (counts >= 100).all()
          and not zero_vector.any() and empty_raised)
    report("pipeline-soundness", ok,
           f"{int(counts.sum())} images, {len(corpus['failures'])} failures")
    assert corpus["codes"] == [0, 0, 0]
    assert not corpus["failures"], corpus["failures"][:3]
    assert counts.sum() == 6000
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
                          KernelParams("polynomial"))
    svm_acc = float((svm_predict_batch(svm_model, X[test_idx])
                     == y[test_idx]).mean())
    knn_model = knn_train(X[train_idx], y[train_idx], k=3)
    knn_acc = float((knn_predict_batch(knn_model, X[test_idx])
                     == y[test_idx]).mean())

    def fit_predict(train_X, train_y, test_X):
        model = svm_train(train_X, train_y, KernelParams("polynomial"))
        return svm_predict_batch(model, test_X)

    _, fold_acc = score_folds(X, y, stratified_kfold(y, 3, seed=1),
                              fit_predict)
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


# Floors of `eval --cv 3 --seed 1` accuracy on a warped 100-per-class
# corpus. Seeds 1-5 scored SVM 0.932-0.945 and k-NN 0.926-0.940: each floor
# is that minimum less twice that range, rounded down. With the features of
# the 25 central windows zeroed, seeds 1-8 scored at most 0.876 (SVM) and
# 0.866 (k-NN), below both. The test runs seed 6, which set no floor.
WARPED_FLOORS = {"svm": 0.90, "knn": 0.89}


def warped_corpus(root: Path, seed: int) -> Path:
    """The feature file of a warped 100-per-class corpus: `rwrl synth`
    pages, each distorted in file order by perfbench's `scans.distort`, with
    one `default_rng(seed)`, onto a P5 page of 64-128 px, then `rwrl
    preprocess` and `rwrl extract`."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    try:
        distort = importlib.import_module("perfbench.scans").distort
    finally:
        sys.path.pop(0)
    raw, pages, norm = root / "raw", root / "pages", root / "norm"
    features = root / "features.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["synth", str(raw), "--per-class", "100",
                         "--seed", str(seed)]) == 0
        rng = np.random.default_rng(seed)
        for path, label in scan_dataset(raw).entries:
            page = distort(decode_image(path.read_bytes()),
                           int(rng.integers(64, 129)), rng)
            out = pages / str(label) / (path.stem + ".pgm")
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_bytes(encode_pgm(page))
        assert cli_main(["preprocess", str(pages), str(norm)]) == 0
        assert cli_main(["extract", str(norm), str(features)]) == 0
    return features


def cv_accuracy(features: Path, out_dir: Path, classifier: str) -> float:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli_main(["eval", str(features), str(out_dir), "--cv", "3",
                         "--seed", "1", "--classifier", classifier]) == 0
    return float(stdout.getvalue().splitlines()[-1].split()[1])


def test_warped_accuracy_floor(tmp_path):
    """On warped scans, where accuracy is not saturated, each classifier
    keeps its floor: a change that costs features or classifiers accuracy
    can fail here, where clean pages score 1.0000."""
    features = warped_corpus(tmp_path, seed=6)
    accuracy = {clf: cv_accuracy(features, tmp_path / clf, clf)
                for clf in WARPED_FLOORS}
    report("warped-accuracy-floor",
           all(accuracy[clf] >= floor for clf, floor in WARPED_FLOORS.items()),
           ", ".join(f"{clf} {accuracy[clf]:.4f} vs floor {floor}"
                     for clf, floor in WARPED_FLOORS.items()))
    for clf, floor in WARPED_FLOORS.items():
        assert accuracy[clf] >= floor, (clf, accuracy)


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
