"""Command-line entry point.

Subcommands mirror the pipeline stages: synth -> preprocess -> extract ->
train/predict/eval, plus report for re-deriving metric tables from a saved
confusion matrix. All stages are deterministic for a given --seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dataset, evaluate, model_io
from .contour import extract_contour
from .errors import (
    DimensionMismatchError,
    LengthMismatchError,
    RwrlError,
)
from .features import extract_features, read_feature_file, write_feature_file
from .knn import knn_predict_batch, knn_train
from .raster import (
    DARK_INK,
    LIGHT_INK,
    MAX_SIGMA,
    binarize,
    binary_to_gray,
    decode_image,
    encode_pgm,
    otsu_threshold,
    preprocess_image,
)
from .svm import KernelParams, SvmModel, svm_predict_batch, svm_train

_KERNEL_NAMES = {"poly": "polynomial", "linear": "linear", "rbf": "rbf"}


def _int_from(low: int):
    """argparse type: an integer >= low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _float_from(low: float, inclusive: bool, high: float = math.inf):
    """argparse type: a finite float in (low, high], or [low, high] if inclusive."""
    def number(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if value < low or (value == low and not inclusive):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if inclusive else '>'} {low:g}, got {text}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high:g}, got {text}")
        return value
    return number


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# workers (top level so they can cross process boundaries)
# ---------------------------------------------------------------------------

def _preprocess_one(task) -> tuple[str, bool, str]:
    in_path, out_path, sigma, polarity = task
    try:
        normalized = preprocess_image(Path(in_path).read_bytes(), sigma, polarity)
    except RwrlError as exc:
        return str(in_path), False, f"{type(exc).__name__}: {exc}"
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(encode_pgm(binary_to_gray(normalized)))
    return str(in_path), True, ""


def _extract_one(path) -> tuple[bool, np.ndarray | None, str]:
    try:
        gray = decode_image(Path(path).read_bytes())
        bits = binarize(gray, otsu_threshold(gray), DARK_INK)
        return True, extract_features(extract_contour(bits)), ""
    except RwrlError as exc:
        return False, None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    in_dir = Path(args.in_dir)
    files = sorted(p for p in in_dir.rglob("*")
                   if p.suffix.lower() in dataset.IMAGE_SUFFIXES)
    if not files:
        _warn(f"no input images under {in_dir}")
        return 2
    tasks = [(str(p),
              str(Path(args.out_dir) / p.relative_to(in_dir).with_suffix(".pgm")),
              args.sigma, args.polarity)
             for p in files]
    results = dataset.parallel_map(_preprocess_one, tasks, args.jobs)
    for path, ok, message in results:
        if not ok:
            _warn(f"skipped {path}: {message}")
    successes = sum(ok for _, ok, _ in results)
    print(f"preprocessed {successes}/{len(files)} images -> {args.out_dir}")
    return 0 if successes else 2


def cmd_extract(args) -> int:
    manifest = dataset.scan_dataset(args.in_dir)
    results = dataset.parallel_map(_extract_one,
                                   [str(p) for p, _ in manifest.entries],
                                   args.jobs)
    labels, rows = [], []
    for (path, label), (ok, feats, message) in zip(manifest.entries, results):
        if ok:
            labels.append(label)
            rows.append(feats)
        else:
            _warn(f"skipped {path}: {message}")
    if not rows:
        _warn("no image produced features")
        return 2
    write_feature_file(args.out_file, labels, np.array(rows))
    print(f"wrote {len(rows)} feature rows -> {args.out_file}")
    return 0


def _kernel_params(args) -> KernelParams:
    return KernelParams(_KERNEL_NAMES[args.kernel], args.degree, args.gamma,
                        args.coef0, getattr(args, "C"))


def _train_model(args, X, y):
    if args.classifier == "svm":
        return svm_train(X, y, _kernel_params(args), scale=not args.no_scale)
    return knn_train(X, y, k=args.k, scale=not args.no_scale)


def cmd_train(args) -> int:
    y, X = read_feature_file(args.features)
    model = _train_model(args, X, y)
    Path(args.model).write_bytes(model_io.model_save(model))
    print(f"trained {args.classifier} on {len(y)} samples -> {args.model}")
    return 0


def _predict_with(model, X) -> np.ndarray:
    if isinstance(model, SvmModel):
        return svm_predict_batch(model, X)
    return knn_predict_batch(model, X)


def cmd_predict(args) -> int:
    model = model_io.model_load(Path(args.model).read_bytes())
    y, X = read_feature_file(args.features)
    predicted = _predict_with(model, X)
    with open(args.out_csv, "w", encoding="ascii") as fh:
        fh.write("index,true,predicted\n")
        for i, (t, p) in enumerate(zip(y, predicted)):
            fh.write(f"{i},{t},{p}\n")
    accuracy = float((predicted == y).mean()) if len(y) else 0.0
    print(f"accuracy {accuracy:.4f} ({len(y)} samples) -> {args.out_csv}")
    return 0


def cmd_eval(args) -> int:
    y, X = read_feature_file(args.features)

    def fit_predict(train_X, train_y, test_X):
        return _predict_with(_train_model(args, train_X, train_y), test_X)

    out_dir = Path(args.out_dir)
    if args.cv is not None:
        cm, fold_acc = evaluate.cross_validate(X, y, args.cv, args.seed,
                                               fit_predict)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "folds.csv", "w", encoding="ascii") as fh:
            fh.write("fold,accuracy\n")
            for i, acc in enumerate(fold_acc):
                fh.write(f"{i},{acc:.4f}\n")
        for i, acc in enumerate(fold_acc):
            print(f"fold {i} accuracy {acc:.4f}")
    else:
        train_idx, test_idx = evaluate.holdout_split(y, args.holdout, args.seed)
        predicted = fit_predict(X[train_idx], y[train_idx], X[test_idx])
        classes = sorted(set(y.tolist()))
        cm = evaluate.confusion(y[test_idx], predicted, classes)
    per_class = evaluate.class_metrics(cm)
    overall = evaluate.overall_metrics(cm)
    evaluate.write_reports(out_dir, cm, per_class, overall)
    print(f"accuracy {overall.accuracy:.4f} ({cm.total} samples) -> {out_dir}")
    return 0


def cmd_synth(args) -> int:
    manifest = dataset.synth_generate(args.seed, args.per_class, args.out_dir,
                                      jobs=args.jobs)
    print(f"generated {len(manifest)} images -> {args.out_dir}")
    return 0


def cmd_report(args) -> int:
    cm = evaluate.read_confusion_csv(args.confusion)
    per_class = evaluate.class_metrics(cm)
    overall = evaluate.overall_metrics(cm)
    paths = evaluate.write_reports(args.out_dir, cm, per_class, overall)
    print(Path(paths["report"]).read_text(encoding="ascii"))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_classifier_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--classifier", choices=("svm", "knn"), default="svm",
                        help="classifier to train (default: svm)")
    parser.add_argument("--kernel", choices=sorted(_KERNEL_NAMES),
                        default="poly", help="SVM kernel (default: poly)")
    parser.add_argument("--degree", type=_int_from(1), default=3,
                        help="polynomial kernel degree (default: 3)")
    parser.add_argument("--gamma", type=_float_from(0, inclusive=False),
                        default=None,
                        help="kernel gamma (default: 1/n_features)")
    parser.add_argument("--coef0", type=_float_from(-math.inf, inclusive=False),
                        default=1.0,
                        help="polynomial kernel offset (default: 1)")
    parser.add_argument("--C", type=_float_from(0, inclusive=False),
                        default=1.0,
                        help="soft-margin penalty (default: 1)")
    parser.add_argument("--k", type=_int_from(1), default=3,
                        help="k-NN neighbor count (default: 3)")
    parser.add_argument("--no-scale", action="store_true",
                        help="skip z-scoring of features")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwrl",
        description="Handwritten digit recognition with regional weighted "
                    "run-length features.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess",
                       help="normalize raw digit scans to 64x64 binary images")
    p.add_argument("in_dir", help="directory of PGM/BMP digit scans")
    p.add_argument("out_dir", help="destination for normalized PGM images")
    p.add_argument("--sigma", type=_float_from(0, inclusive=True, high=MAX_SIGMA),
                   default=1.0,
                   help=f"Gaussian smoothing in px, 0-{MAX_SIGMA}: a wider blur "
                        "flattens a 64 px digit, at 6 kernel taps per px "
                        "(default: 1.0)")
    p.add_argument("--polarity", choices=(DARK_INK, LIGHT_INK),
                   default=DARK_INK,
                   help="which side of the threshold is ink (default: dark-ink)")
    p.add_argument("--jobs", type=_int_from(1), default=os.cpu_count(),
                   help="worker processes (default: logical CPUs)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("extract",
                       help="compute 196-dim feature vectors from normalized "
                            "images in class subdirectories 0..9")
    p.add_argument("in_dir", help="directory with class subdirectories 0..9")
    p.add_argument("out_file", help="feature file to write")
    p.add_argument("--jobs", type=_int_from(1), default=os.cpu_count(),
                   help="worker processes (default: logical CPUs)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a classifier on a feature file")
    p.add_argument("features", help="feature file from `rwrl extract`")
    p.add_argument("model", help="model file to write")
    _add_classifier_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict",
                       help="predict labels for a feature file with a saved model")
    p.add_argument("model", help="model file from `rwrl train`")
    p.add_argument("features", help="feature file to classify")
    p.add_argument("out_csv", help="predictions CSV to write")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval",
                       help="run a holdout or cross-validation experiment "
                            "and write metric reports")
    p.add_argument("features", help="feature file to evaluate on")
    p.add_argument("out_dir", help="directory for report artifacts")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--cv", type=_int_from(2), default=None,
                      help="stratified fold count")
    mode.add_argument("--holdout", type=_int_from(0), default=None,
                      help="training samples per class; the rest is tested")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the fold or holdout split (default: 0)")
    _add_classifier_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate the synthetic digit corpus")
    p.add_argument("out_dir", help="directory for class subdirectories 0..9")
    p.add_argument("--per-class", type=_int_from(1), default=100,
                   help="images per digit class (default: 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed (default: 0)")
    p.add_argument("--jobs", type=_int_from(1), default=os.cpu_count(),
                   help="worker processes (default: logical CPUs)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report",
                       help="recompute metric tables from a confusion CSV")
    p.add_argument("confusion", help="confusion matrix CSV")
    p.add_argument("out_dir", help="directory for report artifacts")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DimensionMismatchError, LengthMismatchError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (RwrlError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
