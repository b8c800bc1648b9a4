"""Command-line entry point.

Subcommands mirror the pipeline stages: synth -> preprocess -> extract ->
train/predict/eval, plus report for re-deriving metric tables from a saved
confusion matrix. All stages are deterministic for a given --seed.

The module imports only the standard library and `errors`, which holds the
flag bounds, so `--help`, `<command> --help` and every usage error (exit 2)
return before numpy loads. Each subcommand and worker imports the layers it
runs, a subcommand before any worker process forks, so a process loads and
compiles no layer it does not use.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import math
import sys
from pathlib import Path

from .errors import (
    DARK_INK,
    LIGHT_INK,
    MAX_DEGREE,
    MAX_SIGMA,
    DimensionMismatchError,
    EmptyDataError,
    LengthMismatchError,
    RwrlError,
)

_KERNEL_NAMES = {"poly": "polynomial", "linear": "linear", "rbf": "rbf"}


def _int_from(low: int, high=math.inf):
    """argparse type: an integer in [low, high]."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
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
# image workers: each maps one chunk of pages
# ---------------------------------------------------------------------------

CHUNK = 16  # pages per worker call: a larger stack leaves the CPU cache
# pixels per stack: pages past 128x128 stack fewer, and from 512x512 on run
# alone, so no stack holds float planes many times a big page's size
STACK_PIXELS = CHUNK * 128 * 128


def _attempt(fn, *args):
    """`fn(*args)`, or the RwrlError it raised."""
    try:
        return fn(*args)
    except RwrlError as exc:
        return exc


def _stacked(layers, paths) -> list:
    """`layers` of each page decoded from `paths`, run once per stack of
    equal-shape pages, or the page's RwrlError. A stack that raises one runs
    again page by page, so each bad page keeps its own error."""
    import numpy as np
    from .raster import decode_image
    out = [_attempt(decode_image, Path(path).read_bytes()) for path in paths]
    shapes = {}
    for i, page in enumerate(out):
        if not isinstance(page, RwrlError):
            shapes.setdefault(page.shape, []).append(i)
    for idx in shapes.values():
        size = max(1, STACK_PIXELS // out[idx[0]].size)
        for stack in (idx[k:k + size] for k in range(0, len(idx), size)):
            pages = [out[i] for i in stack]
            try:
                results = layers(np.stack(pages))
            except RwrlError:
                results = [_attempt(layers, page) for page in pages]
            for i, result in zip(stack, results):
                out[i] = result
    return out


def _write_normalized(bits, out_path) -> None:
    from .raster import binary_to_gray, encode_pgm, normalize_digit
    Path(out_path).write_bytes(encode_pgm(binary_to_gray(normalize_digit(bits))))


def _preprocess_chunk(sigma, polarity, tasks) -> list:
    from .raster import gaussian_smooth, ink
    bits = _stacked(lambda stack: ink(gaussian_smooth(stack, sigma), polarity),
                    [src for src, _ in tasks])
    return [b if isinstance(b, RwrlError) else _attempt(_write_normalized, b, out)
            for b, (_, out) in zip(bits, tasks)]


def _extract_chunk(tasks) -> list:
    import numpy as np
    from .features import extract_contour, extract_features
    from .raster import ink
    # a feature is at most 16 * 16 * 16 * 8: int32 rows halve what the
    # workers send and what the parent holds until the file is written
    return _stacked(
        lambda stack: extract_features(
            extract_contour(ink(stack, DARK_INK))).astype(np.int32),
        [path for (path,) in tasks])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_images(worker, tasks, jobs: int) -> list[tuple[int, object]]:
    """`worker(chunk)` over chunks of CHUNK tasks `(path, ...)`, a result or
    an RwrlError per task: warns of each skip in input order and returns
    (task index, result) of the images that passed."""
    from .dataset import parallel_map
    chunks = [tasks[i:i + CHUNK] for i in range(0, len(tasks), CHUNK)]
    results = list(itertools.chain.from_iterable(
        parallel_map(worker, chunks, jobs)))
    for task, result in zip(tasks, results):
        if isinstance(result, RwrlError):
            _warn(f"skipped {task[0]}: {type(result).__name__}: {result}")
    return [(i, r) for i, r in enumerate(results)
            if not isinstance(r, RwrlError)]


def cmd_preprocess(args) -> int:
    from .dataset import image_files
    in_dir = Path(args.in_dir)
    files = image_files(in_dir.rglob("*"))
    if not files:
        _warn(f"no input images under {in_dir}")
        return 2
    tasks, first = [], {}
    for p in files:
        out = str(Path(args.out_dir) / p.relative_to(in_dir).with_suffix(".pgm"))
        if first.setdefault(out, p) is p:
            tasks.append((str(p), out))
        else:
            _warn(f"skipped {p}: output {out} clashes with {first[out]}")
    for out_dir in {Path(out).parent for _, out in tasks}:
        out_dir.mkdir(parents=True, exist_ok=True)
    worker = functools.partial(_preprocess_chunk, args.sigma, args.polarity)
    successes = len(_run_images(worker, tasks, args.jobs))
    print(f"preprocessed {successes}/{len(files)} images -> {args.out_dir}")
    return 0 if successes else 2


def cmd_extract(args) -> int:
    from . import features  # loaded before the workers fork, not in each one
    from .dataset import scan_dataset
    from .rows import write_feature_file
    entries = scan_dataset(args.in_dir).entries
    passed = _run_images(_extract_chunk, [(str(p),) for p, _ in entries],
                         args.jobs)
    if not passed:
        _warn("no image produced features")
        return 2
    # a list of rows is written as it is: each row is held once
    write_feature_file(args.out_file, [entries[i][1] for i, _ in passed],
                       [feats for _, feats in passed])
    print(f"wrote {len(passed)} feature rows -> {args.out_file}")
    return 0


def _fit(args):
    """`fit(X, y)` of --classifier, importing only that classifier's
    module; the model it returns predicts with `model.predict(X)`."""
    scale = not args.no_scale
    if args.classifier == "svm":
        from .svm import KernelParams, svm_train
        params = KernelParams(_KERNEL_NAMES[args.kernel], args.degree,
                              args.gamma, args.coef0, getattr(args, "C"))
        return lambda X, y: svm_train(X, y, params, scale=scale)
    from .knn import knn_train
    return lambda X, y: knn_train(X, y, k=args.k, scale=scale)


def cmd_train(args) -> int:
    from .model_io import model_save
    from .reader import read_feature_file
    fit = _fit(args)
    y, X = read_feature_file(args.features)
    Path(args.model).write_bytes(model_save(fit(X, y)))
    print(f"trained {args.classifier} on {len(y)} samples -> {args.model}")
    return 0


def cmd_predict(args) -> int:
    from .model_io import model_load
    from .reader import read_feature_file
    from .rows import write_csv
    model = model_load(Path(args.model).read_bytes())
    y, X = read_feature_file(args.features)
    if not len(y):
        raise EmptyDataError("feature file holds no rows to predict")
    predicted = model.predict(X)
    write_csv(args.out_csv, itertools.chain(
        [("index", "true", "predicted")], zip(itertools.count(), y, predicted)))
    accuracy = float((predicted == y).mean())
    print(f"accuracy {accuracy:.4f} ({len(y)} samples) -> {args.out_csv}")
    return 0


def _write_reports(out_dir, cm):
    """Metrics of `cm` written under out_dir: (overall metrics, report)."""
    from . import evaluate
    per_class = evaluate.class_metrics(cm)
    overall = evaluate.overall_metrics(cm)
    return overall, evaluate.write_reports(out_dir, cm, per_class, overall)


def cmd_eval(args) -> int:
    from . import evaluate
    from .reader import read_feature_file
    from .rows import write_csv
    fit = _fit(args)
    y, X = read_feature_file(args.features)

    def fit_predict(train_X, train_y, test_X):
        return fit(train_X, train_y).predict(test_X)

    folds = (evaluate.stratified_kfold(y, args.cv, args.seed)
             if args.cv is not None
             else [evaluate.holdout_split(y, args.holdout, args.seed)[1]])
    cm, fold_acc = evaluate.score_folds(X, y, folds, fit_predict)
    out_dir = Path(args.out_dir)
    if args.cv is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "folds.csv", [("fold", "accuracy")] + [
            (i, f"{acc:.4f}") for i, acc in enumerate(fold_acc)])
        for i, acc in enumerate(fold_acc):
            print(f"fold {i} accuracy {acc:.4f}")
    overall, _ = _write_reports(out_dir, cm)
    print(f"accuracy {overall.accuracy:.4f} ({cm.total} samples) -> {out_dir}")
    return 0


def cmd_synth(args) -> int:
    from .dataset import synth_generate
    manifest = synth_generate(args.seed, args.per_class, args.out_dir,
                              jobs=args.jobs)
    print(f"generated {len(manifest)} images -> {args.out_dir}")
    return 0


def cmd_report(args) -> int:
    from .evaluate import read_confusion_csv
    _, report = _write_reports(args.out_dir, read_confusion_csv(args.confusion))
    print(report)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_classifier_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--classifier", choices=("svm", "knn"), default="svm",
                        help="classifier to train (default: svm)")
    parser.add_argument("--kernel", choices=sorted(_KERNEL_NAMES),
                        default="poly", help="SVM kernel (default: poly)")
    parser.add_argument("--degree", type=_int_from(1, MAX_DEGREE), default=3,
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


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_int_from(1), default=None,
                        help="worker processes (default: usable CPUs)")


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
    _add_jobs_flag(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("extract",
                       help="compute 196-dim feature vectors from normalized "
                            "images in class subdirectories 0..9")
    p.add_argument("in_dir", help="directory with class subdirectories 0..9")
    p.add_argument("out_file", help="feature file to write")
    _add_jobs_flag(p)
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
    p.add_argument("--seed", type=_int_from(0), default=0,
                   help="seed of the fold or holdout split (default: 0)")
    _add_classifier_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate the synthetic digit corpus")
    p.add_argument("out_dir", help="directory for class subdirectories 0..9")
    p.add_argument("--per-class", type=_int_from(1), default=100,
                   help="images per digit class (default: 100)")
    p.add_argument("--seed", type=_int_from(0, 2 ** 32 - 1), default=0,
                   help="random seed, below 2**32 (default: 0)")
    _add_jobs_flag(p)
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
    except (RwrlError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        mismatch = (DimensionMismatchError, LengthMismatchError)
        return 3 if isinstance(exc, mismatch) else 2


def entry() -> None:
    try:
        sys.exit(main())
    finally:
        # At exit CPython runs a full collection over every tracked object,
        # some 22k of them from numpy's import alone, though a command leaves
        # no garbage cycle worth freeing. Frozen objects are out of its
        # reach. Not os._exit: that skips atexit handlers and the flush of
        # stdout and stderr (the forked workers do end in os._exit).
        gc.freeze()


if __name__ == "__main__":
    entry()
