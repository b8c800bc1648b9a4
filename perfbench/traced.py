"""The CLI's subcommands replayed in-process, with a span around each library call.

Each function follows the call order of the matching ``rwrl.cli.cmd_*`` at
``--jobs 1`` and writes the same artifacts, so the benchmark can require them
to equal the untraced CLI run's byte for byte. Only public library functions
are called. The one hook into the program is a wrapper that records
``kernel_matrix`` calls made from inside ``svm_train``, installed for the
duration of a traced run by `kernel_spans`.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np

import rwrl
import rwrl.svm
from rwrl import dataset
from rwrl.errors import EmptyImageError, RwrlError
from rwrl.raster import DARK_INK, binary_to_gray

from spans import Tracer

DECODE_SPANS = {b"P5": "raster.decode_p5", b"P2": "raster.decode_p2",
                b"BM": "raster.decode_bmp"}


@contextmanager
def kernel_spans(tr: Tracer):
    """Record a span around every `rwrl.svm.kernel_matrix` call."""
    original = rwrl.svm.kernel_matrix

    def traced_kernel(*args, **kwargs):
        return tr.call("svm.kernel_matrix", original, *args, **kwargs)

    rwrl.svm.kernel_matrix = traced_kernel
    try:
        yield
    finally:
        rwrl.svm.kernel_matrix = original


# ---------------------------------------------------------------------------
# per-item steps
# ---------------------------------------------------------------------------

def render(tr: Tracer, seed: int, label: int, index: int) -> bytes:
    """One synthetic image, drawn from the stream `rwrl synth` gives it."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, label, index])
    glyph = tr.call("dataset.render_glyph", dataset.render_glyph, label, rng)
    return tr.call("raster.encode_pgm", rwrl.encode_pgm, glyph)


def decode(tr: Tracer, data: bytes) -> np.ndarray:
    name = DECODE_SPANS.get(bytes(data[:2]), "raster.decode_other")
    return tr.call(name, rwrl.decode_image, data)


def preprocess_bytes(tr: Tracer, data: bytes, sigma: float = 1.0) -> bytes:
    """`preprocess_image` then PGM encoding, as `rwrl preprocess` does per file."""
    smooth = tr.call("raster.gaussian_smooth", rwrl.gaussian_smooth,
                     decode(tr, data), sigma)
    if smooth.min() == smooth.max():
        raise EmptyImageError("blank page: image is constant")
    t = tr.call("raster.otsu_threshold", rwrl.otsu_threshold, smooth)
    bits = tr.call("raster.binarize", rwrl.binarize, smooth, t, DARK_INK)
    normalized = tr.call("raster.normalize_digit", rwrl.normalize_digit, bits)
    return tr.call("raster.encode_pgm", rwrl.encode_pgm,
                   binary_to_gray(normalized))


def features_of(tr: Tracer, data: bytes) -> np.ndarray:
    """The feature vector `rwrl extract` computes for one normalized image."""
    gray = decode(tr, data)
    t = tr.call("raster.otsu_threshold", rwrl.otsu_threshold, gray)
    bits = tr.call("raster.binarize", rwrl.binarize, gray, t, DARK_INK)
    contour = tr.call("contour.extract_contour", rwrl.extract_contour, bits)
    return tr.call("features.extract_features", rwrl.extract_features, contour)


def _skip(tr: Tracer, exc: RwrlError) -> None:
    tr.count(f"cli.skipped_images.{type(exc).__name__}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def synth(tr: Tracer, out_dir: Path, per_class: int, seed: int) -> None:
    entries = []
    for label in dataset.CLASS_LABELS:
        class_dir = out_dir / str(label)
        class_dir.mkdir(parents=True, exist_ok=True)
        for index in range(per_class):
            path = class_dir / f"{index:04d}.pgm"
            path.write_bytes(render(tr, seed, label, index))
            entries.append((path, label))
    dataset.write_manifest_csv(out_dir / "manifest.csv",
                               dataset.Manifest(entries), relative_to=out_dir)


def preprocess(tr: Tracer, in_dir: Path, out_dir: Path) -> None:
    files = sorted(p for p in in_dir.rglob("*")
                   if p.suffix.lower() in dataset.IMAGE_SUFFIXES)
    for path in files:
        tr.count("cli.images")
        try:
            encoded = preprocess_bytes(tr, path.read_bytes())
        except RwrlError as exc:
            _skip(tr, exc)
            continue
        out = out_dir / path.relative_to(in_dir).with_suffix(".pgm")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(encoded)


def extract(tr: Tracer, in_dir: Path, out_file: Path) -> None:
    labels, rows = [], []
    for path, label in rwrl.scan_dataset(in_dir).entries:
        tr.count("cli.images")
        try:
            rows.append(features_of(tr, path.read_bytes()))
        except RwrlError as exc:
            _skip(tr, exc)
            continue
        labels.append(label)
    tr.call("features.write_feature_file", rwrl.write_feature_file,
            out_file, labels, np.array(rows))


def _read(tr: Tracer, path: Path):
    return tr.call("features.read_feature_file", rwrl.read_feature_file, path)


def _train(tr: Tracer, classifier: str, X, y, seed: int):
    if classifier == "svm":
        model = tr.call("svm.svm_train", rwrl.svm_train, X, y,
                        rwrl.KernelParams("polynomial"), seed=seed)
        sv = np.vstack([m.support_vectors for m in model.machines])
        tr.count("svm.sv_rows", len(sv))
        tr.count("svm.sv_unique_rows", len(np.unique(sv, axis=0)))
        return model
    return tr.call("knn.knn_train", rwrl.knn_train, X, y, k=3)


def _predict(tr: Tracer, classifier: str, model, X) -> np.ndarray:
    tr.count(f"{classifier}.predicted_rows", len(X))
    if classifier == "svm":
        return tr.call("svm.svm_predict_batch", rwrl.svm_predict_batch, model, X)
    return tr.call("knn.knn_predict_batch", rwrl.knn_predict_batch, model, X)


def evaluate_holdout(tr: Tracer, features: Path, out_dir: Path,
                     classifier: str, holdout: int, seed: int) -> None:
    y, X = _read(tr, features)
    train_idx, test_idx = tr.call("evaluate.holdout_split", rwrl.holdout_split,
                                  y, holdout, seed)
    model = _train(tr, classifier, X[train_idx], y[train_idx], seed)
    predicted = _predict(tr, classifier, model, X[test_idx])
    classes = sorted(int(c) for c in np.unique(y))
    cm = tr.call("evaluate.confusion", rwrl.confusion, y[test_idx], predicted,
                 classes)
    per_class = tr.call("evaluate.class_metrics", rwrl.class_metrics, cm)
    overall = tr.call("evaluate.overall_metrics", rwrl.overall_metrics, cm)
    tr.call("evaluate.write_reports", rwrl.evaluate.write_reports, out_dir, cm,
            per_class, overall)


def train(tr: Tracer, features: Path, model_path: Path, classifier: str,
          seed: int) -> None:
    y, X = _read(tr, features)
    model = _train(tr, classifier, X, y, seed)
    model_path.write_bytes(tr.call(f"model_io.save_{classifier}",
                                   rwrl.model_save, model))


def predict(tr: Tracer, model_path: Path, features: Path, out_csv: Path,
            classifier: str) -> None:
    model = tr.call(f"model_io.load_{classifier}", rwrl.model_load,
                    model_path.read_bytes())
    y, X = _read(tr, features)
    predicted = _predict(tr, classifier, model, X)
    with open(out_csv, "w", encoding="ascii") as fh:
        fh.write("index,true,predicted\n")
        for i, (t, p) in enumerate(zip(y, predicted)):
            fh.write(f"{i},{t},{p}\n")
