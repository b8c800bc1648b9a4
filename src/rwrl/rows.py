"""The row contract of the classifiers and the writer of every rwrl table.

A classifier trains on a (rows, dim) float64 matrix with one int64 label
per row (`training_rows`, `_int_labels`) and predicts rows z-scored with
its training statistics (`probe_rows`, `probe_chunks`, `scale_features`),
on a grid of 2^-16 so that their products are exact. Tables are
written as LF-ended ASCII lines of comma-joined fields (`write_csv`), with
numbers formatted so that `reader` reads them back exactly (`format_rows`);
a feature file is such a table under a `#rwrl-v1,dim=N` header
(`write_feature_file`).

`extract` and the table commands (train, predict, eval, report) share this
module, so none of the table commands loads the image-feature code of
`features`, and model files need no classifier module to format their rows.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDataError,
    FeatureFileError,
    LengthMismatchError,
)

FEATURE_FILE_VERSION = "#rwrl-v1"
# z-scores are multiples of GRID: a product of two is a multiple of 2^-32,
# which float64 holds exactly below 2^21, so dot products, norms and
# |q|² + |s|² − 2 q·s of rows whose norms sum below sqrt(2^21) are exact,
# whatever order the BLAS kernel sums in
GRID = 2.0 ** -16
# bound on the float64 block of one chunk of probe rows (`probe_chunks`)
CHUNK_BYTES = 1 << 20


def scale_features(values, mean, std) -> np.ndarray:
    """Z-score with training statistics, rounded to the nearest multiple of
    GRID (half to even); zero-variance dimensions map to 0. A value of
    magnitude 2^36 or more is already on the grid and is left as it is, as
    are NaN and infinities. The rounding works in place, so the result is
    all the memory it takes."""
    v = np.asarray(values, dtype=np.float64)
    m = np.asarray(mean, dtype=np.float64)
    s = np.asarray(std, dtype=np.float64)
    if v.shape[-1] != m.shape[-1] or m.shape != s.shape:
        raise LengthMismatchError(
            f"lengths disagree: values {v.shape[-1]}, mean {m.shape[-1]}, "
            f"std {s.shape[-1]}")
    if (s < 0).any():
        raise ValueError("std entries must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = v - m
        out /= s
    np.copyto(out, 0.0, where=~(s > 0))
    if -2.0 ** 36 < out.min(initial=0) and out.max(initial=0) < 2.0 ** 36:
        small = True
    else:   # NaN or a value of 2^36 or more, which 1 / GRID may overflow
        small = np.abs(out) < 2.0 ** 36
    np.multiply(out, 1 / GRID, out=out, where=small)
    np.rint(out, out=out, where=small)
    np.multiply(out, GRID, out=out, where=small)
    return out


def training_rows(features, labels, scale: bool) -> tuple[
        np.ndarray, np.ndarray, list[int], np.ndarray, np.ndarray]:
    """A classifier's checked training input: the float64 rows (the input
    itself if it is float64), the int64 labels, the sorted class list, and
    the training mean and std per dimension, (0, 1) when not scaling. A
    matrix with no row or no column raises EmptyDataError, and a label
    outside `_int_labels`' rule ValueError."""
    X = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if X.ndim != 2 or X.size == 0:
        raise EmptyDataError("training data is empty")
    if labels.shape != (len(X),):
        raise DimensionMismatchError(f"{len(X)} rows but {labels.size} labels")
    y = _int_labels(labels, ValueError)
    if scale:
        # std 16 columns at a time, as X.std(axis=0) would hold a copy of
        # X. A one-column block sums pairwise, which rounds apart, so a
        # one-column tail joins the block before it: the same bits
        edges = [*range(0, max(X.shape[1] - 1, 1), 16), X.shape[1]]
        with np.errstate(over="ignore", invalid="ignore"):
            mean = X.mean(axis=0)
            std = np.concatenate([X[:, a:b].std(axis=0)
                                  for a, b in zip(edges, edges[1:])])
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise FeatureFileError(
                "feature values overflow the scaling statistics")
    else:
        mean, std = np.zeros(X.shape[1]), np.ones(X.shape[1])
    return X, y, sorted(set(y.tolist())), mean, std


def _int_labels(labels, error: type[Exception]) -> np.ndarray:
    """`labels` as int64 (the input itself if it is int64), the rule of every
    label a classifier trains on or a feature file holds: a label whose int64
    value differs from it (0.5, NaN, 2.0**63) raises `error`."""
    labels = np.asarray(labels)
    try:
        with np.errstate(invalid="ignore"):     # NaN or past int64: refused
            y = labels.astype(np.int64, copy=False)
        if (y == labels).all():
            return y
    except (TypeError, ValueError, OverflowError):  # None, "a", 2**64
        pass
    raise error("labels must be integers within int64")


def probe_rows(model, features) -> np.ndarray:
    """Rows to classify, z-scored with the model's training statistics; a
    single vector is one row."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"model expects {model.dim} features, got {X.shape[1:]}")
    return scale_features(X, model.mean, model.std)


def probe_chunks(model, features, row_bytes: int, predict) -> np.ndarray:
    """`predict` of `probe_rows(model, features)`, a chunk of rows at a time,
    concatenated; each chunk is freed before the next is made. A chunk has
    at most CHUNK_BYTES // row_bytes rows (at least one), `row_bytes` being
    what `predict` holds per row. No row makes one empty chunk, so a wrong
    width raises all the same."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    step = max(1, CHUNK_BYTES // row_bytes)
    return np.concatenate([predict(probe_rows(model, X[start:start + step]))
                           for start in range(0, max(len(X), 1), step)])


# ---------------------------------------------------------------------------
# tables: feature files hold one `label,f1,...,fN` line per sample, read
# back by `reader.read_feature_file`
# ---------------------------------------------------------------------------

def write_feature_file(path, labels, features) -> None:
    """Write labeled feature rows as text with a `#rwrl-v1` header.
    `features` is a (rows, dim) matrix or a list of rows of one length,
    which is written as it is, never stacked into a second copy. A label
    outside `_int_labels`' rule, a non-finite value or rows of no column
    raise FeatureFileError before the file is opened."""
    rows, shape = _as_rows(features)
    y = np.asarray(labels)
    if shape is None or y.shape != shape[:1]:
        raise LengthMismatchError("labels and feature rows disagree")
    if shape[1] == 0:
        raise FeatureFileError("feature rows need at least one column")
    y = _int_labels(y, FeatureFileError)
    lines = format_rows(rows, ",", FeatureFileError)
    write_csv(path, itertools.chain(
        [(FEATURE_FILE_VERSION, f"dim={shape[1]}")], zip(y.tolist(), lines)))


def write_csv(path, rows) -> None:
    """Each row's fields joined by `,`, one LF-ended ASCII line per row,
    streamed as `rows` yields them: the writer of every rwrl table. It
    quotes nothing, as no rwrl field holds a comma, quote or line end.
    `synth`'s manifest alone has its own writer, as golden digests pin its
    CRLF lines."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def format_rows(rows, sep: str, error: type[Exception]):
    """Lines of `rows` values joined by `sep`: digits for an integral value,
    repr otherwise, which `reader` reads back exactly (-0.0 as 0). A
    non-finite value raises `error` before any line is made; an integer
    row needs no check."""
    rows, _ = _as_rows(rows)
    for block in rows if isinstance(rows, list) else [rows]:
        if block.dtype.kind not in "biu" and not np.isfinite(block).all():
            raise error("non-finite value")
    return (_format_row(row, sep) for row in rows)


def _as_rows(rows) -> tuple:
    """`rows` as an array, or a list as a list of arrays, which shares the
    rows it is given; and its (rows, width) shape, None unless it is 2-D."""
    if not isinstance(rows, list):
        rows = np.asarray(rows)
        return rows, rows.shape if rows.ndim == 2 else None
    rows = [np.asarray(row) for row in rows]
    shapes = {row.shape for row in rows}
    if len(shapes) == 1 and len(shape := shapes.pop()) == 1:
        return rows, (len(rows), *shape)
    return rows, None


def _format_row(row: np.ndarray, sep: str) -> str:
    # integers within 2**53 of 0, which float() keeps exact, join as they
    # are. One row at a time and no numpy call but tolist(): a matrix-sized
    # temporary, or a numpy function first used here, raises the peak RSS
    values = row.tolist()
    if (row.dtype.kind in "iu" and -2 ** 53 <= min(values, default=0)
            and max(values, default=0) <= 2 ** 53):
        return sep.join(map(str, values))
    return sep.join(str(int(f)) if f.is_integer() else repr(f)
                    for f in map(float, values))
