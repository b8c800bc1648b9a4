"""The bulk path of `rwrl.reader` against its per-field path.

`Lines.rows` reads rows of short integers in bulk (`reader._bulk_rows`);
any other rows field by field. Both must read the same bytes to the same
arrays, bit for bit, or raise the same error: each case here runs once as
it is and once with the bulk path switched off, on a feature file, a k-NN
pool and an SVM pool.
"""

import tracemalloc

import numpy as np
import pytest

from rwrl import reader
from rwrl.errors import (CorruptModelError, FeatureFileError, RwrlError,
                         UnknownLabelError)
from rwrl.evaluate import confusion, read_confusion_csv, write_confusion_csv
from rwrl.knn import knn_train
from rwrl.model_io import model_load, model_save
from rwrl.reader import read_feature_file
from rwrl.rows import write_feature_file
from rwrl.svm import KernelParams, svm_train

KINDS = ("features", "knn", "svm")


def _tokens(rng, n: int) -> list[str]:
    """n integer tokens of the bulk rule: small, negative, `-0`, leading
    zeros, and 15 digits, the longest the bulk path takes."""
    kind = rng.integers(0, 6, n)
    value = rng.integers(0, 4000, n)
    wide = rng.integers(10 ** 14, 10 ** 15, n)
    return [("0", str(v), f"-{v}", "-0", f"00{v}", f"-{w}" if v % 2 else
             str(w))[k] for k, v, w in zip(kind.tolist(), value.tolist(),
                                          wide.tolist())]


def _rows(rng, count: int, dim: int, keyed: bool) -> list[list[str]]:
    return [_tokens(rng, dim + keyed) for _ in range(count)]


def _text(rows, sep: str) -> bytes:
    return "".join(sep.join(row) + "\n" for row in rows).encode()


def _model(kind: str, count: int, dim: int, pool: bytes) -> bytes:
    """A model file whose pool lines are `pool`, declared as `count` rows."""
    if kind == "knn":
        head, tail = b"#rwrl-knn-v2\nk 1\n", (
            b"labels " + b" ".join([b"0"] * count) + b"\nend\n")
    else:
        head = (b"#rwrl-svm-v3\nkernel polynomial degree=3 gamma=0.5 "
                b"coef0=1.0 C=1.0\n")
        tail = b"machine 0 1 nsv=1 bias=0.25\n0 -1.5\nend\n"
    stats = b" ".join([b"0"] * dim) + b"\n", b" ".join([b"1"] * dim) + b"\n"
    return (head + b"classes 0 1\ndim %d\nmean " % dim + stats[0] + b"std "
            + stats[1] + b"pool %d\n" % count + pool + tail)


def _read(kind: str, rows_text: bytes, count: int, dim: int, tmp_path):
    """What the reader of `kind` returns for these pool or feature rows:
    each array as (dtype, shape, bytes), or the error class and message."""
    try:
        if kind == "features":
            path = tmp_path / "rows.txt"
            path.write_bytes(b"#rwrl-v1,dim=%d\n" % dim + rows_text)
            arrays = read_feature_file(path)
        else:
            model = model_load(_model(kind, count, dim, rows_text))
            arrays = (model.pool, model.mean, model.std)
    except RwrlError as exc:
        return type(exc), str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@pytest.fixture
def paths(monkeypatch, tmp_path):
    """`read(kind, rows, count, dim)`: what each path reads, (bulk run
    first, per-field), and whether the bulk path took the rows."""
    taken = []

    def spy(*args):
        result = bulk(*args)
        taken.append(result is not None)
        return result

    bulk = reader._bulk_rows

    def read(kind, rows_text, count, dim):
        taken.clear()
        monkeypatch.setattr(reader, "_bulk_rows", spy)
        first = _read(kind, rows_text, count, dim, tmp_path)
        monkeypatch.setattr(reader, "_bulk_rows", lambda *args: None)
        return first, _read(kind, rows_text, count, dim, tmp_path), any(taken)
    return read


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(6))
def test_integer_rows_read_in_bulk_as_field_by_field(paths, kind, seed):
    rng = np.random.default_rng([31, seed])
    dim = int(rng.choice([1, 2, 5, 196]))
    count = int(rng.choice([1, 2, 7, 300]))
    keyed = kind == "features"
    rows = _rows(rng, count, dim, keyed)
    sep = "," if keyed else " "
    bulk, per_field, taken = paths(kind, _text(rows, sep), count, dim)
    assert taken and isinstance(bulk, list)
    assert bulk == per_field


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_cr_line_ends_read_in_bulk_as_lf(paths, kind, end):
    # Lines makes every line end LF once, so CRLF and CR copies of integer
    # rows take the bulk path too
    rng = np.random.default_rng(37)
    keyed = kind == "features"
    rows_text = _text(_rows(rng, 40, 196, keyed), "," if keyed else " ")
    lf, _, _ = paths(kind, rows_text, 40, 196)
    bulk, per_field, taken = paths(kind, rows_text.replace(b"\n", end),
                                   40, 196)
    assert taken and isinstance(bulk, list)
    assert bulk == per_field == lf


def test_minus_zero_reads_as_negative_zero(paths):
    rows_text = b"-0,-0,007,-000000000000001\n0,123456789012345,-0,5\n"
    bulk, per_field, taken = paths("features", rows_text, 2, 3)
    assert taken and bulk == per_field
    labels, X = (np.frombuffer(data, dtype).reshape(shape)
                 for dtype, shape, data in bulk)
    assert labels.tolist() == [0, 0]
    assert X.tolist() == [[-0.0, 7.0, -1.0], [123456789012345.0, -0.0, 5.0]]
    assert np.signbit(X[:, :2]).tolist() == [[True, False], [False, True]]


def _edit_token(rows, sep, new):
    rows = [list(row) for row in rows]
    rows[-1][1] = new
    return _text(rows, sep)


# each edit of well-formed rows that leaves the bulk rule, made in the last
# row, so that the bulk path has read blocks before it: rows, separator ->
# the bytes
FALL_BACK = {
    "blank-line": lambda rows, sep: _text(rows[:-1], sep) + b"\n"
    + _text(rows[-1:], sep),
    "trailing-space": lambda rows, sep: _text(rows, sep)[:-1] + b" \n",
    "plus": lambda rows, sep: _edit_token(rows, sep, "+3"),
    "point-five": lambda rows, sep: _edit_token(rows, sep, ".5"),
    "exponent": lambda rows, sep: _edit_token(rows, sep, "1e5"),
    "16-digits": lambda rows, sep: _edit_token(rows, sep, "1234567890123456"),
    "minus-inside": lambda rows, sep: _edit_token(rows, sep, "1-2"),
    "lone-minus": lambda rows, sep: _edit_token(rows, sep, "-"),
    "empty-field": lambda rows, sep: _edit_token(rows, sep, ""),
    "short-row": lambda rows, sep: _text([*rows[:-1], rows[-1][:-1]], sep),
    "long-row": lambda rows, sep: _text([*rows[:-1], rows[-1] + ["4"]], sep),
    "non-ascii": lambda rows, sep: _edit_token(rows, sep, "1١"),
    "no-final-lf": lambda rows, sep: _text(rows, sep)[:-1],
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("edit", sorted(FALL_BACK))
def test_other_rows_fall_back_to_the_same_outcome(paths, kind, edit):
    rng = np.random.default_rng(37)
    keyed = kind == "features"
    sep = "," if keyed else " "
    rows = _rows(rng, 40, 196, keyed)
    bulk, per_field, taken = paths(kind, FALL_BACK[edit](rows, sep), 40, 196)
    assert not taken
    assert bulk == per_field


def _traced_peak(path) -> tuple[int, np.ndarray]:
    """The tracemalloc peak of reading the feature file at `path`, and X."""
    tracemalloc.start()
    try:
        _, X = read_feature_file(path)
        return tracemalloc.get_traced_memory()[1], X
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_bulk_read_holds_the_matrix_once(tmp_path, end):
    # 6000 x 196 integer rows, the paper's protocol: no list of per-row
    # arrays, no stacked copy and no temporary of the matrix's size. Of a
    # CRLF copy, Lines makes one LF copy and drops the bytes read, so the
    # matrix is read beside the LF bytes alone, as from the LF file
    rng = np.random.default_rng(41)
    X = rng.integers(0, 4000, size=(6000, 196)) * (rng.random((6000, 196))
                                                    < 0.6)
    path = tmp_path / "features.txt"
    write_feature_file(path, rng.integers(0, 10, 6000), X)
    del X
    lf_size = path.stat().st_size
    path.write_bytes(path.read_bytes().replace(b"\n", end))
    peak, read = _traced_peak(path)
    assert peak <= read.nbytes + lf_size + 2 ** 20


def test_per_field_read_holds_the_matrix_once(tmp_path):
    # 2000 x 196 float rows go field by field, each row written into one
    # matrix: no list of per-row arrays and no stacked copy
    rng = np.random.default_rng(43)
    path = tmp_path / "features.txt"
    write_feature_file(path, rng.integers(0, 10, 2000),
                       rng.random((2000, 196)))
    peak, read = _traced_peak(path)
    assert peak <= read.nbytes + path.stat().st_size + 2 ** 20


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim, short_rows", [(2 ** 59, 2), (50_000, 49_999)],
                         ids=["dim-2^59", "wide-first-row"])
def test_short_rows_allocate_nothing_of_dim_size(tmp_path, kind, dim,
                                                 short_rows):
    # a header's dim over short rows, or one full-width row and then more
    # rows than the file could hold at full width: the guard refuses both
    # before any matrix is allocated
    keyed = kind == "features"
    first = b"" if dim > 2 ** 20 else b" ".join([b"1"] * (dim + keyed)) + b"\n"
    rows = first + b"0 1 2\n" * short_rows
    count = rows.count(b"\n")
    tracemalloc.start()
    try:
        with pytest.raises(RwrlError, match="fields, expected"):
            if keyed:
                path = tmp_path / "rows.txt"
                path.write_bytes(b"#rwrl-v1,dim=%d\n" % dim
                                 + rows.replace(b" ", b","))
                read_feature_file(path)
            else:
                model_load(_model(kind, count, 3, rows).replace(
                    b"dim 3\n", b"dim %d\n" % dim))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def _problem(integer: bool):
    """30 rows of 6 features in 3 classes, integers or not."""
    rng = np.random.default_rng(47)
    y = np.repeat(np.arange(3), 10)
    X = rng.integers(0, 50, (30, 6)) + 100 * y[:, None]
    return (X if integer else X + rng.random(X.shape)), y


def _read_features(path):
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in read_feature_file(path)]


def _read_model(path):
    return model_save(model_load(path.read_bytes()))   # exact round trip


def _read_confusion(path):
    cm = read_confusion_csv(path)
    return cm.classes, cm.counts.tolist()


# every table rwrl reads: its error class, its writer and its reader
TABLES = {
    "features-integer": (FeatureFileError, lambda path: write_feature_file(
        path, *_problem(True)[::-1]), _read_features),
    "features-float": (FeatureFileError, lambda path: write_feature_file(
        path, *_problem(False)[::-1]), _read_features),
    "knn": (CorruptModelError, lambda path: path.write_bytes(model_save(
        knn_train(*_problem(True), k=3))), _read_model),
    "svm": (CorruptModelError, lambda path: path.write_bytes(model_save(
        svm_train(*_problem(False), KernelParams("linear")))), _read_model),
    "confusion": (UnknownLabelError, lambda path: write_confusion_csv(
        path, confusion([0, 0, 1, 4, 4], [0, 1, 1, 4, 0], [0, 1, 4])),
        _read_confusion),
}


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("edit", [
    b"\r\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", "non-ascii",
], ids=["crlf", "cr", "vt", "ff", "fs", "gs", "rs", "non-ascii"])
def test_every_table_ends_its_lines_at_lf_crlf_or_cr(tmp_path, table, edit):
    # one line rule for all tables (rwrl.reader.Lines): CRLF and CR read as
    # LF, the other line ends of str.splitlines() end no line, and a file
    # that is not ASCII is refused, each with the table's own error class
    error, write, read = TABLES[table]
    path = tmp_path / "table"
    write(path)
    lf = path.read_bytes()
    expected = read(path)
    if edit in (b"\r\n", b"\r"):
        path.write_bytes(lf.replace(b"\n", edit))
        assert read(path) == expected
        if error is CorruptModelError:     # one more line end is data
            path.write_bytes(lf.replace(b"\n", edit) + edit)
            with pytest.raises(error, match="after the end marker"):
                read(path)
        return
    # a non-ASCII byte where stripping might hide it: before a line end
    path.write_bytes(lf[:-1] + b"\xa0\n" if edit == "non-ascii"
                     else lf.replace(b"\n", edit))
    with pytest.raises(error) as exc:
        read(path)
    assert type(exc.value) is error


@pytest.mark.parametrize("value", ["3", "3.5"], ids=["integer", "float"])
@pytest.mark.parametrize("text", [
    "#rwrl-v1,dim=2\n0,1,{v}\n\n1,{v},4\n",
    "#rwrl-v1,dim=2\n0,1,{v}\n1,{v},4\n\n",
    "#rwrl-v1,dim=2\n0,1,{v}\n \n1,{v},4\n",
    "#rwrl-v1,dim=2\n0,1,{v}\n\t1,{v},4\n",
    "#rwrl-v1,dim=2\n0,1,{v}\n1,{v},4 \n",
    "#rwrl-v1,dim=2 \n0,1,{v}\n1,{v},4\n",
], ids=["blank-line", "blank-last-line", "whitespace-line", "leading-tab",
        "trailing-space", "header-trailing-blank"])
def test_feature_file_follows_the_table_rule(tmp_path, text, value):
    # as in model and confusion files, no blank is trimmed from a line and
    # no line is skipped: each of these is malformed
    path = tmp_path / "features.txt"
    path.write_text(text.format(v=value))
    with pytest.raises(FeatureFileError):
        read_feature_file(path)
