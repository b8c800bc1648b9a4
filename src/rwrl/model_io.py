"""Versioned line-oriented text serialization for trained models.

SVM files start with ``#rwrl-svm-v2``, k-NN files with ``#rwrl-knn-v1``.
Floats are written with repr(), which round-trips exactly, so a loaded
model reproduces bit-identical predictions.

An SVM file stores each distinct support vector once, in a pool of rows
numbered in order of first appearance (``pool P`` and P rows of ``dim``
floats); each class-pair machine then lists ``pool-index coefficient``
rows, as LIBSVM's model shares its support vectors. The machines must be
exactly the pairs ``svm_train`` builds, in its order. An SVM file of
another version, such as ``#rwrl-svm-v1``, is a version mismatch.
"""

from __future__ import annotations

import numpy as np

from .errors import CorruptModelError, VersionMismatchError
from .features import parse_floats, parse_ints, parse_rows
from .knn import KnnModel
from .svm import BinaryMachine, KernelParams, SvmModel

SVM_VERSION = "#rwrl-svm-v2"
KNN_VERSION = "#rwrl-knn-v1"
_END = "end"


def _floats(values) -> str:
    return " ".join(map(repr, values.tolist()))


def model_save(model) -> bytes:
    """Serialize an SvmModel or KnnModel to bytes."""
    if isinstance(model, SvmModel):
        lines = _svm_lines(model)
    elif isinstance(model, KnnModel):
        lines = _knn_lines(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return ("\n".join(lines + [_END]) + "\n").encode("ascii")


def _header_lines(model) -> list[str]:
    """Class list and scaling statistics, shared by both formats."""
    return ["classes " + " ".join(str(c) for c in model.classes),
            f"dim {model.dim}",
            "mean " + _floats(model.mean),
            "std " + _floats(model.std)]


def _svm_lines(model: SvmModel) -> list[str]:
    p = model.params
    lines = [SVM_VERSION,
             f"kernel {p.kind} degree={int(p.degree)} gamma={float(p.gamma)!r} "
             f"coef0={float(p.coef0)!r} C={float(p.C)!r}",
             *_header_lines(model)]
    index: dict[bytes, int] = {}    # pool row bytes -> pool index
    pool, machines = [], []
    for m in model.machines:
        machines.append(f"machine {m.first} {m.second} "
                        f"nsv={len(m.coefficients)} bias={float(m.bias)!r}")
        for coef, sv in zip(m.coefficients.tolist(), m.support_vectors):
            key = sv.tobytes()
            if key not in index:
                index[key] = len(pool)
                pool.append(_floats(sv))
            machines.append(f"{index[key]} {coef!r}")
    return lines + [f"pool {len(pool)}", *pool, *machines]


def _knn_lines(model: KnnModel) -> list[str]:
    lines = [KNN_VERSION, f"k {model.k}", *_header_lines(model),
             f"samples {len(model.samples)}"]
    lines.extend(f"{int(label)} " + _floats(row)
                 for label, row in zip(model.labels, model.samples))
    return lines


class _Reader:
    def __init__(self, data: bytes):
        try:
            self.lines = data.decode("ascii").splitlines()
        except UnicodeDecodeError:
            raise CorruptModelError("model file is not ASCII text") from None
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise CorruptModelError("model file ends prematurely")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, key: str) -> list[str]:
        fields = self.next().split()
        if not fields or fields[0] != key:
            raise CorruptModelError(f"expected {key!r} record")
        return fields[1:]

    def integer(self, key: str) -> int:
        """The value of a one-integer record such as `dim 196`."""
        fields = self.expect(key)
        if len(fields) != 1:
            raise CorruptModelError(f"bad {key} record")
        return parse_ints(fields, CorruptModelError)[0]

    def header(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Class list, mean and std, checked against the declared dim."""
        classes = parse_ints(self.expect("classes"), CorruptModelError)
        if not classes or classes != sorted(set(classes)):
            raise CorruptModelError("class list is empty or not ascending")
        dim = self.integer("dim")
        if dim < 1:
            raise CorruptModelError(f"dim {dim} is below 1")
        mean = parse_floats(self.expect("mean"), CorruptModelError)
        std = parse_floats(self.expect("std"), CorruptModelError)
        if len(mean) != dim or len(std) != dim:
            raise CorruptModelError("scaling statistics disagree with dim")
        if (std < 0).any():
            raise CorruptModelError("negative std")
        return classes, mean, std

    def rows(self, count: int, dim: int, keyed: bool = True
             ) -> tuple[list[str], np.ndarray]:
        """`count` rows of `dim` floats, each after one key field if `keyed`:
        the key fields and a (count, dim) array."""
        if count < 0:
            raise CorruptModelError(f"negative row count {count}")
        if count > len(self.lines) - self.pos:
            raise CorruptModelError("model file ends prematurely")
        self.pos += count
        return parse_rows(self.lines[self.pos - count:self.pos], dim, None,
                          CorruptModelError, keyed)

    def end(self) -> None:
        if self.next().strip() != _END:
            raise CorruptModelError("missing end marker")
        if self.pos != len(self.lines):
            raise CorruptModelError("data after the end marker")


def model_load(data: bytes):
    """Deserialize bytes written by model_save."""
    reader = _Reader(data)
    header = reader.next().strip()
    if header == SVM_VERSION:
        return _load_svm(reader)
    if header == KNN_VERSION:
        return _load_knn(reader)
    if header.startswith("#rwrl-svm-v") or header.startswith("#rwrl-knn-v"):
        raise VersionMismatchError(f"unsupported model version {header!r}")
    raise CorruptModelError("unrecognized model header")


def _parse_kv(fields, keys) -> dict:
    out = {}
    for field in fields:
        if "=" not in field:
            raise CorruptModelError(f"bad key=value field {field!r}")
        key, value = field.split("=", 1)
        if key not in keys:
            raise CorruptModelError(f"unknown field {key!r}")
        out[key] = value
    missing = set(keys) - out.keys()
    if missing:
        raise CorruptModelError(f"missing fields {sorted(missing)}")
    return out


def _load_svm(reader: _Reader) -> SvmModel:
    fields = reader.expect("kernel")
    if not fields:
        raise CorruptModelError("kernel record lacks a kind")
    kv = _parse_kv(fields[1:], ("degree", "gamma", "coef0", "C"))
    degree = parse_ints([kv["degree"]], CorruptModelError)[0]
    gamma, coef0, C = parse_floats([kv["gamma"], kv["coef0"], kv["C"]],
                                   CorruptModelError)
    try:
        params = KernelParams(fields[0], degree, gamma, coef0, C)
    except ValueError as exc:
        raise CorruptModelError(f"bad kernel parameters: {exc}") from None
    classes, mean, std = reader.header()
    model = SvmModel(classes, params, mean, std)
    _, pool = reader.rows(reader.integer("pool"), model.dim, keyed=False)
    # one machine per class pair, in svm_train's order
    for i, first in enumerate(classes):
        for second in classes[i + 1:]:
            head = reader.expect("machine")
            pair = parse_ints(head[:2], CorruptModelError)
            if len(head) != 4 or pair != [first, second]:
                raise CorruptModelError(
                    f"expected the machine of classes {first} and {second}")
            kv = _parse_kv(head[2:], ("nsv", "bias"))
            nsv = parse_ints([kv["nsv"]], CorruptModelError)[0]
            bias = parse_floats([kv["bias"]], CorruptModelError).item()
            keys, coefs = reader.rows(nsv, 1)
            index = np.array(parse_ints(keys, CorruptModelError), dtype=np.int64)
            if ((index < 0) | (index >= len(pool))).any():
                raise CorruptModelError(f"pool index outside 0..{len(pool) - 1}")
            model.machines.append(BinaryMachine(
                first, second, pool[index], coefs.ravel(), bias))
    reader.end()
    return model


def _load_knn(reader: _Reader) -> KnnModel:
    k = reader.integer("k")
    classes, mean, std = reader.header()
    labels, rows = reader.rows(reader.integer("samples"), len(mean))
    labels = np.array(parse_ints(labels, CorruptModelError), dtype=np.int64)
    if not 1 <= k <= len(labels):
        raise CorruptModelError(f"k={k} outside 1..{len(labels)}")
    if not set(labels.tolist()) <= set(classes):
        raise CorruptModelError("sample label outside the class list")
    reader.end()
    return KnnModel(k, classes, mean, std, rows, labels)
