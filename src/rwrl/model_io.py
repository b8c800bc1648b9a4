"""Versioned line-oriented text serialization for trained models.

SVM files start with ``#rwrl-svm-v3``, k-NN files with ``#rwrl-knn-v2``;
another version tag alone, such as ``#rwrl-svm-v2``, is a version mismatch.
After ``kernel <kind> degree= gamma= coef0= C=`` (SVM) or ``k K`` (k-NN),
both hold ``classes``, ``dim``, then ``mean``, ``std``, ``pool P`` and P
raw training rows, all rows in the feature file's row format: the k-NN
samples, or each row that some SVM machine uses as a support vector, once
and in training order, as LIBSVM's model shares them. Last come a
``labels`` line (k-NN) or, per class pair in ``combinations(classes, 2)``
order, ``machine a b nsv=M bias=B`` and M ``pool-index coefficient``
rows (SVM), then ``end``. The ``key=value`` fields of a ``kernel`` or
``machine`` line stand in the writer's order, each once, and every record
after the version line joins its fields with single spaces. Every value reads
back exactly, and a loaded model z-scores its pool as a trained one does,
so it predicts bit-identically. The loader reads the file record by record
through `reader.Lines`, with the line, row and ASCII rules of every rwrl
table: `Lines.rows` reads the pool and each machine block.

A model class names its kind, which `model_save` reads (`SvmModel.kind`
is "svm", `KnnModel.kind` "knn"), and predicts with its own `predict`, so
no caller maps a model to its classifier module. `model_load` imports only
the classifier module of the kind it reads: a program that saves or loads
k-NN models never compiles `svm`, and the other way round.
"""

from __future__ import annotations

from dataclasses import astuple
from itertools import combinations

import numpy as np

from .errors import MAX_QUOTE, CorruptModelError, VersionMismatchError
from .reader import Lines, parse_floats, parse_ints
from .rows import format_rows

SVM_VERSION = "#rwrl-svm-v3"
KNN_VERSION = "#rwrl-knn-v2"
_END = "end"


def model_save(model) -> bytes:
    """Serialize an SvmModel or KnnModel to bytes. A model that breaks a
    rule model_load checks raises CorruptModelError instead."""
    kind = getattr(type(model), "kind", None)
    if kind not in ("svm", "knn"):
        raise TypeError(f"not an rwrl model: {type(model).__name__}")
    _check_header(model.classes, model.mean, model.std, model.pool)
    if kind == "svm":
        _check_machines(model.classes, len(model.pool), model.machines)
        p = _check_kernel(*astuple(model.params))
        head = [SVM_VERSION, f"kernel {p.kind} degree={p.degree} "
                f"gamma={p.gamma!r} coef0={p.coef0!r} C={p.C!r}"]
        tail = []
        for m in model.machines:
            tail.append(f"machine {m.first} {m.second} "
                        f"nsv={len(m.coefficients)} bias={float(m.bias)!r}")
            tail.extend(f"{i} {coef!r}" for i, coef in
                        zip(m.pool_index.tolist(), m.coefficients.tolist()))
    else:
        _check_knn(model.k, model.classes, len(model.pool), model.labels)
        head = [KNN_VERSION, f"k {model.k}"]
        tail = ["labels " + " ".join(map(str, model.labels.tolist()))]
    mean, std = format_rows([model.mean, model.std], " ", CorruptModelError)
    lines = [*head,
             "classes " + " ".join(str(c) for c in model.classes),
             f"dim {model.dim}", "mean " + mean, "std " + std,
             f"pool {len(model.pool)}",
             *format_rows(model.pool, " ", CorruptModelError),
             *tail, _END]
    return ("\n".join(lines) + "\n").encode("ascii")


# The value rules of a model file, each stated once: model_save applies
# them to the model it is given and model_load to the fields it has read,
# before either builds anything. The loader's record and field syntax, and
# format_rows' refusal of a non-finite row, cover the rest.

def _check_kernel(kind, degree, gamma, coef0, C):
    """KernelParams' own rule, with gamma resolved: the parameters as the
    int and floats that a kernel line holds."""
    from .svm import KernelParams
    if gamma is None:
        raise CorruptModelError("bad kernel parameters: gamma is unresolved")
    try:
        return KernelParams(kind, degree, gamma, coef0, C)
    except ValueError as exc:
        raise CorruptModelError(f"bad kernel parameters: {exc}") from None


def _check_header(classes, mean, std, pool) -> None:
    classes = list(classes)
    if not classes or classes != sorted(set(classes)):
        raise CorruptModelError("class list is empty or not ascending")
    if len(mean) < 1:
        raise CorruptModelError("dim is below 1")
    if np.shape(std) != np.shape(mean) or np.shape(pool)[1:] != np.shape(mean):
        raise CorruptModelError("scaling statistics or pool disagree with dim")
    if (np.asarray(std) < 0).any():
        raise CorruptModelError("negative std")


def _check_machines(classes, pool_size: int, machines) -> None:
    """One machine per class pair, in svm_train's order, with finite
    coefficients and bias and each index inside the pool."""
    pairs = list(combinations(classes, 2))
    if [(m.first, m.second) for m in machines] != pairs:
        raise CorruptModelError("machines are not the class pairs in order")
    for m in machines:
        index, coefs = np.asarray(m.pool_index), np.asarray(m.coefficients)
        if (index.dtype.kind not in "iu" or index.ndim != 1
                or index.shape != coefs.shape):
            raise CorruptModelError(
                "pool indices are not integers, one per coefficient")
        if not (np.isfinite(coefs).all() and np.isfinite(m.bias)):
            raise CorruptModelError("non-finite machine coefficient or bias")
        if ((index < 0) | (index >= pool_size)).any():
            raise CorruptModelError(f"pool index outside 0..{pool_size - 1}")


def _check_knn(k: int, classes, pool_size: int, labels) -> None:
    if len(labels) != pool_size:
        raise CorruptModelError(f"{len(labels)} labels for {pool_size} rows")
    if not 1 <= k <= pool_size:
        raise CorruptModelError(f"k={k} outside 1..{pool_size}")
    if not set(np.asarray(labels).tolist()) <= set(classes):
        raise CorruptModelError("sample label outside the class list")


class _Reader(Lines):
    """A model file's records, one line each."""

    def expect(self, key: str) -> list[str]:
        line = self.next()
        fields = line.split(" ")
        if fields[0] != key:
            raise CorruptModelError(f"expected {key!r} record")
        if fields != line.split():     # an empty field, or another blank
            raise CorruptModelError(
                f"{key} record: fields are not joined by single spaces")
        return fields[1:]

    def integer(self, key: str) -> int:
        """The value of a one-integer record such as `dim 196`."""
        fields = self.expect(key)
        if len(fields) != 1:
            raise CorruptModelError(f"bad {key} record")
        return parse_ints(fields, CorruptModelError)[0]

    def header(self) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
        """Class list, mean, std and raw pool rows, checked against dim."""
        classes = parse_ints(self.expect("classes"), CorruptModelError)
        dim = self.integer("dim")
        mean = parse_floats(self.expect("mean"), CorruptModelError)
        std = parse_floats(self.expect("std"), CorruptModelError)
        _, pool = self.rows(self.integer("pool"), dim, " ", keyed=False)
        _check_header(classes, mean, std, pool)
        return classes, mean, std, pool

    def end(self) -> None:
        if self.next() != _END:
            raise CorruptModelError("missing end marker")
        if self.at != len(self.data):
            raise CorruptModelError("data after the end marker")


def model_load(data: bytes):
    """Deserialize bytes written by model_save."""
    reader = _Reader(data, CorruptModelError)
    header = reader.next().strip()
    if header == SVM_VERSION:
        return _load_svm(reader)
    if header == KNN_VERSION:
        return _load_knn(reader)
    if header[:11] in ("#rwrl-svm-v", "#rwrl-knn-v") and header[11:].isdigit():
        raise VersionMismatchError(
            f"unsupported model version {header!r:.{MAX_QUOTE}}")
    raise CorruptModelError("unrecognized model header")


def _values(fields, keys) -> list[str]:
    """The values of `key=value` fields that hold exactly `keys`, in order."""
    if [f.partition("=")[:2] for f in fields] != [(k, "=") for k in keys]:
        raise CorruptModelError(
            "expected the fields " + " ".join(f"{k}=" for k in keys))
    return [f.partition("=")[2] for f in fields]


def _load_svm(reader: _Reader):
    from .svm import BinaryMachine, SvmModel
    fields = reader.expect("kernel")
    degree, *floats = _values(fields[1:], ("degree", "gamma", "coef0", "C"))
    params = _check_kernel(fields[0], parse_ints([degree], CorruptModelError)[0],
                           *parse_floats(floats, CorruptModelError))
    classes, mean, std, pool = reader.header()
    machines = []
    for _ in combinations(classes, 2):
        head = reader.expect("machine")
        pair = parse_ints(head[:2], CorruptModelError)
        if len(pair) != 2:
            raise CorruptModelError("a machine record names two classes")
        nsv, bias = _values(head[2:], ("nsv", "bias"))
        nsv = parse_ints([nsv], CorruptModelError)[0]
        bias = parse_floats([bias], CorruptModelError).item()
        index, coefs = reader.rows(nsv, 1, " ", keyed=True)
        machines.append(BinaryMachine(*pair, index, coefs.ravel(), bias))
    reader.end()
    _check_machines(classes, len(pool), machines)
    return SvmModel(classes, params, mean, std, pool, machines)


def _load_knn(reader: _Reader):
    from .knn import KnnModel
    k = reader.integer("k")
    classes, mean, std, pool = reader.header()
    labels = np.array(parse_ints(reader.expect("labels"), CorruptModelError),
                      dtype=np.int64)
    reader.end()
    _check_knn(k, classes, len(pool), labels)
    return KnnModel(k, classes, mean, std, pool, labels)
