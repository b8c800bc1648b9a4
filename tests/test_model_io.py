import re
from dataclasses import fields

import numpy as np
import pytest

from rwrl.cli import main
from rwrl import model_io
from rwrl.errors import CorruptModelError, VersionMismatchError
from rwrl.knn import KnnModel, knn_predict_batch, knn_train
from rwrl.model_io import model_load, model_save
from rwrl.svm import KernelParams, SvmModel, svm_predict_batch, svm_train


def small_problem(seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5, 5, size=(4, 6))
    X = np.vstack([c + rng.normal(scale=0.4, size=(8, 6)) for c in centers])
    y = np.repeat(np.arange(4), 8)
    return X, y


def test_svm_roundtrip_bit_identical_predictions():
    X, y = small_problem()
    model = svm_train(X, y, KernelParams("polynomial", degree=3, C=2.0))
    restored = model_load(model_save(model))
    rng = np.random.default_rng(99)
    probes = rng.uniform(-6, 6, size=(100, 6))
    assert (svm_predict_batch(model, probes)
            == svm_predict_batch(restored, probes)).all()
    # serialized twice gives identical bytes
    assert model_save(model) == model_save(restored)


def test_knn_roundtrip_bit_identical_predictions():
    X, y = small_problem(seed=5)
    model = knn_train(X, y, k=3)
    restored = model_load(model_save(model))
    rng = np.random.default_rng(7)
    probes = rng.uniform(-6, 6, size=(100, 6))
    assert (knn_predict_batch(model, probes)
            == knn_predict_batch(restored, probes)).all()


def test_truncated_file_is_corrupt():
    X, y = small_problem()
    data = model_save(svm_train(X, y, KernelParams("linear")))
    with pytest.raises(CorruptModelError):
        model_load(data[:len(data) // 2])


def test_missing_end_marker_is_corrupt():
    X, y = small_problem()
    data = model_save(svm_train(X, y, KernelParams("linear")))
    trimmed = b"\n".join(data.splitlines()[:-1]) + b"\n"
    with pytest.raises(CorruptModelError):
        model_load(trimmed)


def test_wrong_version_tag():
    X, y = small_problem()
    data = model_save(svm_train(X, y, KernelParams("linear")))
    bumped = data.replace(b"#rwrl-svm-v3", b"#rwrl-svm-v9", 1)
    with pytest.raises(VersionMismatchError):
        model_load(bumped)


@pytest.mark.parametrize("tag, error", [
    (b" #rwrl-knn-v7 ", VersionMismatchError),
    (b"#rwrl-svm-v" + b"9" * 100_000, VersionMismatchError),
    (b"#rwrl-knn-v2 " + b"x" * 100_000, CorruptModelError),
    (b"#rwrl-svm-v3 x", CorruptModelError),
    (b"#rwrl-svm-v", CorruptModelError),
    (b"#rwrl-knn-v2x", CorruptModelError),
    (b"#rwrl-svm-v-2", CorruptModelError),
    (b"#rwrl-svm-V2", CorruptModelError),
], ids=["padded", "long-version", "long-tail", "space-tail", "no-digits",
        "letter-tail", "minus", "upper-case"])
def test_only_an_exact_version_tag_is_a_version_mismatch(tag, error):
    data = re.sub(rb"^[^\n]*", tag, _knn_bytes())
    with pytest.raises(error) as exc:
        model_load(data)
    assert type(exc.value) is error and len(str(exc.value)) < 200


@pytest.mark.parametrize("kind", ["linear", "polynomial", "rbf"])
def test_svm_pool_roundtrip_is_exact(kind):
    X, y = small_problem(seed=4)
    model = svm_train(X, y, KernelParams(kind, C=2.0))
    data = model_save(model)
    restored = model_load(data)
    assert len(restored.machines) == len(model.machines)
    for trained, loaded in zip(model.machines, restored.machines):
        assert (loaded.first, loaded.second) == (trained.first, trained.second)
        assert np.array_equal(restored.samples[loaded.pool_index],
                              model.samples[trained.pool_index])
        assert np.array_equal(loaded.coefficients, trained.coefficients)
        assert loaded.bias == trained.bias
    assert np.array_equal(restored.pool, model.pool)
    # each support vector is written once, however many machines share it
    stored = model.samples[np.concatenate([m.pool_index
                                           for m in model.machines])]
    pool = int(re.search(rb"\npool (\d+)\n", data).group(1))
    assert pool == len(np.unique(stored, axis=0))


@pytest.mark.parametrize("scale", [True, False])
def test_knn_roundtrip_is_exact(scale):
    X, y = small_problem(seed=6)
    model = knn_train(X, y, k=3, scale=scale)
    restored = model_load(model_save(model))
    assert np.array_equal(restored.pool, model.pool)
    assert np.array_equal(restored.samples, model.samples)
    assert np.array_equal(restored.labels, model.labels)


@pytest.mark.parametrize("train", [
    lambda X, y: svm_train(X, y, KernelParams("rbf")),
    lambda X, y: knn_train(X, y, k=1),
], ids=["svm", "knn"])
def test_integer_rows_write_integer_pool_fields(train):
    rng = np.random.default_rng(8)
    X = rng.integers(0, 2000, size=(40, 7))
    y = np.repeat(np.arange(4), 10)
    data = model_save(train(X, y)).decode()
    count = int(re.search(r"\npool (\d+)\n", data).group(1))
    rows = data.split("\npool ")[1].splitlines()[1:count + 1]
    assert count > 0
    assert all(re.fullmatch(r"[0-9]+( [0-9]+){6}", row) for row in rows)


def test_non_finite_pool_row_is_not_saved():
    model = knn_train(np.array([[np.nan, 1.0], [0.0, 2.0]]), [0, 1], k=1,
                      scale=False)
    with pytest.raises(CorruptModelError):
        model_save(model)


# the v1 layout: each machine repeats its support vectors after a coefficient
SVM_V1 = """#rwrl-svm-v1
kernel linear degree=3 gamma=0.5 coef0=1.0 C=1.0
classes 0 1
dim 2
mean 0.0 0.0
std 1.0 1.0
machine 0 1 nsv=2 bias=0.0
1.0 1.0 0.0
-1.0 -1.0 0.0
end
"""


# the v2 SVM layout: a pool of z-scored rows before the machines
SVM_V2 = """#rwrl-svm-v2
kernel linear degree=3 gamma=0.5 coef0=1.0 C=1.0
classes 0 1
dim 2
mean 0.0 0.0
std 1.0 1.0
pool 2
1.0 0.0
-1.0 0.0
machine 0 1 nsv=2 bias=0.0
0 1.0
1 -1.0
end
"""
# the v1 k-NN layout: keyed z-scored sample rows
KNN_V1 = """#rwrl-knn-v1
k 1
classes 0 1
dim 2
mean 0.0 0.0
std 1.0 1.0
samples 2
0 1.0 0.0
1 -1.0 0.0
end
"""


def assert_version_mismatch(text, tmp_path, capsys):
    with pytest.raises(VersionMismatchError):
        model_load(text.encode("ascii"))
    (tmp_path / "m.txt").write_text(text)
    (tmp_path / "f.txt").write_text("#rwrl-v1,dim=2\n0,1,2\n1,2,3\n")
    assert main(["predict", str(tmp_path / "m.txt"), str(tmp_path / "f.txt"),
                 str(tmp_path / "p.csv")]) == 2
    assert "VersionMismatchError" in capsys.readouterr().err


def test_v1_svm_file_is_a_version_mismatch(tmp_path, capsys):
    assert_version_mismatch(SVM_V1, tmp_path, capsys)


@pytest.mark.parametrize("text", [SVM_V2, KNN_V1], ids=["svm-v2", "knn-v1"])
def test_previous_layouts_are_a_version_mismatch(text, tmp_path, capsys):
    assert_version_mismatch(text, tmp_path, capsys)


def test_garbage_header_is_corrupt():
    with pytest.raises(CorruptModelError):
        model_load(b"hello world\n")


def test_non_text_is_corrupt():
    with pytest.raises(CorruptModelError):
        model_load(bytes(range(256)))


def test_unexpected_type_rejected():
    # KernelParams has a kind too, the kernel's
    for thing in ({"not": "a model"}, object(), KernelParams()):
        with pytest.raises(TypeError, match="not an rwrl model"):
            model_save(thing)


@pytest.mark.parametrize("kind, model_class, train, batch", [
    ("svm", SvmModel, svm_train, svm_predict_batch),
    ("knn", KnnModel, knn_train, knn_predict_batch),
])
def test_each_model_carries_its_kind_and_predict(kind, model_class, train,
                                                 batch):
    X, y = small_problem(seed=11)
    model = train(X, y)
    loaded = model_load(model_save(model))
    probes = np.random.default_rng(12).uniform(-6, 6, size=(50, 6))
    expected = batch(model, probes)
    assert batch is model_class.predict
    for m in (model, loaded):
        assert type(m) is model_class and m.kind == kind
        assert np.array_equal(m.predict(probes), expected)
        assert np.array_equal(m.predict(probes[3]), expected[3:4])


def test_kind_is_not_a_model_field():
    # a field would change the constructors and the file format
    assert [f.name for f in fields(SvmModel)] == [
        "classes", "params", "mean", "std", "pool", "machines"]
    assert [f.name for f in fields(KnnModel)] == [
        "k", "classes", "mean", "std", "pool", "labels"]


def _knn_bytes():
    X, y = small_problem(seed=2)
    return model_save(knn_train(X, y, k=3))


def _svm_bytes():
    X, y = small_problem(seed=2)
    return model_save(svm_train(X, y, KernelParams("linear")))


def _knn_dim_one():
    return (b"#rwrl-knn-v2\nk 1\nclasses 0\ndim 1\nmean 0.0\nstd 1.0\n"
            b"pool 1\n0\nlabels 0\nend\n")


def _pool_size_index(match):
    """The first pair row's pool index replaced by the pool size."""
    return match[1] + match[2] + b" "


# a float field of each kind: the model, the field, what replaces it and
# where the loaded model keeps it
FLOAT_FIELDS = {
    "mean": (_knn_bytes, rb"\nmean \S+", b"\nmean ", lambda m: m.mean[0]),
    "std": (_svm_bytes, rb"\nstd \S+", b"\nstd ", lambda m: m.std[0]),
    "pool-row": (_svm_bytes, rb"(\npool \d+\n)\S+", rb"\g<1>",
                 lambda m: m.pool[0, 0]),
    "sample-row": (_knn_bytes, rb"(\npool \d+\n)\S+", rb"\g<1>",
                   lambda m: m.pool[0, 0]),
    "bias": (_svm_bytes, rb"bias=\S+", b"bias=", lambda m: m.machines[0].bias),
    "gamma": (_svm_bytes, rb"gamma=\S+", b"gamma=", lambda m: m.params.gamma),
}
# spellings that float() reads but the float rule (0-9 . e + -) does not
BAD_FLOATS = {"underscore": b"1_0", "upper-exponent": b"1E5", "inf": b"inf",
              "nan": b"nan", "hex": b"0x1p3"}


@pytest.mark.parametrize("make, pattern, new", [
    (_knn_bytes, rb"\nmean \S+ ", b"\nmean "),
    (_svm_bytes, rb"\nstd \S+", b"\nstd -1.0"),
    (_svm_bytes, rb"\nmean \S+", b"\nmean nan"),
    (_knn_bytes, rb"\nclasses 0 1", b"\nclasses 1 0"),
    (_knn_bytes, rb"\nk 3", b"\nk 0"),
    (_knn_bytes, rb"\nk 3", b"\nk 33"),
    (_knn_bytes, rb"\npool 32", b"\npool -1"),
    (_knn_bytes, rb"\npool 32", b"\npool 999999999"),
    (_knn_bytes, rb"\nlabels 0 ", b"\nlabels 9 "),
    (_svm_bytes, rb"nsv=\d+", b"nsv=-1"),
    (_svm_bytes, rb"machine 0 1 ", b"machine 0 9 "),
    (_svm_bytes, rb"machine 0 1 ", b"machine 1 1 "),
    (_svm_bytes, rb"machine 0 1 ", b"machine 2 3 "),
    (_svm_bytes, rb"machine 0 1 ", b"machine 2 0 "),
    (_svm_bytes, rb"bias=\S+", b"bias=inf"),
    (_knn_dim_one, rb"dim 1\nmean 0.0\nstd 1.0\npool 1\n0\n",
     b"dim 0\nmean\nstd\npool 1\n\n"),
    (_svm_bytes, rb"\npool \d+", b"\npool -1"),
    (_svm_bytes, rb"\npool \d+", b"\npool 999999999"),
    (_svm_bytes, rb"(\npool \d+\n)\S+ ", rb"\1"),
    (_svm_bytes, rb"(bias=\S+\n)\d+ ", rb"\g<1>-1 "),
    (_svm_bytes, rb"(?s)(\npool (\d+)\n.*?bias=\S+\n)\d+ ", _pool_size_index),
    (_svm_bytes, rb"(bias=\S+\n)\d+ ", rb"\g<1>1.5 "),
    (_knn_bytes, rb"\nk 3", b"\nk 3 7"),
    (_knn_bytes, rb"\ndim 6", b"\ndim 6 junk"),
    (_knn_bytes, rb"\npool 32", b"\npool +32"),
    (_knn_bytes, rb"\npool 32", b"\npool 3_2"),
    (_knn_bytes, rb"\nlabels 0 ", b"\nlabels +0 "),
    (_knn_bytes, rb"\nend\n\Z", b"\nend\ngarbage\n"),
    # more digits than Python's int() converts
    (_knn_bytes, rb"\npool 32", b"\npool " + b"9" * 5000),
    # found from the header, before anything of `dim` values is allocated
    (_knn_bytes, rb"\ndim 6", b"\ndim 1000000000000"),
    (_knn_bytes, rb"\nlabels 0 ", b"\nlabels "),
    (_knn_bytes, rb"\nlabels ", b"\nlabels 0 "),
    (_knn_bytes, rb"(\npool \d+\n)\S+ ", rb"\1"),
    (_svm_bytes, rb"\nkernel [^\n]*", b"\nkernel"),
    (_svm_bytes, rb"\nkernel linear ", b"\nkernel "),
    (_svm_bytes, rb"degree=(\S+) gamma=(\S+)", rb"gamma=\2 degree=\1"),
    (_svm_bytes, rb"(degree=)\S+", rb"\g<1>3 \g<1>7"),
    (_svm_bytes, rb" C=\S+", b""),
    (_svm_bytes, rb"(C=\S+)", rb"\1 shrink=1"),
    (_svm_bytes, rb"coef0=", b"coef0"),
    (_svm_bytes, rb"nsv=(\S+) bias=(\S+)", rb"bias=\2 nsv=\1"),
    (_svm_bytes, rb"(bias=\S+)", rb"\1 \1"),
    (_svm_bytes, rb"machine 0 1 nsv=\S+", b"machine 0 1"),
    (_svm_bytes, rb"machine 0 1 [^\n]*", b"machine 0 1"),
    (_svm_bytes, rb"machine 0 1 [^\n]*", b"machine 0"),
] + [(make, pattern, new + spelling)
     for make, pattern, new, _ in FLOAT_FIELDS.values()
     for spelling in BAD_FLOATS.values()
], ids=["short-mean", "negative-std", "nan-mean", "classes-order", "k-zero",
        "k-above-n", "negative-samples", "samples-past-end", "label-class",
        "negative-nsv", "machine-class", "machine-same-class",
        "machine-duplicate-pair", "machine-reversed", "inf-bias", "dim-zero",
        "negative-pool", "pool-past-end", "pool-row-width",
        "pool-index-negative", "pool-index-at-size", "pool-index-non-integer",
        "k-extra-field", "dim-extra-field", "samples-plus-sign",
        "samples-underscore", "label-plus-sign", "data-after-end",
        "samples-5000-digits", "dim-10^12", "labels-short", "labels-long",
        "sample-row-width", "kernel-bare", "kernel-no-kind",
        "kernel-reordered", "kernel-repeated", "kernel-missing",
        "kernel-unknown", "kernel-no-equals", "machine-reordered",
        "machine-repeated", "machine-missing", "machine-no-fields",
        "machine-one-class"] + [
            f"{field}-{name}" for field in FLOAT_FIELDS for name in BAD_FLOATS])
def test_invalid_fields_are_corrupt(make, pattern, new):
    data = make()
    mutated = re.sub(pattern, new, data, count=1)
    assert mutated != data
    with pytest.raises(CorruptModelError):
        model_load(mutated)


@pytest.mark.parametrize("digits, k", [
    (b"0" * 700 + b"3", 3),
    (b"0" * 5000 + b"3", None),
    (b"9223372036854775808", None),     # 19 digits, one past int64
], ids=["700-3", "5000-None", "past-int64"])
def test_k_digits_do_not_follow_the_interpreter(int_digit_limit, digits, k):
    data = re.sub(rb"\nk 3", b"\nk " + digits, _knn_bytes())
    if k is None:
        with pytest.raises(CorruptModelError, match="out of range"):
            model_load(data)
    else:
        assert model_load(data).k == k


@pytest.mark.parametrize("field", sorted(FLOAT_FIELDS))
def test_float_spellings_load_as_float_reads_them(field):
    make, pattern, new, loaded = FLOAT_FIELDS[field]
    for spelling in ("+3", ".5", "5.", "1e5"):
        mutated = re.sub(pattern, new + spelling.encode(), make(), count=1)
        assert loaded(model_load(mutated)) == float(spelling), spelling


def _int_knn_bytes():
    X, y = small_problem(seed=2)
    return model_save(knn_train(np.rint(X), y, k=3))


# a record of each kind after the version line: group 1 is the line
RECORDS = {
    "kernel": (_svm_bytes, rb"\n(kernel [^\n]*)"),
    "classes": (_knn_bytes, rb"\n(classes [^\n]*)"),
    "mean": (_svm_bytes, rb"\n(mean [^\n]*)"),
    "float-pool-row": (_svm_bytes, rb"\npool \d+\n([^\n]*)"),
    "int-pool-row": (_int_knn_bytes, rb"\npool \d+\n([^\n]*)"),
    "machine": (_svm_bytes, rb"\n(machine [^\n]*)"),
    "machine-row": (_svm_bytes, rb"bias=\S+\n([^\n]*)"),
    "labels": (_knn_bytes, rb"\n(labels [^\n]*)"),
    "end": (_knn_bytes, rb"\n(end)\n\Z"),
}
BLANKS = {"tab": b"\t", "x0b": b"\x0b", "x0c": b"\x0c", "x1c": b"\x1c",
          "x1d": b"\x1d", "x1e": b"\x1e", "x1f": b"\x1f", "two-spaces": b"  "}
SPOILS = {
    **{f"{name}-between": lambda line, b=blank: line.replace(b" ", b, 1)
       for name, blank in BLANKS.items()},
    "space-leading": lambda line: b" " + line,
    "space-trailing": lambda line: line + b" ",
    "tab-leading": lambda line: b"\t" + line,
    "tab-trailing": lambda line: line + b"\t",
}


@pytest.mark.parametrize("record, spoil", [
    (record, spoil) for record in RECORDS for spoil in SPOILS
    if record != "end" or not spoil.endswith("-between")])
def test_fields_are_joined_by_single_spaces(record, spoil):
    # as model_save writes them: any other blank between, before or after
    # the fields of a record is corrupt
    make, pattern = RECORDS[record]
    data = make()
    line = re.search(pattern, data)
    mutated = (data[:line.start(1)] + SPOILS[spoil](line[1])
               + data[line.end(1):])
    assert model_load(data) and mutated != data
    with pytest.raises(CorruptModelError):
        model_load(mutated)


def assert_models_equal(a, b):
    assert type(a) is type(b)
    assert a.classes == b.classes
    for field in ("mean", "std", "pool"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    if isinstance(a, KnnModel):
        assert a.k == b.k and np.array_equal(a.labels, b.labels)
        return
    assert a.params == b.params
    assert len(a.machines) == len(b.machines)
    for m, n in zip(a.machines, b.machines):
        assert (m.first, m.second, m.bias) == (n.first, n.second, n.bias)
        assert np.array_equal(m.pool_index, n.pool_index)
        assert np.array_equal(m.coefficients, n.coefficients)


def _two_class_svm():
    X, y = small_problem(seed=2)
    return svm_train(X[:16], y[:16], KernelParams("linear"))


def _four_row_knn():
    return knn_train(np.arange(8.0).reshape(4, 2), [0, 1, 1, 0], k=1)


def _pool_index_past_pool(model):
    index = model.machines[0].pool_index.copy()
    index[0] = len(model.pool)
    model.machines[0].pool_index = index


def _float_pool_index(model):
    machine = model.machines[0]
    machine.pool_index = machine.pool_index.astype(np.float64)


def test_numpy_float_kernel_params_write_as_python_floats():
    X, y = small_problem()
    model = svm_train(X, y, KernelParams("rbf", gamma=0.1, coef0=0.3, C=2.0))
    data = model_save(model)
    numpy_params = KernelParams("rbf", gamma=np.float64(0.1),
                                coef0=np.float64(0.3), C=np.float64(2.0))
    assert model_save(svm_train(X, y, numpy_params)) == data
    # set on a built model, past KernelParams' own conversion
    for name in ("gamma", "coef0", "C"):
        setattr(model.params, name, np.float64(getattr(model.params, name)))
    assert model_save(model) == data


class TestModelRoundTrip:
    """Seeded property: what `model_save` writes, `model_load` reads back
    equal and predicting the same labels; a model whose file the loader
    would refuse, the writer refuses first."""

    @staticmethod
    def draw(rng, integer: bool):
        classes = np.sort(rng.choice(np.arange(-5, 9), int(rng.integers(2, 5)),
                                     replace=False))
        rows, dim = int(rng.integers(8, 30)), int(rng.integers(1, 7))
        at = np.arange(rows) % len(classes)
        y = classes[at]
        if integer:     # around one integer center per class
            X = (rng.integers(-6, 7, size=(len(classes), dim))[at]
                 + rng.integers(-1, 2, size=(rows, dim)))
        else:
            X = (rng.normal(size=(len(classes), dim))[at] * 3
                 + rng.normal(size=(rows, dim))) * 10.0 ** rng.integers(-3, 1)
            X[rng.random(X.shape) < 0.1] = -0.0
        probes = np.vstack([X[:3], rng.uniform(X.min() - 1, X.max() + 1,
                                               size=(40, dim))])
        return X, y, probes

    @pytest.mark.parametrize("integer", [True, False], ids=["int", "float"])
    @pytest.mark.parametrize("scale", [True, False], ids=["scaled", "raw"])
    @pytest.mark.parametrize("classifier", ["linear", "polynomial", "rbf",
                                            "knn"])
    def test_saved_models_read_back_equal(self, classifier, scale, integer):
        rng = np.random.default_rng([28, len(classifier), scale, integer])
        for case in range(4):
            X, y, probes = self.draw(rng, integer)
            if classifier == "knn":
                model = knn_train(X, y, k=int(rng.integers(1, len(X) + 1)),
                                  scale=scale)
                predict = knn_predict_batch
            else:
                params = KernelParams(classifier, degree=int(rng.integers(1, 4)),
                                      C=float(rng.choice([0.5, 1.0, 4.0])))
                model = svm_train(X, y, params, scale=scale)
                predict = svm_predict_batch
            data = model_save(model)
            restored = model_load(data)
            assert_models_equal(model, restored)
            assert model_save(restored) == data, case
            assert np.array_equal(predict(model, probes),
                                  predict(restored, probes)), case

    @pytest.mark.parametrize("make, spoil", [
        (_two_class_svm, lambda m: setattr(m.machines[0], "bias", np.nan)),
        (_two_class_svm, lambda m: setattr(m.machines[0], "bias", 1e309)),
        (_two_class_svm, lambda m: setattr(m, "classes", [1, 0])),
        (_two_class_svm, _pool_index_past_pool),
        (_four_row_knn, lambda m: setattr(m, "k", 9)),
        (_four_row_knn, lambda m: m.labels.__setitem__(0, 7)),
        (_four_row_knn, lambda m: m.std.__setitem__(0, -1.0)),
        (_four_row_knn, lambda m: setattr(m, "classes", [0, 0, 1])),
        (_two_class_svm, lambda m: setattr(m.params, "degree", 2.5)),
        (_two_class_svm, lambda m: setattr(m.params, "gamma", None)),
        (_two_class_svm, _float_pool_index),
        (_four_row_knn, lambda m: setattr(m, "std", m.std[:-1])),
    ], ids=["svm-nan-bias", "svm-inf-bias", "svm-classes-descending",
            "svm-pool-index-past-pool", "knn-k-above-rows",
            "knn-label-outside-classes", "knn-negative-std",
            "knn-repeated-class", "svm-degree-2.5", "svm-gamma-unresolved",
            "svm-pool-index-float", "knn-std-short"])
    def test_writer_refuses_what_the_loader_refuses(self, monkeypatch, make,
                                                    spoil):
        model = make()
        spoil(model)
        with pytest.raises(CorruptModelError):
            model_save(model)
        # the same model written without the shared value rules: the loader
        # refuses those bytes
        with monkeypatch.context() as unchecked:
            for rule in ("_check_header", "_check_machines", "_check_knn"):
                unchecked.setattr(model_io, rule, lambda *args: None)
            # the kernel rule's stand-in hands back the params as they are
            unchecked.setattr(model_io, "_check_kernel",
                              lambda *fields: model.params)
            data = model_save(model)
        with pytest.raises(CorruptModelError):
            model_load(data)
