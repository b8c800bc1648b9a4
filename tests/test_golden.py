"""Golden bytes: artifacts of a fixed seeded run must not change.

The digests below are SHA-256 sums of the artifacts a fixed run produces:
a `synth --jobs 2` tree, the feature file that `preprocess`/`extract` at
`--jobs 2` derive from it, SVM and k-NN model files trained on those
features, and the predictions of both classifiers on those rows, on
midpoints of two rows, and on tie-heavy integer data. Any change that
alters one output byte of these paths fails here.

The digests were recorded on x86-64 with numpy's bundled OpenBLAS. They
hold under each OpenBLAS kernel that
`test_digests_hold_on_every_openblas_kernel` selects, as z-scores on
`rows.GRID` make every product the classifiers sum exact in any order.
They are not yet portable across numpy's own SIMD loops: with its AVX-512
loops off (`NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`),
`np.power` in the polynomial kernel rounds otherwise and `svm_model`
moves; ROADMAP keeps that open.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rwrl
from rwrl.cli import main
from rwrl.evaluate import holdout_split
from rwrl.knn import knn_predict_batch, knn_train
from rwrl.model_io import model_save
from rwrl.reader import read_feature_file
from rwrl.svm import KernelParams, svm_predict_batch, svm_train

GOLDEN = {
    "synth_tree":
        "534e24e0303245ccb497563511ccdff986bdefbb0c149a98b93329d646dfb78c",
    "features":
        "60ef3e511800e7a3af777dba52fd172bfdcb1510c49c811172069a7475e1a8cd",
    "svm_model":
        "32ee62ec827cf189d01ae878f23444642505d34246f2905a7a01b8cf3ad6a72d",
    "svm_predict":
        "f5faf11846431f0dd15813fabf9731ede75425f69e57545acb44a8b1785f15c8",
    "knn_model":
        "040c88e65ff88b03c1f74a30e570c138491e68c5bb069604cd2bfc88d7561a49",
    "knn_predict":
        "f0c7976cf0b3a861a84ceb4995464320ca144c5ada34497b03610f062aaf6478",
    "knn_ties":
        "00c0324c26e50edc8d9dee95e0f52dafc5babd2eb9e3eabfeb53fdc72ef57c9d",
    "svm_ties":
        "eb91345731df3b9f2ac8daba59bc655e5af0fc825584dec687e633f468cb2792",
    "eval_reports":
        "599daabd5aa1164b03fe6e17d0c4681fb84a7fd19127477e1c3a5122a147334d",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(_sha(path.read_bytes()).encode())
    return h.hexdigest()


def _predictions(labels) -> str:
    return _sha(np.asarray(labels, dtype=np.int64).tobytes())


def golden_digests(tmp_path) -> dict[str, str]:
    raw, norm, feats = tmp_path / "raw", tmp_path / "norm", tmp_path / "f.txt"
    assert main(["synth", str(raw), "--per-class", "8", "--seed", "11",
                 "--jobs", "2"]) == 0
    assert main(["preprocess", str(raw), str(norm), "--jobs", "2"]) == 0
    assert main(["extract", str(norm), str(feats), "--jobs", "2"]) == 0
    y, X = read_feature_file(feats)
    train, _ = holdout_split(y, 5, seed=2)

    svm = svm_train(X[train], y[train], KernelParams("polynomial"))
    knn = knn_train(X[train], y[train], k=3)

    # small integer features put many neighbors at equal distances and
    # split the one-vs-one votes evenly
    rng = np.random.default_rng(13)
    tie_X = rng.integers(0, 3, size=(40, 4))
    tie_y = rng.integers(0, 5, size=40)
    probes = rng.integers(0, 3, size=(200, 4))
    ties = [knn_predict_batch(knn_train(tie_X, tie_y, k=k, scale=False),
                              probes) for k in (1, 2, 4, 7)]
    tie_svm = svm_train(tie_X, tie_y, KernelParams("linear"))
    # midpoints of two digits are ambiguous for both classifiers
    rows = np.vstack([X, (X + X[rng.permutation(len(X))]) / 2])
    reports = tmp_path / "eval"
    for classifier in ("svm", "knn"):
        for mode in (["--holdout", "5"], ["--cv", "3"]):
            out = reports / f"{classifier}{mode[0]}"
            assert main(["eval", str(feats), str(out), *mode, "--seed", "4",
                         "--classifier", classifier]) == 0
    return {
        "synth_tree": _tree_digest(raw),
        "features": _sha(feats.read_bytes()),
        "svm_model": _sha(model_save(svm)),
        "svm_predict": _predictions(svm_predict_batch(svm, rows)),
        "knn_model": _sha(model_save(knn)),
        "knn_predict": _predictions(knn_predict_batch(knn, rows)),
        "knn_ties": _predictions(np.concatenate(ties)),
        "svm_ties": _predictions(svm_predict_batch(tie_svm, probes)),
        "eval_reports": _tree_digest(reports),
    }


def test_outputs_match_golden_digests(tmp_path, capsys):
    assert golden_digests(tmp_path) == GOLDEN
    capsys.readouterr()


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            return {flag for line in fh if line.startswith("flags")
                    for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


@pytest.mark.parametrize("coretype, flag", [
    ("Haswell", "avx2"), ("Sandybridge", "avx"), ("Prescott", None)])
def test_digests_hold_on_every_openblas_kernel(coretype, flag, tmp_path):
    if flag is not None and flag not in _cpu_flags():
        pytest.skip(f"OPENBLAS_CORETYPE={coretype} needs the CPU flag {flag}, "
                    "which /proc/cpuinfo does not list")
    script = ("import json, pathlib, sys; from test_golden import "
              "golden_digests; print(json.dumps(golden_digests("
              "pathlib.Path(sys.argv[1]))))")
    paths = [str(Path(__file__).parent), str(Path(rwrl.__file__).parents[1])]
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == GOLDEN
