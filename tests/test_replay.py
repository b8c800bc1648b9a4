"""perfbench's traced replay, on tiny inputs, writes the CLI's files.

The replay (`perfbench/traced.py`) is the one caller of `svm_train(seed=)`,
`BinaryMachine.support_vectors`, `dataset.Manifest` and
`write_manifest_csv`, and it predicts through `svm_predict_batch` and
`knn_predict_batch`. No other test reads `support_vectors`, a property
that gathers a machine's rows of the model's z-scored pool only for the
replay's counts. These tests keep those names working in tier-1, where
the benchmark's own replay does not run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from rwrl.cli import main
from rwrl.rows import write_feature_file

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def replay():
    """perfbench's `traced` module and its `Tracer` class."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        traced = importlib.import_module("traced")
        tracer = importlib.import_module("spans").Tracer
    finally:
        sys.path.pop(0)
    return traced, tracer


def files_under(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_writes_the_cli_files(replay, tmp_path):
    traced, Tracer = replay
    assert main(["synth", str(tmp_path / "cli"), "--per-class", "2",
                 "--seed", "14", "--jobs", "1"]) == 0
    traced.synth(Tracer(), tmp_path / "traced", 2, 14)
    cli = files_under(tmp_path / "cli")
    assert "manifest.csv" in cli and len(cli) == 21
    assert files_under(tmp_path / "traced") == cli


@pytest.mark.parametrize("classifier", ["svm", "knn"])
def test_train_and_predict_write_the_cli_files(replay, tmp_path, classifier):
    traced, Tracer = replay
    rng = np.random.default_rng(14)
    y = np.repeat(np.arange(3), 10)
    X = rng.integers(0, 60, size=(30, 12)) + 40 * y[:, None]
    features = tmp_path / "features.txt"
    write_feature_file(features, y, X)
    cli = {name: tmp_path / f"cli.{name}" for name in ("model", "csv")}
    own = {name: tmp_path / f"traced.{name}" for name in ("model", "csv")}
    assert main(["train", str(features), str(cli["model"]),
                 "--classifier", classifier]) == 0
    assert main(["predict", str(cli["model"]), str(features),
                 str(cli["csv"])]) == 0
    traced.train(Tracer(), features, own["model"], classifier, 14)
    traced.predict(Tracer(), own["model"], features, own["csv"], classifier)
    for name in ("model", "csv"):
        assert own[name].read_bytes() == cli[name].read_bytes(), name
