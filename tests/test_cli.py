import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rwrl
from rwrl.cli import build_parser, main
from rwrl.features import read_feature_file, write_feature_file
from rwrl.raster import encode_pgm

from test_raster import make_bmp


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(["synth", str(root / "raw"), "--per-class", "6",
                 "--seed", "5"]) == 0
    assert main(["preprocess", str(root / "raw"), str(root / "norm"),
                 "--jobs", "1"]) == 0
    assert main(["extract", str(root / "norm"), str(root / "features.txt"),
                 "--jobs", "1"]) == 0
    return root


def test_help_exits_zero(capsys):
    for command in ("preprocess", "extract", "train", "predict", "eval",
                    "synth", "report"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--help" in capsys.readouterr().out


def test_unknown_flag_rejected(capsys):
    # training makes no random choice, so train takes no --seed
    for argv in (["synth", "out", "--bogus"],
                 ["train", "f.txt", "m.txt", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_synth_preprocess_extract(corpus):
    labels, X = read_feature_file(corpus / "features.txt")
    assert X.shape == (60, 196)
    assert np.bincount(labels, minlength=10).tolist() == [6] * 10


def test_preprocess_counts_outputs(corpus):
    outputs = sorted((corpus / "norm").rglob("*.pgm"))
    assert len(outputs) == 60


def test_preprocess_blank_inputs_exit2(tmp_path, capsys):
    blank = np.full((20, 20), 255, dtype=np.uint8)
    (tmp_path / "a.pgm").write_bytes(encode_pgm(blank))
    (tmp_path / "b.pgm").write_bytes(encode_pgm(blank))
    assert main(["preprocess", str(tmp_path), str(tmp_path / "out"),
                 "--jobs", "1"]) == 2
    assert "skipped" in capsys.readouterr().err


def test_preprocess_mixed_inputs_warns(tmp_path, capsys):
    blank = np.full((20, 20), 255, dtype=np.uint8)
    ink = blank.copy()
    ink[5:15, 5:15] = 0
    (tmp_path / "blank.pgm").write_bytes(encode_pgm(blank))
    (tmp_path / "ok.pgm").write_bytes(encode_pgm(ink))
    assert main(["preprocess", str(tmp_path), str(tmp_path / "out"),
                 "--jobs", "1"]) == 0
    err = capsys.readouterr().err
    assert "blank.pgm" in err


def test_preprocess_empty_dir_exit2(tmp_path, capsys):
    assert main(["preprocess", str(tmp_path), str(tmp_path / "out")]) == 2
    capsys.readouterr()


def test_extract_missing_dir_exit2(tmp_path, capsys):
    assert main(["extract", str(tmp_path / "nope"), str(tmp_path / "f.txt")]) == 2
    capsys.readouterr()


def test_extract_reparse_matches(corpus, tmp_path):
    assert main(["extract", str(corpus / "norm"), str(tmp_path / "again.txt"),
                 "--jobs", "2"]) == 0
    a = read_feature_file(corpus / "features.txt")
    b = read_feature_file(tmp_path / "again.txt")
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_train_predict_roundtrip(corpus, tmp_path):
    model = tmp_path / "model.txt"
    out = tmp_path / "pred.csv"
    assert main(["train", str(corpus / "features.txt"), str(model)]) == 0
    assert model.exists()
    assert main(["predict", str(model), str(corpus / "features.txt"),
                 str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,true,predicted"
    assert len(lines) == 61


def test_train_knn_and_predict(corpus, tmp_path):
    model = tmp_path / "knn.txt"
    assert main(["train", str(corpus / "features.txt"), str(model),
                 "--classifier", "knn", "--k", "1"]) == 0
    out = tmp_path / "pred.csv"
    assert main(["predict", str(model), str(corpus / "features.txt"),
                 str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(r[1] == r[2] for r in rows)  # k=1 recalls its training set


def test_predict_dimension_mismatch_exit3(corpus, tmp_path, capsys):
    model = tmp_path / "model.txt"
    assert main(["train", str(corpus / "features.txt"), str(model)]) == 0
    small = tmp_path / "small.txt"
    write_feature_file(small, [0, 1], np.zeros((2, 5)))
    assert main(["predict", str(model), str(small),
                 str(tmp_path / "p.csv")]) == 3
    capsys.readouterr()


def test_malformed_features_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a feature file\n")
    assert main(["train", str(bad), str(tmp_path / "m.txt")]) == 2
    capsys.readouterr()


def test_eval_holdout(corpus, tmp_path):
    out = tmp_path / "rep"
    assert main(["eval", str(corpus / "features.txt"), str(out),
                 "--holdout", "4", "--seed", "1"]) == 0
    for name in ("report.txt", "per_class.csv", "overall.csv",
                 "confusion.csv"):
        assert (out / name).exists()


def test_eval_cv_deterministic(corpus, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["eval", str(corpus / "features.txt"), str(out),
                     "--cv", "2", "--seed", "3", "--classifier", "knn",
                     "--k", "1"]) == 0
    for name in ("report.txt", "per_class.csv", "overall.csv",
                 "confusion.csv", "folds.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_eval_requires_mode(corpus, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(corpus / "features.txt"), str(tmp_path / "x")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_report_from_confusion_csv(corpus, tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["eval", str(corpus / "features.txt"), str(out),
                 "--holdout", "4", "--seed", "1"]) == 0
    again = tmp_path / "again"
    assert main(["report", str(out / "confusion.csv"), str(again)]) == 0
    assert (again / "overall.csv").read_bytes() == \
        (out / "overall.csv").read_bytes()
    capsys.readouterr()


def test_commands_do_not_load_numpy_ma(corpus, tmp_path):
    # np.unique imports numpy.ma on its first call, about 15 ms per process
    script = """
import sys
from rwrl.cli import main
features, out = sys.argv[1], sys.argv[2]
for argv in (["train", features, out + "/svm.txt"],
             ["train", features, out + "/knn.txt", "--classifier", "knn"],
             ["predict", out + "/svm.txt", features, out + "/pred.csv"],
             ["eval", features, out + "/holdout", "--holdout", "4"],
             ["eval", features, out + "/cv", "--cv", "2"],
             ["report", out + "/holdout/confusion.csv", out + "/again"]):
    assert main(argv) == 0, argv
assert "numpy.ma" not in sys.modules
"""
    path = [str(Path(rwrl.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-c", script,
                             str(corpus / "features.txt"), str(tmp_path)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_runtime_imports_only_numpy():
    # -S skips site-packages' .pth hooks, so every module loaded is one that
    # the interpreter or `import rwrl.cli` asked for
    script = """
import sys
import rwrl.cli
foreign = {name.split(".")[0] for name in sys.modules}
foreign -= sys.stdlib_module_names | {"__main__", "numpy", "rwrl"}
assert not foreign, sorted(foreign)
unresolved = [name for name in rwrl.__all__ if not hasattr(rwrl, name)]
assert not unresolved, unresolved
"""
    path = [str(Path(rwrl.__file__).parents[1]),
            str(Path(np.__file__).parents[1])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_parser_documents_flags():
    parser = build_parser()
    text = parser.format_help()
    assert "preprocess" in text and "extract" in text and "eval" in text


def test_preprocess_skips_bad_palette_bmp(tmp_path, capsys):
    ink = np.full((20, 20), 255, dtype=np.uint8)
    ink[5:15, 5:15] = 0
    palette = [(v % 256,) * 3 for v in range(300)]
    (tmp_path / "bad.bmp").write_bytes(make_bmp(ink, palette_rgb=palette))
    (tmp_path / "ok.bmp").write_bytes(make_bmp(ink))
    (tmp_path / "ok.pgm").write_bytes(encode_pgm(ink))
    assert main(["preprocess", str(tmp_path), str(tmp_path / "out"),
                 "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert "bad.bmp: MalformedHeaderError" in captured.err
    assert "preprocessed 2/3 images" in captured.out


@pytest.mark.parametrize("argv", [
    ["eval", "f.txt", "out", "--cv", "1"],
    ["eval", "f.txt", "out", "--holdout", "-1"],
    ["train", "f.txt", "m.txt", "--k", "0"],
    ["train", "f.txt", "m.txt", "--gamma", "-1"],
    ["train", "f.txt", "m.txt", "--gamma", "nan"],
    ["train", "f.txt", "m.txt", "--C", "0"],
    ["train", "f.txt", "m.txt", "--coef0", "nan"],
    ["train", "f.txt", "m.txt", "--degree", "0"],
    ["preprocess", "in", "out", "--sigma", "-1"],
    ["preprocess", "in", "out", "--sigma", "inf"],
    ["preprocess", "in", "out", "--sigma", "64.5"],
    ["preprocess", "in", "out", "--sigma", "1e300"],
    ["synth", "out", "--per-class", "0"],
    ["synth", "out", "--jobs", "0"],
    ["preprocess", "in", "out", "--jobs", "-2"],
    ["extract", "in", "out.txt", "--jobs", "0"],
], ids=" ".join)
def test_out_of_range_flag_exit2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_sigma_upper_bound_is_inclusive():
    # parsed only: a large sigma is never run through gaussian_smooth
    args = build_parser().parse_args(["preprocess", "in", "out", "--sigma", "64"])
    assert args.sigma == 64.0


FEATURES = "#rwrl-v1,dim=2\n0,1,2\n1,2,3\n"


@pytest.mark.parametrize("name, text, argv", [
    ("f.txt", "#rwrl-v1,dim=2\n0,1,nan\n1,2,3\n", ["train", "f.txt", "m"]),
    ("f.txt", FEATURES, ["train", "f.txt", "m", "--classifier", "knn",
                         "--k", "3"]),
    ("c.csv", "class,0,1\n0,1,x\n1,0,2\n", ["report", "c.csv", "out"]),
    ("m.txt", "#rwrl-knn-v1\nk 1\nclasses 0\ndim 2\nmean 0.0\n"
              "std 1.0 1.0\nsamples 1\n0 1.0 2.0\nend\n",
     ["predict", "m.txt", "f.txt", "p.csv"]),
    ("f.txt", FEATURES, ["train", "f.txt", "m", "--coef0", "1e300"]),
    ("f.txt", "#rwrl-v1,dim=2\n0,1e308,0\n1,-1e308,1\n",
     ["train", "f.txt", "m", "--classifier", "knn", "--k", "1"]),
    # whichever row of class 0 is trained on, the other one scales past
    # 1e307 and the polynomial kernel overflows
    ("f.txt", "#rwrl-v1,dim=2\n0,0,1e153\n0,1e153,0\n1,1e-154,1e-154\n"
              "1,1e-154,1e-154\n", ["eval", "f.txt", "out", "--holdout", "1"]),
    ("f.txt", "#rwrl-v1,dim=2\n0,1e308,0\n0,-1e308,0\n1,1e308,1\n"
              "1,-1e308,1\n", ["eval", "f.txt", "out", "--holdout", "1",
                                "--classifier", "knn", "--k", "1",
                                "--no-scale"]),
], ids=["nan-feature", "k-above-n", "non-integer-cell", "short-mean",
        "kernel-overflow", "std-overflow", "decision-overflow",
        "distance-overflow"])
def test_malformed_input_exit2(tmp_path, monkeypatch, capsys, name, text,
                               argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_text(FEATURES)
    (tmp_path / name).write_text(text)
    assert main(argv) == 2
    assert "error: " in capsys.readouterr().err
