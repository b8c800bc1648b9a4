import argparse
import errno
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rwrl
from rwrl import dataset
from rwrl.cli import CHUNK, build_parser, main
from rwrl.raster import encode_pgm
from rwrl.reader import read_feature_file
from rwrl.rows import write_feature_file

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


_COMMANDS = ("preprocess", "extract", "train", "predict", "eval", "synth",
             "report")


def test_help_exits_zero(capsys):
    for command in _COMMANDS:
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


def _ink(bar: int) -> np.ndarray:
    ink = np.full((20, 20), 255, dtype=np.uint8)
    ink[5:15, 5:15] = 0
    ink[2:18, bar:bar + 2] = 0
    return ink


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_preprocess_output_clash_keeps_first(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "x.pgm").write_bytes(encode_pgm(_ink(3)))
    (raw / "x.bmp").write_bytes(make_bmp(_ink(8)))
    (raw / "y.PGM").write_bytes(encode_pgm(_ink(12)))
    (raw / "y.pgm").write_bytes(encode_pgm(_ink(16)))
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        assert main(["preprocess", str(raw), str(out), "--jobs", jobs]) == 0
        captured = capsys.readouterr()
        assert "preprocessed 2/4 images" in captured.out
        for first, later in (("x.bmp", "x.pgm"), ("y.PGM", "y.pgm")):
            line = next(l for l in captured.err.splitlines()
                        if f"skipped {raw / later}:" in l)
            assert str(raw / first) in line
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1]
    assert sorted(trees[0]) == ["x.pgm", "y.pgm"]
    # the first input in sorted order wins: x.bmp and y.PGM
    reference = tmp_path / "ref"
    reference.mkdir()
    (reference / "x.bmp").write_bytes(make_bmp(_ink(8)))
    (reference / "y.pgm").write_bytes(encode_pgm(_ink(12)))
    assert main(["preprocess", str(reference), str(tmp_path / "ref_out"),
                 "--jobs", "1"]) == 0
    capsys.readouterr()
    assert trees[0] == _tree_bytes(tmp_path / "ref_out")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_preprocess_skips_integer_too_long(tmp_path, capsys, jobs):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "long.pgm").write_bytes(b"P5 " + b"1" * 5000 + b" 1 255\n\x00")
    (raw / "ok.pgm").write_bytes(encode_pgm(_ink(3)))
    assert main(["preprocess", str(raw), str(tmp_path / "out"),
                 "--jobs", jobs]) == 0
    captured = capsys.readouterr()
    assert "long.pgm: MalformedHeaderError" in captured.err
    assert "preprocessed 1/2 images" in captured.out
    assert sorted(_tree_bytes(tmp_path / "out")) == ["ok.pgm"]


def test_preprocess_header_does_not_follow_the_interpreter(tmp_path):
    # 700 digits are within rwrl's own 4300-digit rule; int()'s limit,
    # lowered to 640 for the process, must not turn them into a traceback
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "long.pgm").write_bytes(b"P5 " + b"1" * 700 + b" 1 255\n\x00")
    (raw / "ok.pgm").write_bytes(encode_pgm(_ink(3)))
    path = [str(Path(rwrl.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               PYTHONINTMAXSTRDIGITS="640")
    result = subprocess.run(
        [sys.executable, "-m", "rwrl.cli", "preprocess", str(raw),
         str(tmp_path / "out"), "--jobs", "1"],
        env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "long.pgm: TruncatedDataError" in result.stderr
    assert "preprocessed 1/2 images" in result.stdout
    assert sorted(_tree_bytes(tmp_path / "out")) == ["ok.pgm"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_preprocess_skips_p2_past_its_bytes(tmp_path, capsys, jobs):
    # width * height >= 2**63: bytes.split cannot even count the samples
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "huge.pgm").write_bytes(b"P2 4294967296 4294967296 255\n0 1\n")
    (raw / "ok.pgm").write_bytes(encode_pgm(_ink(3)))
    assert main(["preprocess", str(raw), str(tmp_path / "out"),
                 "--jobs", jobs]) == 0
    captured = capsys.readouterr()
    assert "huge.pgm: TruncatedDataError" in captured.err
    assert "preprocessed 1/2 images" in captured.out
    assert sorted(_tree_bytes(tmp_path / "out")) == ["ok.pgm"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_extract_skips_constant_pages(corpus, tmp_path, capsys, jobs):
    # preprocess's page rule: a constant page, white or black, is empty
    norm = tmp_path / "norm"
    shutil.copytree(corpus / "norm", norm)
    for name, value in (("white.pgm", 255), ("black.pgm", 0)):
        (norm / "7" / name).write_bytes(
            encode_pgm(np.full((64, 64), value, dtype=np.uint8)))
    out = tmp_path / "f.txt"
    assert main(["extract", str(norm), str(out), "--jobs", jobs]) == 0
    captured = capsys.readouterr()
    assert "white.pgm: EmptyImageError" in captured.err
    assert "black.pgm: EmptyImageError" in captured.err
    assert "wrote 60 feature rows" in captured.out
    assert out.read_bytes() == (corpus / "features.txt").read_bytes()


@pytest.mark.parametrize("stack_pages", [CHUNK, 3])
@pytest.mark.parametrize("command", ["preprocess", "extract"])
def test_bad_pages_at_chunk_boundaries(corpus, tmp_path, capsys, monkeypatch,
                                       command, stack_pages):
    """Bad pages first, last and on both sides of the first chunk boundary
    are skipped in input order, and the other pages' outputs are those of a
    run without them, at either job count and with a chunk's pages split
    into stacks of 3."""
    monkeypatch.setattr(rwrl.cli, "STACK_PIXELS", stack_pages * 64 * 64)
    clean, bad = tmp_path / "clean", tmp_path / "bad"
    src = corpus / ("raw" if command == "preprocess" else "norm")
    shutil.copytree(src, clean)
    shutil.copytree(src, bad)
    pages = sorted(bad.rglob("*.pgm"))
    truncated = b"P5 64 64 255\n\x00"
    constant = encode_pgm(np.full((64, 64), 255, dtype=np.uint8))
    narrow = np.full((63, 64), 255, dtype=np.uint8)
    narrow[20:40, 20:40] = 0
    kinds = {"preprocess": [(truncated, "TruncatedDataError"),
                            (constant, "EmptyImageError"),
                            (truncated, "TruncatedDataError"),
                            (constant, "EmptyImageError")],
             "extract": [(truncated, "TruncatedDataError"),
                         (constant, "EmptyImageError"),
                         (encode_pgm(narrow), "WrongDimensionsError"),
                         (truncated, "TruncatedDataError")]}[command]
    positions = [0, CHUNK - 1, CHUNK, len(pages) - 1]
    assert len(pages) >= 40
    for at, (data, _) in zip(positions, kinds):
        pages[at].write_bytes(data)
        (clean / pages[at].relative_to(bad)).unlink()
    skips = [(str(pages[at]), error) for at, (_, error) in zip(positions, kinds)]

    def run(in_dir, name, jobs):
        out = tmp_path / name
        target = out if command == "preprocess" else tmp_path / f"{name}.txt"
        assert main([command, str(in_dir), str(target), "--jobs", jobs]) == 0
        err = capsys.readouterr().err
        return (_tree_bytes(out) if command == "preprocess"
                else target.read_bytes()), err

    expected, _ = run(clean, "expected", "1")
    for jobs in ("1", "2"):
        got, err = run(bad, f"jobs{jobs}", jobs)
        assert re.findall(r"^warning: skipped (\S+): (\w+):", err, re.M) == skips
        assert got == expected


def test_extract_of_constant_pages_only_exit2(tmp_path, capsys):
    page = encode_pgm(np.full((64, 64), 255, dtype=np.uint8))
    for digit in range(10):
        (tmp_path / "norm" / str(digit)).mkdir(parents=True)
        (tmp_path / "norm" / str(digit) / "blank.pgm").write_bytes(page)
    out = tmp_path / "f.txt"
    assert main(["extract", str(tmp_path / "norm"), str(out),
                 "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("EmptyImageError") == 10
    assert "warning: no image produced features" in err
    assert not out.exists()


def test_extract_bad_image_same_at_both_job_counts(corpus, tmp_path, capsys):
    norm = tmp_path / "norm"
    shutil.copytree(corpus / "norm", norm)
    (norm / "5" / "bad.pgm").write_bytes(b"P5 3 3 255\nxx")
    files = []
    for jobs in ("1", "2"):
        out = tmp_path / f"f{jobs}.txt"
        assert main(["extract", str(norm), str(out), "--jobs", jobs]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("skipped") == 1
        assert "bad.pgm: TruncatedDataError" in captured.err
        assert "wrote 60 feature rows" in captured.out
        files.append(out.read_bytes())
    assert files[0] == files[1]


@pytest.mark.parametrize("mode", [["--holdout", "1"], ["--cv", "2"]],
                         ids=" ".join)
def test_eval_header_only_features_exit2(tmp_path, capsys, mode):
    features = tmp_path / "f.txt"
    features.write_text("#rwrl-v1,dim=2\n")
    assert main(["eval", str(features), str(tmp_path / "out"), *mode]) == 2
    assert "error: EmptyDataError" in capsys.readouterr().err


def test_predict_header_only_features_exit2(corpus, tmp_path, capsys):
    model, out = tmp_path / "m.txt", tmp_path / "p.csv"
    assert main(["train", str(corpus / "features.txt"), str(model)]) == 0
    features = tmp_path / "f.txt"
    features.write_text("#rwrl-v1,dim=196\n")
    assert main(["predict", str(model), str(features), str(out)]) == 2
    assert "error: EmptyDataError" in capsys.readouterr().err
    assert not out.exists()


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


def test_tables_end_lines_in_lf(corpus, tmp_path, capsys):
    features = str(corpus / "features.txt")
    out, model, pred = tmp_path / "rep", tmp_path / "m.txt", tmp_path / "p.csv"
    assert main(["eval", features, str(out), "--cv", "2"]) == 0
    assert main(["train", features, str(model)]) == 0
    assert main(["predict", str(model), features, str(pred)]) == 0
    tables = sorted(out.glob("*.csv")) + [pred]
    assert [p.name for p in tables] == ["confusion.csv", "folds.csv",
                                        "overall.csv", "per_class.csv",
                                        "p.csv"]
    for path in tables:
        assert b"\r" not in path.read_bytes(), path.name
    # a CRLF confusion CSV, as csv.writer's default wrote it, still reads
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes((out / "confusion.csv").read_bytes()
                     .replace(b"\n", b"\r\n"))
    assert main(["report", str(crlf), str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "overall.csv").read_bytes() == \
        (out / "overall.csv").read_bytes()
    capsys.readouterr()


def test_report_beyond_int64_products(tmp_path, capsys):
    # the MCC product of these counts overflows int64
    path = tmp_path / "c.csv"
    path.write_text("class,0,1\n0,3000000,1000000\n1,1000000,3000000\n")
    assert main(["report", str(path), str(tmp_path / "out")]) == 0
    assert "kappa  0.500" in capsys.readouterr().out


def test_report_all_zero_matrix_exit2(tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text("class,0,1\n0,0,0\n1,0,0\n")
    assert main(["report", str(path), str(tmp_path / "out")]) == 2
    assert "error: DegenerateMatrixError" in capsys.readouterr().err


def test_directories_named_like_images_skipped(tmp_path, capsys):
    raw, norm = tmp_path / "raw", tmp_path / "norm"
    assert main(["synth", str(raw), "--per-class", "2", "--seed", "3",
                 "--jobs", "1"]) == 0
    (raw / "3" / "zz.pgm").mkdir()
    assert main(["preprocess", str(raw), str(norm), "--jobs", "1"]) == 0
    (norm / "4" / "zz.pgm").mkdir()
    assert main(["extract", str(norm), str(tmp_path / "f.txt"),
                 "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "preprocessed 20/20 images" in out
    assert "wrote 20 feature rows" in out


def _rwrl_env() -> dict[str, str]:
    """The environment with this rwrl first on PYTHONPATH."""
    path = [str(Path(rwrl.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def _rwrl_subprocess(script, *args):
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=_rwrl_env(), capture_output=True, text=True)


@pytest.fixture(scope="module")
def table_command_modules(corpus, tmp_path_factory):
    """The modules loaded in one process once train, predict, eval (with
    each classifier) and report have run."""
    script = """
import sys
from rwrl.cli import main
features, out = sys.argv[1], sys.argv[2]
for argv in (["train", features, out + "/svm.txt"],
             ["train", features, out + "/knn.txt", "--classifier", "knn"],
             ["predict", out + "/svm.txt", features, out + "/pred.csv"],
             ["predict", out + "/knn.txt", features, out + "/pred.csv"],
             ["eval", features, out + "/holdout", "--holdout", "4"],
             ["eval", features, out + "/cv", "--cv", "2"],
             ["eval", features, out + "/knn", "--cv", "2", "--classifier", "knn"],
             ["report", out + "/holdout/confusion.csv", out + "/again"]):
    assert main(argv) == 0, argv
print(" ".join(sorted(sys.modules)))
"""
    result = _rwrl_subprocess(script, corpus / "features.txt",
                              tmp_path_factory.mktemp("tables"))
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def test_commands_do_not_load_numpy_ma(table_command_modules):
    # np.unique imports numpy.ma on its first call, about 15 ms per process
    assert "numpy.ma" not in table_command_modules


def test_table_commands_do_not_load_csv(table_command_modules):
    # every table goes through features.write_csv and read_confusion_csv,
    # and synth's manifest through dataset.write_manifest_csv
    assert "csv" not in table_command_modules


@pytest.mark.parametrize("module", ["numpy.random", "secrets", "hashlib"])
def test_commands_do_not_load_numpy_random(table_command_modules, tmp_path,
                                           module):
    # rwrl.pcg draws the seeded splits and glyphs; numpy.random costs each
    # process about 6 MB, OpenSSL loaded through secrets and hashlib included
    script = """
import sys
from rwrl.cli import main
assert main(["synth", sys.argv[1], "--per-class", "1", "--jobs", "1"]) == 0
print(" ".join(sorted(sys.modules)))
"""
    result = _rwrl_subprocess(script, tmp_path / "raw")
    assert result.returncode == 0, result.stderr
    assert module not in set(result.stdout.splitlines()[-1].split())
    assert module not in table_command_modules


def test_image_commands_load_no_process_pool(tmp_path):
    # the workers are forked with os.fork and send results down pipes:
    # concurrent.futures and multiprocessing cost the parent about 2 MB
    script = """
import sys
from rwrl.cli import main
raw, norm, out = sys.argv[1:]
assert main(["synth", raw, "--per-class", "4", "--jobs", "2"]) == 0
assert main(["preprocess", raw, norm, "--jobs", "2"]) == 0
assert main(["extract", norm, out, "--jobs", "2"]) == 0
print(" ".join(sorted(sys.modules)))
"""
    result = _rwrl_subprocess(script, tmp_path / "raw", tmp_path / "norm",
                              tmp_path / "features.txt")
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.splitlines()[-1].split())
    assert not {m for m in loaded
                if m.split(".")[0] in ("concurrent", "multiprocessing")}


@pytest.mark.skipif(sys.platform != "linux", reason="workers fork on Linux")
def test_forked_workers_import_nothing_new(tmp_path):
    # each worker logs, after each item, the modules it has imported since
    # it was forked: none, so the parent's sys.modules, which the import
    # tests here check, holds every module a forked command loads
    script = """
import sys
from rwrl import dataset
from rwrl.cli import main
raw, norm, out, log = sys.argv[1:]
serve = dataset._serve

def logged(fn, *args):
    forked = set(sys.modules)

    def item(value):
        result = fn(value)
        with open(log, "a") as fh:
            print(*sorted(set(sys.modules) - forked), file=fh)
        return result
    serve(item, *args)

dataset._serve = logged
dataset.usable_cpus = lambda: 2
assert main(["synth", raw, "--per-class", "4", "--jobs", "2"]) == 0
assert main(["preprocess", raw, norm, "--jobs", "2"]) == 0
assert main(["extract", norm, out, "--jobs", "2"]) == 0
"""
    log = tmp_path / "worker-imports.txt"
    result = _rwrl_subprocess(script, tmp_path / "raw", tmp_path / "norm",
                              tmp_path / "features.txt", log)
    assert result.returncode == 0, result.stderr
    lines = log.read_text().splitlines()
    assert len(lines) >= 6 and not any(lines), lines


@pytest.mark.skipif(sys.platform != "linux", reason="workers fork on Linux")
@pytest.mark.parametrize("case, error", [
    ("killed", "ChildProcessError: worker 1 ended before item 3: "
               "killed by SIGKILL"),
    ("oserror", "PermissionError: [Errno 13] page 3 is read-only"),
    ("result", "ChildProcessError: worker 1 cannot send the result for "
               "item 3: "),
    ("exception", "ChildProcessError: worker 1 cannot send the ValueError "
                  "raised for item 3: "),
], ids=["killed", "oserror", "result", "exception"])
def test_worker_failure_exits_2(tmp_path, monkeypatch, capsys, case, error):
    """A worker that dies, raises an OSError, or returns or raises what
    cannot be pickled ends the command with exit 2 and one error line, and
    leaves no child process behind."""
    def chunk(sigma, polarity, tasks):
        if Path(tasks[0][0]).stem != "3":
            return [None]
        if case == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if case == "oserror":
            raise PermissionError(errno.EACCES, "page 3 is read-only")
        if case == "result":
            return [lambda: None]
        raise ValueError(lambda: None)

    monkeypatch.setattr(rwrl.cli, "CHUNK", 1)
    monkeypatch.setattr(rwrl.cli, "_preprocess_chunk", chunk)
    monkeypatch.setattr(dataset, "usable_cpus", lambda: 2)
    raw = tmp_path / "raw"
    raw.mkdir()
    for i in range(8):   # item i is page i.pgm, which the chunk never reads
        (raw / f"{i}.pgm").write_bytes(b"")
    argv = ["preprocess", str(raw), str(tmp_path / "norm"), "--jobs", "2"]

    def hung(signum, frame):
        pytest.fail("preprocess did not return within 60 s")

    handler = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        assert main(argv) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and err.count("\n") == 1, err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the rwrl layers each command loads, besides cli and errors: only the
# image commands load raster, only extract loads features, only the table
# readers load reader (extract writes a feature file and never compiles
# it), a command of one classifier never loads the other, and no command
# loads the csv module
_LOADED = {
    "help": set(),
    "synth": {"dataset", "pcg", "raster"},
    "preprocess": {"dataset", "raster"},
    "extract": {"dataset", "features", "raster", "rows"},
    "eval-svm": {"evaluate", "pcg", "reader", "rows", "svm"},
    "eval-knn": {"evaluate", "knn", "pcg", "reader", "rows"},
    "train-svm": {"model_io", "reader", "rows", "svm"},
    "train-knn": {"knn", "model_io", "reader", "rows"},
    "predict": {"model_io", "reader", "rows", "svm"},
    "predict-knn": {"knn", "model_io", "reader", "rows"},
    "report": {"evaluate", "reader", "rows"},
}


@pytest.mark.parametrize("command", sorted(_LOADED))
def test_command_loads_only_its_layers(corpus, tmp_path, command):
    features, out = corpus / "features.txt", tmp_path
    if command in ("predict", "predict-knn", "report"):
        assert main(["eval", str(features), str(out / "ev"),
                     "--holdout", "4"]) == 0
        assert main(["train", str(features), str(out / "m.txt")]) == 0
        assert main(["train", str(features), str(out / "k.txt"),
                     "--classifier", "knn"]) == 0
    argv = {
        "help": ["--help"],
        "synth": ["synth", out / "raw", "--per-class", "1", "--jobs", "1"],
        "preprocess": ["preprocess", corpus / "raw", out / "n", "--jobs", "1"],
        "extract": ["extract", corpus / "norm", out / "f.txt", "--jobs", "1"],
        "eval-svm": ["eval", features, out / "e", "--holdout", "4"],
        "eval-knn": ["eval", features, out / "e", "--holdout", "4",
                     "--classifier", "knn"],
        "train-svm": ["train", features, out / "s.txt"],
        "train-knn": ["train", features, out / "k.txt", "--classifier", "knn"],
        "predict": ["predict", out / "m.txt", features, out / "p.csv"],
        "predict-knn": ["predict", out / "k.txt", features, out / "p.csv"],
        "report": ["report", out / "ev" / "confusion.csv", out / "r"],
    }[command]
    script = """
import sys
from rwrl.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
assert code == 0, code
print(" ".join(sorted(name for name in sys.modules
                      if name.startswith("rwrl.") or name == "csv")))
"""
    result = _rwrl_subprocess(script, *argv)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.splitlines()[-1].split())
    assert loaded == {f"rwrl.{name}" for name in
                      _LOADED[command] | {"cli", "errors"}}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    *(([command, "--help"], 0) for command in _COMMANDS),
    (["preprocess", "in", "out", "--jobs", "0"], 2),
    (["preprocess", "in", "out", "--sigma", "65"], 2),
    (["train", "f.txt", "m.txt", "--degree", "9223372036854775808"], 2),
    (["preprocess", "in", "out", "--polarity", "x"], 2),
    (["bogus"], 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_parse_path_does_not_load_numpy(argv, code):
    # the parser's bounds live in rwrl.errors, so help and usage errors
    # return before numpy loads
    script = """
import sys
from rwrl.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    print(exc.code, "numpy" in sys.modules)
"""
    result = _rwrl_subprocess(script, *argv)
    assert result.stdout.split()[-2:] == [str(code), "False"], result.stderr


_EXIT_CASES = {
    "train-svm": ["train", "features.txt", "out.txt"],
    "train-knn": ["train", "features.txt", "out.txt", "--classifier", "knn"],
    "predict-svm": ["predict", "svm.txt", "features.txt", "out.csv"],
    "predict-knn": ["predict", "knn.txt", "features.txt", "out.csv"],
    "error": ["predict", "missing.txt", "features.txt", "out.csv"],
    "help": ["--help"],
}


@pytest.mark.parametrize("case", sorted(_EXIT_CASES))
def test_script_exit_matches_main(corpus, tmp_path, monkeypatch, capsys,
                                  case):
    """`python -m rwrl.cli`, which ends through `entry`, gives the exit
    code, stdout, stderr and files of an in-process `main`."""
    argv = _EXIT_CASES[case]
    for run in ("main", "script"):
        (tmp_path / run).mkdir()
        shutil.copy(corpus / "features.txt", tmp_path / run)
    monkeypatch.chdir(tmp_path / "main")
    monkeypatch.setenv("COLUMNS", "80")     # --help wraps at the same width
    assert main(["train", "features.txt", "svm.txt"]) == 0
    assert main(["train", "features.txt", "knn.txt", "--classifier", "knn"]) == 0
    for model in ("svm.txt", "knn.txt"):
        shutil.copy(model, tmp_path / "script")
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    env = _rwrl_env()
    env.pop("PYTHONUNBUFFERED", None)   # block-buffered, as pipes default to
    result = subprocess.run([sys.executable, "-m", "rwrl.cli", *argv],
                            cwd=tmp_path / "script", env=env,
                            capture_output=True, text=True)
    assert code == {"error": 2}.get(case, 0)
    assert (result.returncode, result.stdout, result.stderr) == (
        code, captured.out, captured.err)
    assert _tree_bytes(tmp_path / "script") == _tree_bytes(tmp_path / "main")


def test_import_rwrl_loads_layers_on_use():
    script = """
import sys
import rwrl
assert [name for name in sys.modules if name.startswith("rwrl")] == ["rwrl"]
assert set(rwrl.__all__) <= set(dir(rwrl)), set(rwrl.__all__) - set(dir(rwrl))
unresolved = [name for name in rwrl.__all__ if not hasattr(rwrl, name)]
assert not unresolved, unresolved
assert rwrl.svm.svm_train is rwrl.svm_train
assert rwrl.evaluate.write_reports
"""
    result = _rwrl_subprocess(script)
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


def test_readme_flag_table_lists_every_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = {flag for row in re.findall(r"^\| (`--.*?) \|", readme, re.M)
                  for flag in re.findall(r"`(--[\w-]+)`", row)}
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    accepted = {flag for sub in subparsers.choices.values()
                for action in sub._actions for flag in action.option_strings
                if flag.startswith("--") and flag != "--help"}
    assert documented == accepted


def test_convergence_error_exits_2_writing_nothing(tmp_path, monkeypatch,
                                                   capsys):
    # C = 1e300 on overlapping classes stops at the SMO iteration cap
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, (20, 6)), rng.normal(0.3, 1, (20, 6))])
    monkeypatch.chdir(tmp_path)
    write_feature_file("f", np.repeat([0, 1], 20), X)
    flags = ["--kernel", "linear", "--C", "1e300"]
    for argv in (["eval", "f", "out", "--cv", "2"], ["train", "f", "model"]):
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.count("error: ConvergenceError: SMO for classes 0 and 1") == 1
        assert len(err.splitlines()) == 1, err
        assert "warning:" not in err and "RuntimeWarning" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]


def test_jobs_default_without_cpu_count(tmp_path, monkeypatch, capsys):
    # os.cpu_count() returns None where the count cannot be determined
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert main(["synth", str(tmp_path / "raw"), "--per-class", "1"]) == 0
    assert main(["preprocess", str(tmp_path / "raw"),
                 str(tmp_path / "norm")]) == 0
    assert main(["extract", str(tmp_path / "norm"),
                 str(tmp_path / "f.txt")]) == 0
    assert "warning:" not in capsys.readouterr().err


def test_tiny_sigma_preprocesses_as_sigma_zero(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    for bar in (3, 8, 12):
        (raw / f"{bar}.pgm").write_bytes(encode_pgm(_ink(bar)))
    for sigma in ("0", "1e-200"):
        assert main(["preprocess", str(raw), str(tmp_path / sigma),
                     "--sigma", sigma, "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""
    assert _tree_bytes(tmp_path / "1e-200") == _tree_bytes(tmp_path / "0")
    assert len(_tree_bytes(tmp_path / "0")) == 3


def test_preprocess_skips_bad_palette_bmp(tmp_path, capsys):
    ink = np.full((20, 20), 255, dtype=np.uint8)
    ink[5:15, 5:15] = 0
    palette = [(v % 256,) * 3 for v in range(300)]
    (tmp_path / "bad.bmp").write_bytes(make_bmp(ink, palette_rgb=palette))
    (tmp_path / "ok.bmp").write_bytes(make_bmp(ink))
    # a distinct stem: ok.pgm would clash with ok.bmp's output and be skipped
    (tmp_path / "ok2.pgm").write_bytes(encode_pgm(ink))
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
    # a model file stores the degree as an int64
    ["train", "f.txt", "m.txt", "--degree", str(2 ** 63)],
    ["train", "f.txt", "m.txt", "--kernel", "linear",
     "--degree", str(2 ** 63)],
    ["train", "f.txt", "m.txt", "--kernel", "rbf", "--degree", str(2 ** 63)],
    ["preprocess", "in", "out", "--sigma", "-1"],
    ["preprocess", "in", "out", "--sigma", "inf"],
    ["preprocess", "in", "out", "--sigma", "64.5"],
    ["preprocess", "in", "out", "--sigma", "1e300"],
    ["synth", "out", "--per-class", "0"],
    ["synth", "out", "--jobs", "0"],
    ["preprocess", "in", "out", "--jobs", "-2"],
    ["extract", "in", "out.txt", "--jobs", "0"],
    # seeds are non-negative: the parser refuses -1 before any draw
    ["eval", "f.txt", "out", "--holdout", "1", "--seed", "-1"],
    ["eval", "f.txt", "out", "--cv", "2", "--seed", "-1"],
    ["synth", "out", "--seed", "-1"],
    # synth seeds are 32-bit: a larger one would collide with a smaller one
    ["synth", "out", "--seed", "4294967296"],
], ids=" ".join)
def test_out_of_range_flag_exit2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_largest_degree_trains_and_predicts(corpus, tmp_path, capsys):
    features, model = str(corpus / "features.txt"), tmp_path / "m.txt"
    assert main(["train", features, str(model), "--kernel", "linear",
                 "--degree", str(2 ** 63 - 1)]) == 0
    assert f"degree={2 ** 63 - 1} " in model.read_text()
    assert main(["predict", str(model), features,
                 str(tmp_path / "p.csv")]) == 0
    capsys.readouterr()


def test_largest_synth_seed_accepted(tmp_path):
    assert main(["synth", str(tmp_path), "--per-class", "1", "--seed",
                 str(2 ** 32 - 1), "--jobs", "1"]) == 0
    assert len(list(tmp_path.glob("*/*.pgm"))) == 10


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
    ("m.txt", "#rwrl-knn-v2\nk 1\nclasses 0\ndim 2\nmean 0.0\n"
              "std 1.0 1.0\npool 1\n1 2\nlabels 0\nend\n",
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
    ("f.txt", "#rwrl-v1,dim=2\n0,1_0,2\n1,2,3\n", ["train", "f.txt", "m"]),
], ids=["nan-feature", "k-above-n", "non-integer-cell", "short-mean",
        "kernel-overflow", "std-overflow", "decision-overflow",
        "distance-overflow", "underscore-feature"])
def test_malformed_input_exit2(tmp_path, monkeypatch, capsys, name, text,
                               argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_text(FEATURES)
    (tmp_path / name).write_text(text)
    assert main(argv) == 2
    assert "error: " in capsys.readouterr().err


KNN = ("#rwrl-knn-v2\nk 1\nclasses 0\ndim 2\nmean 0.0 0.0\nstd 1.0 1.0\n"
       "pool 1\n1 2\nlabels 0\nend\n")


@pytest.mark.parametrize("name, text, argv, error", [
    ("f.txt", "#rwrl-v1,dim=2\n" + "1" * 200_000 + "x,1,2\n",
     ["train", "f.txt", "m"], "FeatureFileError"),
    ("m.txt", KNN.replace("v2", "v2 " + "x" * 100_000),
     ["predict", "m.txt", "f.txt", "p.csv"], "CorruptModelError"),
    ("m.txt", KNN.replace("v2", "v" + "9" * 100_000),
     ["predict", "m.txt", "f.txt", "p.csv"], "VersionMismatchError"),
    ("m.txt", "#rwrl-svm-v3\nkernel " + "x" * 100_000 + " degree=3 "
              "gamma=0.5 coef0=0.0 C=1.0\n" + KNN.split("\n", 2)[2],
     ["predict", "m.txt", "f.txt", "p.csv"], "CorruptModelError"),
    ("c.csv", "class,0,1\n0,1,0\n1,0," + "9" * 100_000 + "x\n",
     ["report", "c.csv", "out"], "UnknownLabelError"),
], ids=["feature-label", "model-header", "model-version", "kernel-kind",
        "confusion-count"])
def test_error_messages_quote_a_bounded_part_of_a_field(
        tmp_path, monkeypatch, capsys, name, text, argv, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_text(FEATURES)
    (tmp_path / name).write_text(text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {error}: " in err and len(err) < 200


@pytest.mark.parametrize("argv", [
    ["train", "f.txt", "m.txt"],
    ["predict", "m.txt", "f.txt", "p.csv"],
    ["eval", "f.txt", "out", "--cv", "2"],
], ids=" ".join)
def test_header_dim_past_array_limit_exit2(corpus, tmp_path, monkeypatch,
                                           capsys, argv):
    # a (0, 2**60) float64 array is past numpy's size limit
    monkeypatch.chdir(tmp_path)
    assert main(["train", str(corpus / "features.txt"), "m.txt",
                 "--kernel", "linear"]) == 0
    (tmp_path / "f.txt").write_text(f"#rwrl-v1,dim={2 ** 60}\n")
    assert main(argv) == 2
    assert "error: FeatureFileError" in capsys.readouterr().err
