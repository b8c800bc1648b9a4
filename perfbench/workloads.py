"""The three workloads: their inputs, their timed CLI sequences and their checks.

synth-ingest  the README quick start (synth -> preprocess -> extract) on the
              clean synthetic corpus at --jobs 2, where both process pools run.
              render_glyph and extract_features dominate; the svm, knn and
              model_io layers and P2/BMP decoding do no work.
scan-eval     messy scans made by `scans.distort` from `rwrl synth` output, a
              third each P5, ASCII P2 and 8-bit BMP, through preprocess ->
              extract -> eval --holdout (SVM, then k-NN) at --jobs 1. Accuracy
              is not saturated here, SMO does several times the work per
              sample it does on clean data, and P2 decoding dominates image time.
classify      the model lifecycle: `rwrl train` writes an SVM and a k-NN model
              on 15 scan rows per class, `rwrl predict` loads each and
              classifies a file of distinct rows (clean plus scan rows, none
              repeated, none from the training set). Exercises model save/load
              and predict paths; SMO training is measured on scan-eval.

All inputs are well-formed; no operation is expected to fail. Malformed input
(such as the BMP palette defect, biClrUsed > 256) is not covered.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rwrl

import scans
import traced
from checks import CheckFailed, parse_accuracy
from spans import Tracer

ACCURACY_FLOOR = 0.5      # five times chance: catches a broken classifier
# classify trains with the CLI's default seed, as users do: on the same rows
# the SMO seed alone moves training time by about +-15%
TRAIN_SEED = 0


@dataclass
class Step:
    label: str            # e.g. "eval-svm"; the part before "-" is the subcommand
    argv: list[str]
    expect: int           # items the subcommand must report as done
    images: int = 0       # images the step decodes, for failure accounting


def _sample_rows(n: int, k: int = 20) -> list[int]:
    return sorted(set(np.linspace(0, n - 1, k).astype(int).tolist()))


def _check_rows(feature_file: Path, expected: dict[int, np.ndarray]) -> None:
    _, X = rwrl.read_feature_file(feature_file)
    for row, vector in expected.items():
        if not np.array_equal(X[row], vector):
            raise CheckFailed(f"{feature_file.name} row {row} differs from the "
                              "in-process library result")


def make_pages(cli, work: Path, seed: int, per_class: int, streams: dict,
               mixed_formats: bool) -> None:
    """`rwrl synth` a clean corpus, then write one distorted copy per stream.

    `streams` maps an output directory name to a stream number; each stream
    draws its own distortions. With `mixed_formats` the pages cycle through
    P5, P2 and BMP; otherwise all are P5 (features do not depend on format).
    """
    cli.check(cli.run("input-synth", ["synth", str(work / "raw"), "--per-class",
                                      str(per_class), "--seed", str(seed),
                                      "--jobs", "2"]))
    sources = [src for label in range(10)
               for src in sorted((work / "raw" / str(label)).glob("*.pgm"))]
    for out_name, stream in streams.items():
        rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x5CA7, stream])
        sides = scans.page_sides(len(sources), rng)
        for i, src in enumerate(sources):
            fmt = scans.FORMATS[i % 3] if mixed_formats else "pgm5"
            page = scans.distort(rwrl.decode_image(src.read_bytes()), sides[i], rng)
            out = work / out_name / src.parent.name / (src.stem + scans.SUFFIX[fmt])
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_bytes(scans.encode(page, fmt))


class SynthIngest:
    name = "synth-ingest"
    per_class = 40
    n = 10 * per_class
    artifacts = ("raw", "norm", "features.txt")

    def prepare(self, cli, work: Path, seed: int) -> None:
        pass

    def inputs(self, work: Path, rep: Path) -> list[Path]:
        return [rep / "raw"]      # the corpus `rwrl synth` generates

    def steps(self, work: Path, rep: Path, seed: int) -> list[Step]:
        jobs = ["--jobs", "2"]
        return [
            Step("synth", ["synth", str(rep / "raw"), "--per-class",
                           str(self.per_class), "--seed", str(seed)] + jobs, self.n),
            Step("preprocess", ["preprocess", str(rep / "raw"),
                                str(rep / "norm")] + jobs, self.n, self.n),
            Step("extract", ["extract", str(rep / "norm"),
                             str(rep / "features.txt")] + jobs, self.n, self.n),
        ]

    def replay(self, tr: Tracer, work: Path, out: Path, seed: int) -> None:
        with tr.span("cli.synth"):
            traced.synth(tr, out / "raw", self.per_class, seed)
        with tr.span("cli.preprocess"):
            traced.preprocess(tr, out / "raw", out / "norm")
        with tr.span("cli.extract"):
            traced.extract(tr, out / "norm", out / "features.txt")

    def reference_check(self, work: Path, rep: Path, seed: int, results) -> None:
        tr, expected = Tracer(), {}
        for row in _sample_rows(self.n):
            label, index = divmod(row, self.per_class)
            name = f"{label}/{index:04d}.pgm"
            raw = traced.render(tr, seed, label, index)
            norm = traced.preprocess_bytes(tr, raw)
            if (rep / "raw" / name).read_bytes() != raw:
                raise CheckFailed(f"raw/{name} differs from render_glyph")
            if (rep / "norm" / name).read_bytes() != norm:
                raise CheckFailed(f"norm/{name} differs from preprocess_image")
            expected[row] = traced.features_of(tr, norm)
        _check_rows(rep / "features.txt", expected)

    def stage_metrics(self, reps: list[dict], rep: Path) -> dict:
        return {
            "synth_img_per_s": (self.n / _median(reps, "synth"), "img/s"),
            "ingest_img_per_s": (self.n / _median(reps, "preprocess", "extract"),
                                 "img/s"),
        }


class ScanEval:
    name = "scan-eval"
    per_class = 25
    holdout = 15              # training samples per class; the rest is tested
    n = 10 * per_class
    artifacts = ("norm", "features.txt", "eval-svm", "eval-knn")

    def prepare(self, cli, work: Path, seed: int) -> None:
        make_pages(cli, work, seed, self.per_class, {"scan": 1},
                   mixed_formats=True)

    def inputs(self, work: Path, rep: Path) -> list[Path]:
        return [work / "scan"]

    def steps(self, work: Path, rep: Path, seed: int) -> list[Step]:
        jobs = ["--jobs", "1"]
        tested = self.n - 10 * self.holdout
        ev = ["eval", str(rep / "features.txt")]
        flags = ["--holdout", str(self.holdout), "--seed", str(seed)]
        return [
            Step("preprocess", ["preprocess", str(work / "scan"),
                                str(rep / "norm")] + jobs, self.n, self.n),
            Step("extract", ["extract", str(rep / "norm"),
                             str(rep / "features.txt")] + jobs, self.n, self.n),
            Step("eval-svm", ev + [str(rep / "eval-svm")] + flags, tested),
            Step("eval-knn", ev + [str(rep / "eval-knn")] + flags
                 + ["--classifier", "knn"], tested),
        ]

    def replay(self, tr: Tracer, work: Path, out: Path, seed: int) -> None:
        with tr.span("cli.preprocess"):
            traced.preprocess(tr, work / "scan", out / "norm")
        with tr.span("cli.extract"):
            traced.extract(tr, out / "norm", out / "features.txt")
        for classifier in ("svm", "knn"):
            with tr.span(f"cli.eval-{classifier}"):
                traced.evaluate_holdout(tr, out / "features.txt",
                                        out / f"eval-{classifier}", classifier,
                                        self.holdout, seed)

    def reference_check(self, work: Path, rep: Path, seed: int, results) -> None:
        tr, expected = Tracer(), {}
        pages = sorted((work / "scan").rglob("*.*"),
                       key=lambda p: (int(p.parent.name), p.name))
        for row in _sample_rows(self.n):
            page = pages[row]
            norm = traced.preprocess_bytes(tr, page.read_bytes())
            name = f"{page.parent.name}/{page.stem}.pgm"
            if (rep / "norm" / name).read_bytes() != norm:
                raise CheckFailed(f"norm/{name} differs from preprocess_image")
            expected[row] = traced.features_of(tr, norm)
        _check_rows(rep / "features.txt", expected)
        for classifier in ("svm", "knn"):
            accuracy, _ = parse_accuracy(results[f"eval-{classifier}"].stdout)
            overall = (rep / f"eval-{classifier}" / "overall.csv").read_text()
            if float(overall.splitlines()[1].split(",")[0]) != round(accuracy, 4):
                raise CheckFailed(f"eval-{classifier}: overall.csv disagrees "
                                  "with the printed accuracy")

    def stage_metrics(self, reps: list[dict], rep: Path) -> dict:
        return {
            "ingest_img_per_s": (self.n / _median(reps, "preprocess", "extract"),
                                 "img/s"),
            "eval_svm_s": (_median(reps, "eval-svm"), "s"),
            "eval_knn_s": (_median(reps, "eval-knn"), "s"),
            "accuracy_svm": (_accuracy(reps, "eval-svm"), "fraction"),
            "accuracy_knn": (_accuracy(reps, "eval-knn"), "fraction"),
        }


class Classify:
    name = "classify"
    per_class = 50
    # a small training set: SMO time varies with the seed's data, and this
    # workload is about model I/O and prediction, whose times do not
    train_per_class = 15
    artifacts = ("svm.model", "knn.model", "svm.csv", "knn.csv")

    def prepare(self, cli, work: Path, seed: int) -> None:
        make_pages(cli, work, seed, self.per_class, {"pages/train": 2,
                                                     "pages/scan": 3},
                   mixed_formats=False)
        shutil.copytree(work / "raw", work / "pages" / "clean")
        cli.check(cli.run("input-preprocess", ["preprocess", str(work / "pages"),
                                               str(work / "norm"), "--jobs", "2"]))
        for part in ("train", "scan", "clean"):
            cli.check(cli.run("input-extract", [
                "extract", str(work / "norm" / part), str(work / f"{part}.txt"),
                "--jobs", "2"]))
        y_train, X_train = rwrl.read_feature_file(work / "train.txt")
        first = np.sort(np.concatenate([np.flatnonzero(y_train == label)
                                        [:self.train_per_class]
                                        for label in np.unique(y_train)]))
        y_train, X_train = y_train[first], X_train[first]
        rwrl.write_feature_file(work / "train.txt", y_train, X_train)
        parts = [rwrl.read_feature_file(work / f"{p}.txt") for p in ("clean", "scan")]
        y = np.concatenate([p[0] for p in parts])
        X = np.vstack([p[1] for p in parts])
        seen = {row.tobytes() for row in X_train}
        keep = []
        for i, row in enumerate(X):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                keep.append(i)
        rwrl.write_feature_file(work / "predict.txt", y[keep], X[keep])
        self.train_rows, self.predict_rows = len(y_train), len(keep)

    def inputs(self, work: Path, rep: Path) -> list[Path]:
        return [work / "train.txt", work / "predict.txt"]

    def steps(self, work: Path, rep: Path, seed: int) -> list[Step]:
        train = ["train", str(work / "train.txt")]
        rows = str(work / "predict.txt")
        return [
            Step("train-svm", train + [str(rep / "svm.model")], self.train_rows),
            Step("train-knn", train + [str(rep / "knn.model"), "--classifier",
                                       "knn"], self.train_rows),
            Step("predict-svm", ["predict", str(rep / "svm.model"), rows,
                                 str(rep / "svm.csv")], self.predict_rows),
            Step("predict-knn", ["predict", str(rep / "knn.model"), rows,
                                 str(rep / "knn.csv")], self.predict_rows),
        ]

    def replay(self, tr: Tracer, work: Path, out: Path, seed: int) -> None:
        out.mkdir(parents=True, exist_ok=True)
        features = work / "train.txt"
        for classifier in ("svm", "knn"):
            with tr.span(f"cli.train-{classifier}"):
                traced.train(tr, features, out / f"{classifier}.model",
                             classifier, TRAIN_SEED)
        for classifier in ("svm", "knn"):
            with tr.span(f"cli.predict-{classifier}"):
                traced.predict(tr, out / f"{classifier}.model",
                               work / "predict.txt",
                               out / f"{classifier}.csv", classifier)

    def reference_check(self, work: Path, rep: Path, seed: int, results) -> None:
        y, X = rwrl.read_feature_file(work / "predict.txt")
        rows = _sample_rows(len(y), 50)
        for classifier in ("svm", "knn"):
            model = rwrl.model_load((rep / f"{classifier}.model").read_bytes())
            predict = (rwrl.svm_predict_batch if classifier == "svm"
                       else rwrl.knn_predict_batch)
            lines = (rep / f"{classifier}.csv").read_text().splitlines()[1:]
            printed = np.array([int(line.split(",")[2]) for line in lines])
            if len(printed) != len(y):
                raise CheckFailed(f"{classifier}.csv has {len(printed)} rows")
            if not np.array_equal(predict(model, X[rows]), printed[rows]):
                raise CheckFailed(f"{classifier}.csv differs from predicting "
                                  "with the loaded model in-process")
            accuracy, _ = parse_accuracy(results[f"predict-{classifier}"].stdout)
            if abs(accuracy - float((printed == y).mean())) > 5e-5:
                raise CheckFailed(f"predict-{classifier}: printed accuracy "
                                  "disagrees with the CSV")

    def stage_metrics(self, reps: list[dict], rep: Path) -> dict:
        return {
            "train_svm_s": (_median(reps, "train-svm"), "s"),
            "predict_svm_rows_per_s": (self.predict_rows
                                       / _median(reps, "predict-svm"), "rows/s"),
            "predict_knn_rows_per_s": (self.predict_rows
                                       / _median(reps, "predict-knn"), "rows/s"),
            "accuracy_svm": (_accuracy(reps, "predict-svm"), "fraction"),
            "accuracy_knn": (_accuracy(reps, "predict-knn"), "fraction"),
            "model_svm_mb": ((rep / "svm.model").stat().st_size / 2**20, "MB"),
        }


def _median(reps: list[dict], *labels: str) -> float:
    return float(np.median([sum(r[label].ref_s for label in labels)
                            for r in reps]))


def _accuracy(reps: list[dict], label: str) -> float:
    accuracy, _ = parse_accuracy(reps[0][label].stdout)
    if accuracy < ACCURACY_FLOOR:
        raise CheckFailed(f"{label}: accuracy {accuracy} below {ACCURACY_FLOOR}")
    return accuracy


WORKLOADS = {w.name: w for w in (SynthIngest(), ScanEval(), Classify())}
