"""Benchmark of the rwrl pipeline, run as users run it: through the CLI.

    python3 perfbench/run.py --workload scan-eval --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's CLI command sequence runs repeatedly, with
tracing off, until ``--seconds`` have passed (at least five times); the
end-to-end metrics are medians over those repetitions. With ``--trace 1`` the
sequence runs once through the CLI and once in-process with a span around
every library call; both must write identical artifacts, and the per-layer
metrics come from the spans. ``--workload all`` runs the three workloads in
turn.

The end-to-end metrics are ``setup_s``, the median start-up time of a fresh
``rwrl --help`` process, sampled between repetitions; ``wall_s``, the median
time of the whole command sequence; and ``peak_rss_mb``, the largest peak RSS
of any command, pool workers included. Times are seconds at a reference CPU
speed: the shared host's vCPUs change speed by up to 1.5x from second to
second, so every command runs pinned to its CPUs while `speed` samples them,
and its wall time is scaled by the speed measured (see ``speed.py``). The
plain wall-clock figures are printed too, as ``setup_raw_s`` and
``wall_raw_s``.

For each workload the output is a table of every metric with its unit and
sample count, then one JSON line with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every output check
passed. A seed whose generated inputs differ from the digest recorded in
``digests.json`` is refused with exit code 3: its timings are not comparable.

Sizes in MB are MiB. Working files go to ``perfbench/_work`` and are removed
after each run; span records are kept in ``perfbench/_traces`` as JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if __name__ == "__main__" and not (SRC / "rwrl" / "cli.py").is_file():
    sys.exit(f"error: no rwrl sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))
# One BLAS thread per process, here and in every command: a command then uses
# exactly the CPUs its --jobs asks for, and multi-threaded BLAS on the shared
# two-CPU machine doubled the run-to-run spread of the classify workload.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402
import traced  # noqa: E402
from checks import (Accounting, CheckFailed, DigestMismatch,  # noqa: E402
                    check_digest, inputs_digest, parse_count, parse_skips,
                    tree_digest)
from spans import Tracer, busy_under, layer_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
MIN_REPS = 5
DIGESTS = json.loads((HERE / "digests.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPORTED = {False: [m["name"] for m in SPEC["end_to_end"]],
            True: [m["name"] for m in SPEC["per_layer"]]}

# per-layer metric -> (span name, statistic, unit)
SPAN_METRICS = {
    "dataset.render_glyph_us": ("dataset.render_glyph", "median", "us"),
    "raster.decode_p5_us": ("raster.decode_p5", "median", "us"),
    "raster.decode_p2_us": ("raster.decode_p2", "median", "us"),
    "raster.decode_bmp_us": ("raster.decode_bmp", "median", "us"),
    "raster.gaussian_smooth_us": ("raster.gaussian_smooth", "median", "us"),
    "raster.otsu_threshold_us": ("raster.otsu_threshold", "median", "us"),
    "raster.binarize_us": ("raster.binarize", "median", "us"),
    "raster.normalize_digit_us": ("raster.normalize_digit", "median", "us"),
    "raster.encode_pgm_us": ("raster.encode_pgm", "median", "us"),
    "contour.extract_contour_us": ("contour.extract_contour", "median", "us"),
    "features.extract_features_us": ("features.extract_features", "median", "us"),
    "features.write_feature_file_ms": ("features.write_feature_file", "median", "ms"),
    "features.read_feature_file_ms": ("features.read_feature_file", "median", "ms"),
    "svm.train_s": ("svm.svm_train", "busy", "s"),
    "svm.solver_s": ("svm.svm_train", "self", "s"),
    "model_io.save_svm_s": ("model_io.save_svm", "busy", "s"),
    "model_io.load_svm_s": ("model_io.load_svm", "busy", "s"),
    "model_io.save_knn_s": ("model_io.save_knn", "busy", "s"),
    "model_io.load_knn_s": ("model_io.load_knn", "busy", "s"),
    "evaluate.holdout_split_ms": ("evaluate.holdout_split", "busy", "ms"),
    "evaluate.confusion_ms": ("evaluate.confusion", "busy", "ms"),
    "evaluate.write_reports_ms": ("evaluate.write_reports", "busy", "ms"),
}
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
LAYERS = ("dataset", "raster", "contour", "features", "svm", "knn", "model_io",
          "evaluate", "cli")
# end-to-end numbers of single commands; each applies to some workloads only
STAGE_UNITS = {"synth_img_per_s": "img/s", "ingest_img_per_s": "img/s",
               "eval_svm_s": "s", "eval_knn_s": "s", "accuracy_svm": "fraction",
               "accuracy_knn": "fraction", "train_svm_s": "s",
               "predict_svm_rows_per_s": "rows/s",
               "predict_knn_rows_per_s": "rows/s", "model_svm_mb": "MB"}


@dataclass
class CmdResult:
    label: str
    code: int
    wall_s: float         # wall clock, less the speed probe's share
    ref_s: float          # wall_s at the probe's reference CPU speed
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Cli:
    """Runs `python3 -m rwrl.cli` on this checkout's sources, one process at a time.

    Commands start from `launcher.py`, a small process, so that their peak
    RSS is their own. A command gets as many CPUs as its `--jobs` asks for
    (one without the flag), pinned so that the speed probe can sample the
    CPUs it runs on; single-CPU commands take turns on the CPUs this process
    may use. `close` ends the launcher.
    """

    def __init__(self, log_dir: Path):
        self.log_dir = log_dir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0
        # unbuffered, so that select() sees every reply line
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, bufsize=0)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def _cpus_for(self, argv: list[str]) -> list[int]:
        jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
        self.turn += 1
        return [self.cpus[(self.turn + i) % len(self.cpus)]
                for i in range(min(jobs, len(self.cpus)))]

    def _request(self, message: dict) -> None:
        self.launcher.stdin.write(json.dumps(message).encode() + b"\n")
        self.launcher.stdin.flush()

    def _reply(self) -> dict:
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the command launcher ended")
        return json.loads(line)

    def run(self, label: str, argv: list[str]) -> CmdResult:
        self.log_dir.mkdir(parents=True, exist_ok=True)
        out_path, err_path = self.log_dir / "stdout", self.log_dir / "stderr"
        cpus = self._cpus_for(argv)
        loops, during = [], 0.0

        def probe() -> float:
            loop_s, spent = speed.sample(cpus[len(loops) % len(cpus)])
            loops.append(loop_s)
            return spent

        probe()
        self._request({"argv": [sys.executable, "-m", "rwrl.cli"] + argv,
                       "cpus": cpus, "cwd": str(ROOT), "env": self.env,
                       "stdout": str(out_path), "stderr": str(err_path)})
        pid, done = self._reply()["pid"], None
        try:
            while not select.select([self.launcher.stdout], [], [],
                                    speed.INTERVAL_S)[0]:
                during += probe()
            done = self._reply()
        finally:
            if done is None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                self._reply()
        probe()
        os.sched_setaffinity(0, self.cpus)
        # the probe delayed the command by about its time over the CPUs
        busy = done["wall_s"] - during / len(cpus)
        return CmdResult(label, done["code"], busy,
                         speed.reference_seconds(busy, loops), done["cpu_s"],
                         done["rss_kb"] / 1024.0,
                         out_path.read_text(errors="replace"),
                         err_path.read_text(errors="replace"))

    @staticmethod
    def check(result: CmdResult) -> CmdResult:
        if result.code != 0:
            raise CheckFailed(f"{result.label}: exit code {result.code}: "
                              f"{result.stderr.strip()[-500:]}")
        return result


class Report:
    """Metrics of one run with unit and sample count, and free-form notes."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.notes: list[str] = []

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (float(value), unit, samples)

    def lines(self) -> list[str]:
        return ([f"  {name:34s} {value:14.6g} {unit:9s} n={n}"
                 for name, (value, unit, n) in self.metrics.items()]
                + [f"  {note}" for note in self.notes])


def run_steps(cli: Cli, steps, acct: Accounting) -> dict[str, CmdResult]:
    """Run a workload's command sequence once and check each command's output."""
    results = {}
    for step in steps:
        result = cli.run(step.label, step.argv)
        acct.command(result.code, step.images, result.stderr)
        cli.check(result)
        skips = parse_skips(result.stderr)
        if skips:
            raise CheckFailed(f"{step.label}: skipped valid images {dict(skips)}")
        done = parse_count(step.label.split("-")[0], result.stdout)
        if done != step.expect:
            raise CheckFailed(f"{step.label}: {done} items, expected {step.expect}")
        results[step.label] = result
    return results


def artifact_digests(wl, rep: Path) -> dict[str, str]:
    return {name: tree_digest(rep / name) for name in wl.artifacts}


def compare_artifacts(expected: dict, actual: dict, what: str) -> None:
    changed = sorted(k for k in expected if expected[k] != actual.get(k))
    if changed:
        raise CheckFailed(f"{what}: {changed}")


def check_inputs(wl, work: Path, rep: Path, seed: int, report: Report) -> None:
    digest = inputs_digest(wl.inputs(work, rep))
    known = check_digest(DIGESTS, wl.name, seed, digest)
    report.notes.append(f"inputs sha256 {digest} "
                        f"({'matches the record' if known else 'not recorded'})")


def untraced(wl, cli: Cli, work: Path, seed: int, seconds: float,
             report: Report, acct: Accounting) -> None:
    def start_up() -> CmdResult:
        return cli.check(cli.run("setup", ["--help"]))

    wl.prepare(cli, work, seed)
    reps: list[dict[str, CmdResult]] = []
    setup: list[CmdResult] = []
    first = work / "rep0"
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        setup.append(start_up())     # spread over the run, like the repetitions
        rep = work / f"rep{len(reps)}"
        rep.mkdir(parents=True)
        reps.append(run_steps(cli, wl.steps(work, rep, seed), acct))
        if rep == first:
            check_inputs(wl, work, rep, seed, report)
            wl.reference_check(work, rep, seed, reps[0])
            expected = artifact_digests(wl, rep)
        else:
            compare_artifacts(expected, artifact_digests(wl, rep),
                              "artifacts differ between repetitions")
            shutil.rmtree(rep)
    setup += [start_up() for _ in range(SETUP_SAMPLES - len(setup))]
    n = len(reps)

    def median_of(field: str) -> float:
        return statistics.median(sum(getattr(r, field) for r in rep.values())
                                 for rep in reps)

    walls = [sum(r.ref_s for r in rep.values()) for rep in reps]
    report.add("setup_s", statistics.median(r.ref_s for r in setup), "s",
               len(setup))
    report.add("wall_s", statistics.median(walls), "s", n)
    report.add("setup_raw_s", statistics.median(r.wall_s for r in setup), "s",
               len(setup))
    report.add("wall_raw_s", median_of("wall_s"), "s", n)
    report.add("cpu_s", median_of("cpu_s"), "s", n)
    report.add("peak_rss_mb", max(r.rss_mb for rep in reps for r in rep.values()),
               "MB", sum(len(rep) for rep in reps))
    for name, (value, unit) in wl.stage_metrics(reps, first).items():
        report.add(name, value, unit, n)
    report.add("failed_share", acct.failed_share, "fraction", acct.attempted)
    report.notes.append("wall_s per repetition: "
                        + " ".join(f"{w:.3f}" for w in walls))


def traced_run(wl, cli: Cli, work: Path, seed: int, report: Report,
               acct: Accounting) -> None:
    wl.prepare(cli, work, seed)
    rep = work / "cli"
    rep.mkdir(parents=True)
    results = run_steps(cli, wl.steps(work, rep, seed), acct)
    check_inputs(wl, work, rep, seed, report)
    cli_wall = sum(r.wall_s for r in results.values())

    tr = Tracer()
    out = work / "traced"
    start = time.perf_counter()
    with traced.kernel_spans(tr):
        wl.replay(tr, work, out, seed)
    traced_wall = time.perf_counter() - start
    (HERE / "_traces").mkdir(exist_ok=True)
    tr.write_jsonl(HERE / "_traces" / f"{wl.name}-{seed}.jsonl")
    compare_artifacts(artifact_digests(wl, rep), artifact_digests(wl, out),
                      "the traced run wrote different artifacts")

    acct.items(tr.counters.get("cli.images", 0),
               sum(v for k, v in tr.counters.items()
                   if k.startswith("cli.skipped_images.")))
    table = layer_table(tr.spans)
    for metric, (span, stat, unit) in SPAN_METRICS.items():
        row = table.get(span)
        value = row[f"{stat}_s"] * SCALE[unit] if row else 0.0
        report.add(metric, value, unit, row["count"] if row else 0)
    report.add("svm.gram_s", busy_under(tr.spans, "svm.kernel_matrix",
                                        "svm.svm_train"), "s",
               table.get("svm.kernel_matrix", {"count": 0})["count"])
    for name in ("svm.sv_rows", "svm.sv_unique_rows"):
        report.add(name, tr.counters.get(name, 0), "count")
    for classifier in ("svm", "knn"):
        rows = tr.counters.get(f"{classifier}.predicted_rows", 0)
        row = table.get(f"{classifier}.{classifier}_predict_batch")
        report.add(f"{classifier}.predict_us_per_row",
                   row["busy_s"] / rows * 1e6 if rows else 0.0, "us", rows)
    for layer in LAYERS:
        report.add(f"{layer}.self_s", sum(
            row["self_s"] for name, row in table.items()
            if name.split(".")[0] == layer), "s")
    report.add("cli.skipped_images", sum(acct.skipped.values()), "count")
    report.add("bench.trace_overhead_s", traced_wall - cli_wall, "s")
    stage = wl.stage_metrics([results], rep)
    for name, unit in STAGE_UNITS.items():
        value, _ = stage.get(name, (0.0, unit))
        report.add(f"cli.{name}", value, unit, int(name in stage))
    report.add("cli.failed_share", acct.failed_share, "fraction", acct.attempted)

    report.notes.append(f"untraced CLI wall {cli_wall:.3f} s, traced in-process "
                        f"wall {traced_wall:.3f} s")
    for name, row in sorted(table.items()):
        report.notes.append(
            f"span {name:28s} n={row['count']:<6d} "
            f"median={row['median_s'] * 1e6:10.1f}us "
            f"p99={row['p99_s'] * 1e6:10.1f}us busy={row['busy_s']:8.3f}s "
            f"self={row['self_s']:8.3f}s")
    for name, value in sorted(acct.skipped.items()):
        report.notes.append(f"cli.skipped_images.{name} = {value}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]
    work = HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    report, acct = Report(), Accounting()
    correct = True
    cli = Cli(work / "logs")
    try:
        (traced_run(wl, cli, work, seed, report, acct) if trace
         else untraced(wl, cli, work, seed, seconds, report, acct))
    except CheckFailed as exc:
        print(f"check failed: {name}: {exc}", file=sys.stderr)
        correct = False
    finally:
        cli.close()
        shutil.rmtree(work, ignore_errors=True)
    correct = correct and acct.failed == 0
    print(f"{name} seed={seed} trace={int(trace)} correct={correct}")
    for line in report.lines():
        print(line)
    missing = [m for m in EXPORTED[trace] if m not in report.metrics]
    if correct and missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": max(acct.attempted, 1),
        "failed": acct.failed,
        "metrics": {m: {"value": report.metrics[m][0], "unit": report.metrics[m][1]}
                    for m in EXPORTED[trace] if m in report.metrics},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rwrl pipeline benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    try:
        for name in names:
            status = max(status, run_workload(name, args.seed, args.seconds,
                                              bool(args.trace)))
    except DigestMismatch as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
