"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 --out spread.json [--record-digests]

Each run is `run.py --trace 0` with the run length from BENCHMARK.json. For
every workload and end-to-end metric this prints the median, the quartiles
and the spread (interquartile distance over the median) next to the metric's
bound, and writes them with all values to ``--out``. ``--record-digests``
adds each run's input digest to ``digests.json``, so that later runs of the
same seed are refused when their inputs differ.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
_DIGEST = re.compile(r"inputs sha256 ([0-9a-f]{64})")


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark run-to-run spread")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--out", required=True, help="summary JSON to write")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary, digests = {}, {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            digest = _DIGEST.search(proc.stdout)
            digests.setdefault(workload, {})[str(seed)] = digest.group(1)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            print(f"{workload:13s} {name:12s} median {s['median']:10.4f} "
                  f"spread {s['spread']:.4f} bound {bounds[name]}")
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    if args.record_digests:
        path = HERE / "digests.json"
        recorded = json.loads(path.read_text())
        for workload, by_seed in digests.items():
            recorded.setdefault(workload, {}).update(by_seed)
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
