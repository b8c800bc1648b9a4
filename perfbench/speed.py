"""CPU speed probe: times measured on a shared host, restated at a fixed speed.

The benchmark's vCPUs share physical cores with other tenants, and each one
switches between speeds, often 1.5x apart, every second or so, independently
of the other. A command's wall time therefore says as much about its
neighbours as about the program. While a command runs, the benchmark process
sleeps, wakes every `INTERVAL_S` on one of the command's CPUs and times a
fixed pure-Python loop there (best of three, about 1 ms in all). The speed of
a sample is `REFERENCE_LOOP_S` over the loop's time; a command's time at
reference speed is its wall time, less the probe's own share of the CPUs, times
the mean speed of the samples taken before, during and after it.

`REFERENCE_LOOP_S` is about the fastest the loop runs on the 2 vCPU Xeon host
the baseline was recorded on, so reference seconds there are close to wall
seconds on an uncontended core. Only figures from one host are comparable.
"""

from __future__ import annotations

import os
import time

INTERVAL_S = 0.02
REFERENCE_LOOP_S = 3e-4
_LOOP_N = 4000
_TRIES = 3


def _loop() -> int:
    total = 0
    for i in range(_LOOP_N):
        total += i * i % 7
    return total


def sample(cpu: int) -> tuple[float, float]:
    """Move this process to `cpu`; (best loop time, probe time spent) there."""
    os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    best = float("inf")
    for _ in range(_TRIES):
        t = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t)
    return best, time.perf_counter() - start


def reference_seconds(busy_s: float, loop_times: list[float]) -> float:
    """`busy_s` of wall time restated at reference speed."""
    return busy_s * sum(REFERENCE_LOOP_S / t for t in loop_times) / len(loop_times)
