"""Starts the benchmark's commands from a small process and reports their usage.

    python3 perfbench/launcher.py     (run.py starts it; one JSON request a line)

A child's peak RSS, as wait4 reports it, is at least the RSS of the process
that forked it, and the benchmark process holds numpy and generated inputs.
Commands started from this process, which imports nothing heavy, report
their own peak instead. For each request {"argv", "cpus", "cwd", "env",
"stdout", "stderr"} it writes {"pid"} once the command started and then
{"code", "wall_s", "cpu_s", "rss_kb"} once it ended. It exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        cpus = set(req["cpus"])
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                    cwd=req["cwd"], env=req["env"],
                                    preexec_fn=lambda: os.sched_setaffinity(0, cpus))
            reply({"pid": proc.pid})
            # the usage includes that of the pool workers the command waited for
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        reply({"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "rss_kb": usage.ru_maxrss})


if __name__ == "__main__":
    main()
