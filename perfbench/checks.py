"""Reading the CLI's output, counting failures, and input digests.

Everything here is pure so that the self-check can exercise it without
running the program.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from pathlib import Path

_ACCURACY = re.compile(r"^accuracy (\d+(?:\.\d+)?) \((\d+) samples\)", re.M)
_SKIPPED = re.compile(r"^warning: skipped .*?: ([A-Za-z_]\w*): ", re.M)
_COUNTS = {
    "synth": re.compile(r"^generated (\d+) images", re.M),
    "preprocess": re.compile(r"^preprocessed (\d+)/(\d+) images", re.M),
    "extract": re.compile(r"^wrote (\d+) feature rows", re.M),
    "train": re.compile(r"^trained \w+ on (\d+) samples", re.M),
    "predict": _ACCURACY,
    "eval": _ACCURACY,
}


class CheckFailed(Exception):
    """An output of the program is not what the workload requires."""


class DigestMismatch(Exception):
    """Generated inputs differ from the ones recorded for this workload and seed."""


def parse_accuracy(stdout: str) -> tuple[float, int]:
    """(accuracy, samples) from the `accuracy 0.9050 (200 samples)` line."""
    match = _ACCURACY.search(stdout)
    if not match:
        raise CheckFailed(f"no accuracy line in {stdout!r}")
    return float(match.group(1)), int(match.group(2))


def parse_count(command: str, stdout: str) -> int:
    """Items a subcommand reports as done; preprocess must report n/n."""
    match = _COUNTS[command].search(stdout)
    if not match:
        raise CheckFailed(f"{command}: no summary line in {stdout!r}")
    if command == "preprocess" and match.group(1) != match.group(2):
        raise CheckFailed(f"preprocess kept {match.group(1)}/{match.group(2)}")
    return int(match.group(2) if command in ("eval", "predict")
               else match.group(1))


def parse_skips(stderr: str) -> Counter:
    """Skipped images keyed by error class, from `warning: skipped` lines."""
    return Counter(_SKIPPED.findall(stderr))


class Accounting:
    """Operations attempted and failed: commands and the images they process.

    A failure is a non-zero exit or a valid image that was skipped. `skipped`
    counts the CLI's skip warnings by error class.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.skipped: Counter = Counter()

    def command(self, exit_code: int, images: int = 0, stderr: str = "") -> None:
        skips = parse_skips(stderr)
        self.attempted += 1 + images
        self.failed += int(exit_code != 0) + sum(skips.values())
        self.skipped.update(skips)

    def items(self, n: int, failed: int) -> None:
        self.attempted += n
        self.failed += failed

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def tree_digest(path: Path) -> str:
    """SHA-256 over the relative names and bytes of a file or directory tree."""
    h = hashlib.sha256()
    path = Path(path)
    files = [path] if path.is_file() else sorted(
        p for p in path.rglob("*") if p.is_file())
    for f in files:
        name = f.name if f == path else f.relative_to(path).as_posix()
        data = f.read_bytes()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def inputs_digest(paths: list[Path]) -> str:
    """One SHA-256 over the tree digests of several inputs."""
    return hashlib.sha256(" ".join(tree_digest(p) for p in paths).encode()
                          ).hexdigest()


def check_digest(recorded: dict, workload: str, seed: int, digest: str) -> bool:
    """True when a digest is recorded for (workload, seed) and matches.

    False when none is recorded. Raises DigestMismatch when the recorded one
    differs: timings of other inputs are not comparable with the baseline.
    """
    expected = recorded.get(workload, {}).get(str(seed))
    if expected is None:
        return False
    if expected != digest:
        raise DigestMismatch(
            f"{workload} seed {seed}: inputs digest {digest[:16]} differs from "
            f"the recorded {expected[:16]}; the runs are not comparable")
    return True
