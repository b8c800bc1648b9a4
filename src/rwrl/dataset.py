"""Dataset discovery and a deterministic synthetic digit corpus.

The generator renders ten fixed polyline glyph templates (one per digit
class) onto a 64x64 grayscale canvas, dark ink on white. Each instance is
perturbed by a seeded affine jitter (rotation within +/-10 degrees, scale
0.85-1.15, translation within +/-3 px) and drawn with a stroke thickness
between 2 and 4 px: a pixel is ink when its distance to a stroke segment is
at most thickness/2, which is tested only near that segment: in a box that
holds its bounding box grown by thickness/2, one box size per stroke, so
that all segments of a stroke are tested in one array pass. The per-image
random stream comes from (seed, class, index), so generation is
reproducible under any scheduling.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MissingClassDirError, NoImagesError
from .raster import encode_pgm

CLASS_LABELS = tuple(range(10))
IMAGE_SUFFIXES = (".pgm", ".bmp")
CANVAS = 64
_CENTER = (CANVAS - 1) / 2.0


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else all logical CPUs, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn, items, jobs: int | None) -> list:
    """`[fn(item) for item in items]`, spread over forked worker processes.

    At most `jobs` workers start (one per usable CPU if None), and never
    more than there are items or usable CPUs; off Linux none starts, and
    the items are mapped in this process. Worker `w` maps items w,
    w + workers, ... and sends each result, or the exception `fn` raised,
    down its own pipe; this process maps nothing and reads the results in
    item order, re-raising such an exception. A worker that ends early, or
    a result or exception that cannot cross the pipe, raises
    ChildProcessError. No worker outlives the call.
    """
    items = list(items)
    # forking a numpy process is unsafe on macOS, and Windows has no fork
    cpus = usable_cpus() if sys.platform == "linux" else 1
    workers = min(cpus if jobs is None else jobs, len(items), cpus)
    if workers <= 1:
        return [fn(item) for item in items]
    import pickle
    import signal
    readers, pids, done = [], [], False
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items, w, workers, readers, write_fd)
            finally:
                os.close(write_fd)   # the worker's end: _serve never returns
            pids.append(pid)
        results = []
        for i in range(len(items)):
            w = i % workers
            try:
                sent, value = pickle.load(readers[w])
            except EOFError:
                code = os.waitstatus_to_exitcode(os.waitpid(pids[w], 0)[1])
                pids[w] = None
                how = (f"killed by {signal.Signals(-code).name}" if code < 0
                       else f"exit status {code}")
                raise ChildProcessError(
                    f"worker {w} ended before item {i}: {how}") from None
            except Exception as exc:
                raise ChildProcessError(f"worker {w} sent item {i} unreadably: "
                                        f"{type(exc).__name__}: {exc}") from exc
            if not sent:
                raise value
            results.append(value)
        done = True
        return results
    finally:
        # on an abort each worker is killed: one still mapping would
        # otherwise run on until its next write failed with EPIPE
        for reader in readers:
            reader.close()
        for pid in filter(None, pids):
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn, items, w: int, workers: int, readers, write_fd: int) -> None:
    """Worker `w` of parallel_map: sends `(True, result)`, or `(False,
    exception)` and then stops, per item as one pickle, and exits without
    returning."""
    import pickle
    code = 1
    try:
        for reader in readers:   # this pipe's and the earlier workers'
            reader.close()
        with open(write_fd, "wb") as out:
            for i in range(w, len(items), workers):
                try:
                    message = (True, fn(items[i]))
                except Exception as exc:
                    message = (False, exc)
                try:
                    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    what = ("result" if message[0]
                            else f"{type(message[1]).__name__} raised")
                    message = (False, ChildProcessError(
                        f"worker {w} cannot send the {what} for item {i}: "
                        f"{type(exc).__name__}: {exc}"))
                    data = pickle.dumps(message)
                out.write(data)
                out.flush()
                if not message[0]:
                    break
        code = 0
    finally:
        os._exit(code)


def image_files(paths) -> list[Path]:
    """The sorted regular files among `paths` with an image suffix."""
    return sorted(p for p in paths
                  if p.suffix.lower() in IMAGE_SUFFIXES and p.is_file())


@dataclass
class Manifest:
    """Ordered (path, label) entries of a digit image tree."""

    entries: list[tuple[Path, int]]

    def __len__(self) -> int:
        return len(self.entries)


def scan_dataset(root) -> Manifest:
    """Image files of subdirectories `0`..`9`, sorted by (label, name)."""
    root = Path(root)
    entries: list[tuple[Path, int]] = []
    for label in CLASS_LABELS:
        class_dir = root / str(label)
        if not class_dir.is_dir():
            raise MissingClassDirError(f"missing class directory {class_dir}")
        entries.extend((p, label) for p in image_files(class_dir.iterdir()))
    if not entries:
        raise NoImagesError(f"no image files under {root}")
    return Manifest(entries)


# ---------------------------------------------------------------------------
# glyph templates
# ---------------------------------------------------------------------------

def _arc(cr, cc, rad_r, rad_c, deg0, deg1, n=14) -> np.ndarray:
    t = np.radians(np.linspace(deg0, deg1, n))
    return np.stack([cr + rad_r * np.sin(t), cc + rad_c * np.cos(t)], axis=1)


def _line(*points) -> np.ndarray:
    return np.array(points, dtype=np.float64)


def glyph_template(label: int) -> list[np.ndarray]:
    """Polyline strokes of the class template, as (row, col) point lists."""
    if label == 0:
        return [_arc(32, 32, 15, 11, 0, 360, 22)]
    if label == 1:
        return [_arc(22, 32, 8, 9, 180, 360, 10), _line((22, 41), (50, 38))]
    if label == 2:
        return [_line((18, 20), (18, 44), (44, 20), (44, 44))]
    if label == 3:
        return [_arc(22, 30, 8, 10, -90, 90, 10),
                _arc(40, 30, 9, 11, -90, 90, 10)]
    if label == 4:
        return [_line((16, 38), (34, 16), (34, 46)), _line((16, 38), (50, 38))]
    if label == 5:
        return [_line((16, 22), (16, 42)), _line((16, 22), (32, 22)),
                _arc(38, 30, 10, 12, -90, 120, 12)]
    if label == 6:
        return [_arc(30, 34, 16, 14, 180, 270, 10),
                _arc(40, 32, 9, 9, 0, 360, 16)]
    if label == 7:
        return [_line((16, 20), (16, 44)), _line((16, 44), (48, 26))]
    if label == 8:
        return [_arc(23, 32, 8, 9, 0, 360, 16),
                _arc(41, 32, 9, 11, 0, 360, 16)]
    if label == 9:
        return [_arc(23, 32, 8, 9, 0, 360, 16), _line((23, 41), (50, 38))]
    raise ValueError(f"no template for label {label}")


def _jitter(strokes: list[np.ndarray], rng) -> tuple[list[np.ndarray], float]:
    angle = math.radians(rng.uniform(-10.0, 10.0))
    scale = rng.uniform(0.85, 1.15)
    shift = np.array([rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)])
    thickness = rng.uniform(2.0, 4.0)
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    return [(pts - _CENTER) @ (scale * rot.T) + _CENTER + shift
            for pts in strokes], thickness


def render_glyph(label: int, rng) -> np.ndarray:
    """One jittered 64x64 grayscale instance: ink 0 on background 255.

    `rng` is any object with a `uniform(low, high)` draw, such as a
    `pcg.Stream` or a numpy `Generator`; it is called five times."""
    strokes, thickness = _jitter(glyph_template(label), rng)
    ink = np.zeros((CANVAS, CANVAS), dtype=bool)
    limit = thickness / 2.0
    for pts in strokes:
        seg = np.diff(pts, axis=0)
        # `seg @ seg` per segment: BLAS may fuse it, unlike s0 * s0 + s1 * s1
        norm2 = seg[:, None] @ seg[:, :, None]
        p0, seg = pts[:-1, :, None, None], seg[:, :, None, None]
        lo = np.clip(np.floor(np.minimum(pts[:-1], pts[1:]) - limit), 0, CANVAS)
        hi = np.clip(np.ceil(np.maximum(pts[:-1], pts[1:]) + limit) + 1, 0, CANVAS)
        # each segment scans a box of the stroke's largest size, on the
        # canvas; no pixel outside its own box is within `limit` of it
        size = (hi - lo).max(axis=0)
        lo = np.minimum(lo, CANVAS - size)
        rows = lo[:, 0, None] + np.arange(size[0])  # float64: no int casts
        cols = lo[:, 1, None] + np.arange(size[1])
        dr, dc = rows[:, :, None] - p0[:, 0], cols[:, None, :] - p0[:, 1]
        t = np.clip((dr * seg[:, 0] + dc * seg[:, 1])
                    / np.where(norm2 > 0, norm2, 1.0), 0.0, 1.0)
        dr, dc = dr - t * seg[:, 0], dc - t * seg[:, 1]
        s, i, j = np.nonzero(np.sqrt(dr * dr + dc * dc) <= limit)
        ink[rows[s, i].astype(np.intp), cols[s, j].astype(np.intp)] = True
    return np.where(ink, 0, 255).astype(np.uint8)


def _render_task(task) -> None:
    from .pcg import Stream
    seed, label, index, path = task
    rng = Stream([seed, label, index])
    Path(path).write_bytes(encode_pgm(render_glyph(label, rng)))


def synth_generate(seed: int, per_class: int, out_dir,
                   jobs: int | None = 1) -> Manifest:
    """Render `per_class` images per digit class under out_dir/<label>/.

    Each image draws from its own (seed, class, index) stream, so the output
    bytes do not depend on worker scheduling.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if not 0 <= seed < 2 ** 32:
        raise ValueError("seed must be in 0..2**32-1")
    from . import pcg   # loaded before the workers fork, not in each one
    out_dir = Path(out_dir)
    tasks = []
    entries: list[tuple[Path, int]] = []
    for label in CLASS_LABELS:
        class_dir = out_dir / str(label)
        class_dir.mkdir(parents=True, exist_ok=True)
        for index in range(per_class):
            path = class_dir / f"{index:04d}.pgm"
            tasks.append((seed, label, index, str(path)))
            entries.append((path, label))
    parallel_map(_render_task, tasks, jobs)
    manifest = Manifest(entries)
    write_manifest_csv(out_dir / "manifest.csv", manifest, relative_to=out_dir)
    return manifest


def write_manifest_csv(path, manifest: Manifest, relative_to) -> None:
    """A `path,label` line per entry after the header, each ending in CRLF.
    It quotes nothing: `synth`'s paths are `<label>/<index>.pgm`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("path,label\r\n")
        fh.writelines(f"{file.relative_to(relative_to).as_posix()},{label}\r\n"
                      for file, label in manifest.entries)
