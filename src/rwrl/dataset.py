"""Dataset discovery and a deterministic synthetic digit corpus.

The generator renders ten fixed polyline glyph templates (one per digit
class) onto a 64x64 grayscale canvas, dark ink on white. Each instance is
perturbed by a seeded affine jitter (rotation within +/-10 degrees, scale
0.85-1.15, translation within +/-3 px) and drawn with a stroke thickness
between 2 and 4 px: a pixel is ink when its distance to a stroke segment is
at most thickness/2, which is tested only inside that segment's bounding box
(grown by thickness/2). The per-image random stream comes from (seed, class,
index), so generation is reproducible under any scheduling.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MissingClassDirError, NoImagesError
from .raster import encode_pgm

CLASS_LABELS = tuple(range(10))
IMAGE_SUFFIXES = (".pgm", ".bmp")
CANVAS = 64
_CENTER = (CANVAS - 1) / 2.0


def parallel_map(fn, items, jobs: int) -> list:
    """`[fn(item) for item in items]`, spread over worker processes.

    At most `jobs` workers start, and never more than there are items or
    logical CPUs.
    """
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here so that commands which never fan out skip loading
    # multiprocessing (about 14 ms of start-up)
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(items) // (workers * 4))
        return list(pool.map(fn, items, chunksize=chunk))


@dataclass
class Manifest:
    """Ordered (path, label) entries of a digit image tree."""

    entries: list[tuple[Path, int]]

    def __len__(self) -> int:
        return len(self.entries)


def scan_dataset(root) -> Manifest:
    """Collect images from subdirectories `0`..`9`, sorted by (label, name)."""
    root = Path(root)
    entries: list[tuple[Path, int]] = []
    for label in CLASS_LABELS:
        class_dir = root / str(label)
        if not class_dir.is_dir():
            raise MissingClassDirError(f"missing class directory {class_dir}")
        files = sorted(p for p in class_dir.iterdir()
                       if p.suffix.lower() in IMAGE_SUFFIXES)
        entries.extend((p, label) for p in files)
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


def _jitter(strokes: list[np.ndarray], rng: np.random.Generator
            ) -> tuple[list[np.ndarray], float]:
    angle = math.radians(rng.uniform(-10.0, 10.0))
    scale = rng.uniform(0.85, 1.15)
    shift = rng.uniform(-3.0, 3.0, size=2)
    thickness = rng.uniform(2.0, 4.0)
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    return [(pts - _CENTER) @ (scale * rot.T) + _CENTER + shift
            for pts in strokes], thickness


def render_glyph(label: int, rng: np.random.Generator) -> np.ndarray:
    """One jittered 64x64 grayscale instance: ink 0 on background 255."""
    strokes, thickness = _jitter(glyph_template(label), rng)
    ink = np.zeros((CANVAS, CANVAS), dtype=bool)
    limit = thickness / 2.0
    for pts in strokes:
        boxes = np.hstack([np.floor(np.minimum(pts[:-1], pts[1:]) - limit),
                           np.ceil(np.maximum(pts[:-1], pts[1:]) + limit) + 1])
        for p0, p1, (r0, c0, r1, c1) in zip(
                pts[:-1], pts[1:], np.clip(boxes, 0, CANVAS).astype(int).tolist()):
            seg = p1 - p0
            norm2 = float(seg @ seg)
            dr, dc = np.arange(r0, r1)[:, None] - p0[0], np.arange(c0, c1) - p0[1]
            if norm2 > 0:
                t = np.clip((dr * seg[0] + dc * seg[1]) / norm2, 0.0, 1.0)
                dr, dc = dr - t * seg[0], dc - t * seg[1]
            ink[r0:r1, c0:c1] |= np.sqrt(dr * dr + dc * dc) <= limit
    return np.where(ink, 0, 255).astype(np.uint8)


def _render_task(task) -> None:
    seed, label, index, path = task
    rng = np.random.default_rng([seed, label, index])
    Path(path).write_bytes(encode_pgm(render_glyph(label, rng)))


def synth_generate(seed: int, per_class: int, out_dir, jobs: int = 1) -> Manifest:
    """Render `per_class` images per digit class under out_dir/<label>/.

    Each image draws from its own (seed, class, index) stream, so the output
    bytes do not depend on worker scheduling.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    out_dir = Path(out_dir)
    tasks = []
    entries: list[tuple[Path, int]] = []
    for label in CLASS_LABELS:
        class_dir = out_dir / str(label)
        class_dir.mkdir(parents=True, exist_ok=True)
        for index in range(per_class):
            path = class_dir / f"{index:04d}.pgm"
            tasks.append((seed & 0xFFFFFFFF, label, index, str(path)))
            entries.append((path, label))
    parallel_map(_render_task, tasks, jobs)
    manifest = Manifest(entries)
    write_manifest_csv(out_dir / "manifest.csv", manifest, relative_to=out_dir)
    return manifest


def write_manifest_csv(path, manifest: Manifest, relative_to=None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("path", "label"))
        for file, label in manifest.entries:
            name = file.relative_to(relative_to) if relative_to else file
            writer.writerow((name.as_posix(), label))
