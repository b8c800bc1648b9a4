import os
import sys
from collections import Counter

import numpy as np
import pytest

from rwrl import dataset
from rwrl.dataset import (
    Manifest,
    glyph_template,
    parallel_map,
    render_glyph,
    scan_dataset,
    synth_generate,
)
from rwrl.errors import MissingClassDirError, NoImagesError
from rwrl.features import extract_contour, extract_features
from rwrl.knn import knn_predict_batch, knn_train
from rwrl.raster import binarize, decode_image, normalize_digit, otsu_threshold

from oracle_utils import full_canvas_render_glyph


def pipeline_features(path):
    gray = decode_image(path.read_bytes())
    bits = binarize(gray, otsu_threshold(gray))
    return extract_features(extract_contour(normalize_digit(bits)))


class _TwoArgError(Exception):
    def __init__(self, a, b):   # pickled as (a,): it dumps but cannot load
        super().__init__(a)


class TestScan:
    def test_counts_and_order(self, tmp_path):
        for label in range(10):
            d = tmp_path / str(label)
            d.mkdir()
            for i in range(5):
                (d / f"{i}.pgm").write_bytes(b"P5\n1 1\n255\n\x00")
        manifest = scan_dataset(tmp_path)
        assert len(manifest) == 50
        labels = np.array([label for _, label in manifest.entries])
        assert Counter(labels.tolist()) == {c: 5 for c in range(10)}
        assert (np.diff(labels) >= 0).all()  # sorted by label

    def test_missing_class_dir(self, tmp_path):
        for label in range(10):
            if label != 7:
                (tmp_path / str(label)).mkdir()
        with pytest.raises(MissingClassDirError):
            scan_dataset(tmp_path)

    def test_rescan_identical(self, tmp_path):
        synth_generate(3, 2, tmp_path)
        a = scan_dataset(tmp_path)
        b = scan_dataset(tmp_path)
        assert a.entries == b.entries

    def test_no_images(self, tmp_path):
        for label in range(10):
            (tmp_path / str(label)).mkdir()
        with pytest.raises(NoImagesError):
            scan_dataset(tmp_path)


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        m1 = synth_generate(11, 3, tmp_path / "a")
        m2 = synth_generate(11, 3, tmp_path / "b")
        assert len(m1) == len(m2) == 30
        for (p1, l1), (p2, l2) in zip(m1.entries, m2.entries):
            assert l1 == l2
            assert p1.read_bytes() == p2.read_bytes()

    def test_per_class_one(self, tmp_path):
        manifest = synth_generate(0, 1, tmp_path)
        assert len(manifest) == 10
        assert Counter(label for _, label in manifest.entries) == {
            c: 1 for c in range(10)}

    def test_parallel_generation_identical(self, tmp_path):
        serial = synth_generate(7, 4, tmp_path / "serial", jobs=1)
        parallel = synth_generate(7, 4, tmp_path / "parallel", jobs=2)
        for (p1, _), (p2, _) in zip(serial.entries, parallel.entries):
            assert p1.read_bytes() == p2.read_bytes()

    # cpus: os.cpu_count(); affinity: CPUs the process may run on, None
    # where the platform has no sched_getaffinity
    @pytest.mark.parametrize("jobs, n_items, cpus, affinity, workers", [
        (64, 10, 3, None, 3),
        (64, 2, 8, None, 2),
        (4, 100, 8, None, 4),
        (2, 5, 1, None, None),
        (8, 1, 8, None, None),
        (None, 10, None, None, None),
        (None, 10, 8, None, 8),
        (64, 10, 8, 3, 3),
        (None, 10, 2, 1, None),
    ])
    def test_parallel_map_worker_bound(self, monkeypatch, jobs, n_items, cpus,
                                       affinity, workers):
        forks = self._count_forks(monkeypatch)
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(affinity)), raising=False)
        items = list(range(n_items))
        assert parallel_map(str, items, jobs) == [str(i) for i in items]
        assert len(forks) == (workers or 0)

    def test_parallel_map_forks_only_on_linux(self, monkeypatch):
        # macOS cannot fork a numpy process safely, and Windows has no fork
        forks = self._count_forks(monkeypatch)
        monkeypatch.setattr(sys, "platform", "darwin")
        monkeypatch.setattr(dataset, "usable_cpus", lambda: 4)
        assert parallel_map(str, range(10), 4) == [str(i) for i in range(10)]
        assert forks == []

    @staticmethod
    def _count_forks(monkeypatch) -> list:
        """The pids os.fork returns in this process from now on."""
        forks, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return forks

    @pytest.mark.skipif(sys.platform != "linux", reason="forks only on Linux")
    def test_parallel_map_result_that_cannot_load(self, monkeypatch):
        monkeypatch.setattr(dataset, "usable_cpus", lambda: 2)
        with pytest.raises(ChildProcessError, match="^worker 0 sent item 2 "
                                                    "unreadably: TypeError"):
            parallel_map(lambda i: _TwoArgError(i, i) if i == 2 else i,
                         range(8), 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(sys.platform != "linux", reason="forks only on Linux")
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_parallel_map_equals_serial_map(self, monkeypatch, jobs):
        monkeypatch.setattr(dataset, "usable_cpus", lambda: 3)
        forks = self._count_forks(monkeypatch)
        for n in range(10):
            items = [(i, "x" * i) for i in range(n)]
            expected = [(s, i * i) for i, s in items]
            assert parallel_map(lambda t: (t[1], t[0] ** 2), items,
                                jobs) == expected
        assert len(forks) == sum(min(jobs, n) for n in range(2, 10))
        with pytest.raises(ChildProcessError):   # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_classes_pairwise_distinct(self, tmp_path):
        manifest = synth_generate(5, 1, tmp_path)
        images = [decode_image(p.read_bytes()) for p, _ in manifest.entries]
        for a in range(10):
            for b in range(a + 1, 10):
                assert not np.array_equal(images[a], images[b])

    def test_manifest_csv_written(self, tmp_path):
        synth_generate(0, 2, tmp_path)
        lines = (tmp_path / "manifest.csv").read_text().splitlines()
        assert lines[0] == "path,label"
        assert len(lines) == 21
        assert lines[1].startswith("0/")

    def test_every_template_defined(self):
        for label in range(10):
            strokes = glyph_template(label)
            assert strokes and all(len(s) >= 2 for s in strokes)

    def test_no_template_past_nine(self):
        with pytest.raises(ValueError):
            glyph_template(10)

    def test_render_has_ink_and_margin(self):
        for label in range(10):
            img = render_glyph(label, np.random.default_rng([1, label, 0]))
            assert img.shape == (64, 64)
            assert (img == 0).any() and (img == 255).any()

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_render_matches_full_canvas_reference(self, seed):
        for label in range(10):
            for index in range(0, 600, 12):
                stream = [seed, label, index]
                got = render_glyph(label, np.random.default_rng(stream))
                want = full_canvas_render_glyph(label,
                                                np.random.default_rng(stream))
                assert got.tobytes() == want.tobytes(), stream

    @pytest.mark.parametrize("thickness", [2.0, 3.37, 4.0])
    def test_render_clips_segment_boxes_at_canvas_edge(self, monkeypatch,
                                                       thickness):
        strokes = [
            np.array([[-5.3, 10.2], [20.7, -4.1], [70.2, 30.5]]),  # top, left, bottom
            np.array([[30.0, 60.4], [35.5, 68.9]]),  # out through the right edge
            np.array([[12.0, 40.0], [12.0, 40.0]]),  # zero length: a round dot
            np.array([[-1.0, 63.0], [-1.0, 63.0]]),  # zero length, over a corner
            np.array([[-30.0, -30.0], [-20.0, -25.0]]),  # off canvas, above left
            np.array([[90.0, 80.0], [100.0, 95.0]]),  # off canvas, below right
        ]
        monkeypatch.setattr(dataset, "_jitter",
                            lambda _strokes, _rng: (strokes, thickness))
        got = render_glyph(0, None)
        assert got.tobytes() == full_canvas_render_glyph(0, None).tobytes()
        assert got[12, 40] == 0 and got[0, 63] == 0
        monkeypatch.setattr(dataset, "_jitter",
                            lambda _strokes, _rng: (strokes[4:], thickness))
        assert (render_glyph(0, None) == 255).all()

    def test_pipeline_survives_all_classes(self, tmp_path):
        manifest = synth_generate(2, 3, tmp_path)
        for path, _ in manifest.entries:
            features = pipeline_features(path)
            assert features.shape == (196,)
            assert features.any()

    def test_nearest_neighbor_separability(self, tmp_path):
        # the classes must stay distinguishable under jitter: train 50/class,
        # score a fresh 20/class draw with k=1
        manifest = synth_generate(23, 70, tmp_path)
        feats = {}
        for path, label in manifest.entries:
            feats.setdefault(label, []).append(pipeline_features(path))
        train_X = np.array([row for c in range(10) for row in feats[c][:50]])
        train_y = np.repeat(np.arange(10), 50)
        test_X = np.array([row for c in range(10) for row in feats[c][50:]])
        test_y = np.repeat(np.arange(10), 20)
        model = knn_train(train_X, train_y, k=1)
        accuracy = (knn_predict_batch(model, test_X) == test_y).mean()
        assert accuracy >= 0.95

    def test_bad_per_class(self, tmp_path):
        with pytest.raises(ValueError):
            synth_generate(0, 0, tmp_path)

    def test_seed_beyond_32_bits_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            synth_generate(2 ** 32, 1, tmp_path)
        assert not any(tmp_path.iterdir())
