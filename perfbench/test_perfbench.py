"""Self-check of the benchmark's own code; it runs in about a second.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import os

import numpy as np
import pytest

import rwrl
import scans
import speed
from checks import (Accounting, CheckFailed, DigestMismatch, check_digest,
                    inputs_digest, parse_accuracy, parse_count, parse_skips,
                    tree_digest)
from spans import Tracer, busy_under, layer_table, percentile, self_times


def test_parse_cli_summaries():
    assert parse_accuracy("accuracy 0.9050 (200 samples) -> r\n") == (0.905, 200)
    assert parse_count("synth", "generated 600 images -> raw\n") == 600
    assert parse_count("preprocess", "preprocessed 500/500 images -> n\n") == 500
    assert parse_count("extract", "wrote 498 feature rows -> f.txt\n") == 498
    assert parse_count("train", "trained svm on 500 samples -> m\n") == 500
    assert parse_count("eval", "accuracy 0.8000 (200 samples) -> r\n") == 200
    with pytest.raises(CheckFailed):
        parse_count("preprocess", "preprocessed 499/500 images -> n\n")
    with pytest.raises(CheckFailed):
        parse_accuracy("no summary\n")


def test_parse_skips_keys_by_error_class():
    stderr = ("warning: skipped raw/1/a.bmp: TruncatedDataError: expected 9\n"
              "warning: skipped raw/2/b.pgm: MalformedHeaderError: bad: x\n"
              "warning: skipped raw/3/c.pgm: TruncatedDataError: short\n"
              "warning: no input images under x\n")
    assert parse_skips(stderr) == {"TruncatedDataError": 2,
                                   "MalformedHeaderError": 1}


def test_failure_accounting():
    acct = Accounting()
    acct.command(0, images=10)
    acct.command(2, images=5, stderr="warning: skipped p: EmptyImageError: x\n")
    acct.items(4, 1)
    assert (acct.attempted, acct.failed) == (1 + 10 + 1 + 5 + 4, 1 + 1 + 1)
    assert acct.failed_share == pytest.approx(3 / 21)
    assert acct.skipped == {"EmptyImageError": 1}
    assert Accounting().failed_share == 0.0


def test_digest_refusal(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.pgm").write_bytes(b"P5 1 1 255 \x00")
    digest = inputs_digest([tmp_path / "a"])
    recorded = {"scan-eval": {"7": digest}}
    assert check_digest(recorded, "scan-eval", 7, digest) is True
    assert check_digest(recorded, "scan-eval", 8, digest) is False
    assert check_digest(recorded, "classify", 7, digest) is False
    (tmp_path / "a" / "x.pgm").write_bytes(b"P5 1 1 255 \x01")
    with pytest.raises(DigestMismatch):
        check_digest(recorded, "scan-eval", 7, inputs_digest([tmp_path / "a"]))


def test_tree_digest_covers_names_and_bytes(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "a").write_bytes(b"12")
    before = tree_digest(tmp_path / "d")
    (tmp_path / "d" / "a").rename(tmp_path / "d" / "b")
    assert tree_digest(tmp_path / "d") != before
    (tmp_path / "d" / "b").rename(tmp_path / "d" / "a")
    assert tree_digest(tmp_path / "d") == before


def _span(i, name, parent, start, end):
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_covered_child_time():
    spans = [_span(0, "svm.svm_train", None, 0, 100),
             _span(1, "svm.kernel_matrix", 0, 10, 30),
             _span(2, "svm.kernel_matrix", 0, 40, 70),
             _span(3, "x.leaf", 2, 45, 50),
             _span(4, "x.late", 0, 90, 130)]      # runs past its parent
    assert self_times(spans) == [100 - 20 - 30 - 10, 20, 25, 5, 40]
    overlapping = [_span(0, "p", None, 0, 100), _span(1, "c", 0, 10, 50),
                   _span(2, "c", 0, 40, 60)]
    assert self_times(overlapping)[0] == 50
    assert busy_under(spans, "svm.kernel_matrix", "svm.svm_train") == 50e-9
    table = layer_table(spans)
    assert table["svm.kernel_matrix"]["count"] == 2
    assert table["svm.kernel_matrix"]["busy_s"] == pytest.approx(50e-9)
    assert table["svm.svm_train"]["self_s"] == pytest.approx(40e-9)


def test_tracer_records_parents_and_counters():
    tr = Tracer()
    with tr.span("cli.eval"):
        assert tr.call("evaluate.f", lambda x: x + 1, 1) == 2
        tr.count("svm.sv_rows", 3)
    tr.count("svm.sv_rows", 2)
    outer, inner = tr.spans
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert tr.counters == {"svm.sv_rows": 5}


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 99) == 99
    assert percentile(values, 50) == 50
    assert percentile([3.0], 99) == 3.0


def test_page_sides_are_the_same_multiset_for_every_seed():
    a = scans.page_sides(30, np.random.default_rng(1))
    b = scans.page_sides(30, np.random.default_rng(2))
    assert a.min() == 64 and a.max() == 128
    for group in range(3):
        assert sorted(a[group::3]) == sorted(b[group::3])


@pytest.mark.parametrize("fmt", scans.FORMATS)
def test_scan_pages_decode_to_the_pixels_written(fmt):
    rng = np.random.default_rng(0)
    glyph = rwrl.dataset.render_glyph(3, np.random.default_rng([0, 3, 0]))
    page = scans.distort(glyph, 97, rng)
    assert page.shape == (97, 97)
    assert np.array_equal(rwrl.decode_image(scans.encode(page, fmt)), page)


def test_reference_seconds_scale_by_the_mean_sampled_speed():
    ref = speed.REFERENCE_LOOP_S
    assert speed.reference_seconds(2.0, [ref]) == pytest.approx(2.0)
    # half the time at full speed, half at two-thirds: 2 s are 5/3 s of work
    assert speed.reference_seconds(2.0, [ref, 1.5 * ref]) == pytest.approx(5 / 3)


def test_speed_sample_stays_on_the_cpu_it_was_given():
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    try:
        loop_s, spent = speed.sample(cpu)
        assert os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, allowed)
    assert 0 < loop_s <= spent
