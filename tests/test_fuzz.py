"""Seeded mutation fuzz over every byte format the toolkit reads.

Each case flips, replaces, inserts or deletes a few bytes of a valid PGM,
BMP, model, feature file or confusion CSV and feeds the result to the
reader (and, for images, models and confusion CSVs, to the stage that
consumes it). The contract under test is the README's: malformed input
ends as an `RwrlError`, never as another exception, and what is accepted
is usable. The mutation count is fixed, so the run is deterministic and
takes a few seconds.
"""

import functools
import re

import numpy as np
import pytest

from rwrl.cli import _preprocess_chunk
from rwrl.errors import RwrlError
from rwrl.evaluate import (
    class_metrics,
    confusion,
    overall_metrics,
    read_confusion_csv,
    write_confusion_csv,
    write_reports,
)
from rwrl.knn import knn_predict_batch, knn_train
from rwrl.model_io import model_load, model_save
from rwrl.raster import DARK_INK, decode_image, encode_pgm
from rwrl.reader import read_feature_file
from rwrl.rows import write_feature_file
from rwrl.svm import KernelParams, SvmModel, svm_predict_batch, svm_train

from oracle_utils import encode_pgm_ascii, read_pgm_reference
from test_raster import make_bmp

CASES = 600
TOKENS = (b"-", b"0", b"1", b"9", b".", b" ", b"\n", b"#", b"=", b"nan",
          b"inf", b"-1", b"99999999999999999999", b"\x00", b"\xff")


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        # half of the edits land in the first 64 bytes, where headers live
        span = min(len(out), 64) if rng.random() < 0.5 else len(out)
        pos = int(rng.integers(span + 1))
        op = int(rng.integers(4))
        token = TOKENS[int(rng.integers(len(TOKENS)))]
        if op == 0 and pos < len(out):
            out[pos] = int(rng.integers(256))
        elif op == 1:
            out[pos:pos + len(token)] = token
        elif op == 2:
            out[pos:pos] = token
        else:
            del out[pos:pos + int(rng.integers(1, 4))]
    return bytes(out)


def digit(size: int = 12) -> np.ndarray:
    img = np.full((size, size), 255, dtype=np.uint8)
    img[3:9, 4:7] = 0
    return img


def image_inputs() -> dict[str, bytes]:
    gray4 = [(v, v, v) for v in (0, 85, 170, 255)]
    return {
        "pgm5": encode_pgm(digit()),
        "pgm2": encode_pgm_ascii(digit(6)),
        "bmp": make_bmp(digit(32)),
        "bmp4": make_bmp(digit() // 85, palette_rgb=gray4),
    }


def model_inputs() -> dict[str, bytes]:
    rng = np.random.default_rng(0)
    X = rng.normal(size=(9, 3)).round(2)
    y = np.repeat([0, 4, 7], 3)
    return {
        "svm": model_save(svm_train(X, y, KernelParams("linear"))),
        "knn": model_save(knn_train(X, y, k=2)),
    }


def run_image(tmp_path, data: bytes) -> None:
    """What `rwrl preprocess` does with the page: its worker's RwrlError
    for it is raised."""
    page = tmp_path / "page"
    page.write_bytes(data)
    [result] = _preprocess_chunk(1.0, DARK_INK,
                                 [(str(page), str(tmp_path / "out.pgm"))])
    if isinstance(result, RwrlError):
        raise result


def run_model(data: bytes) -> None:
    model = model_load(data)
    probes = np.random.default_rng(1).normal(size=(4, model.dim))
    predict = (svm_predict_batch if isinstance(model, SvmModel)
               else knn_predict_batch)
    assert set(predict(model, probes).tolist()) <= set(model.classes)


def fuzz(name: str, data: bytes, run) -> list[str]:
    rng = np.random.default_rng(list(name.encode()))
    failures = []
    for case in range(CASES):
        mutated = mutate(data, rng)
        try:
            run(mutated)
        except RwrlError:
            pass
        except Exception as exc:  # the contract: nothing but RwrlError
            failures.append(f"{name} case {case}: {type(exc).__name__}: "
                            f"{exc} <- {mutated[:80]!r}")
    return failures


@pytest.mark.parametrize("name", sorted(image_inputs()))
def test_image_mutations_raise_only_rwrl_errors(tmp_path, name):
    failures = fuzz(name, image_inputs()[name],
                    functools.partial(run_image, tmp_path))
    assert not failures, failures[:5]


@pytest.mark.parametrize("name", ["pgm2", "pgm5"])
def test_accepted_pgm_mutations_decode_like_the_reference(name):
    # a misread header could still decode without error, to other pixels
    def run(data: bytes) -> None:
        pixels = decode_image(data)
        assert np.array_equal(pixels, read_pgm_reference(data))

    failures = fuzz(name, image_inputs()[name], run)
    assert not failures, failures[:5]


# the six bytes that separate PGM tokens, and bytes that look like space
# to str.split() or Latin-1 but are non-numeric in a PGM
SEPARATORS = (b" ", b"\t", b"\n", b"\x0b", b"\x0c", b"\r")
NON_NUMERIC = (b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\x85", b"\xa0",
               b"+", b"-", b"_", b"x", b"\x00")


def p2_page(rng: np.random.Generator) -> bytes:
    """A small P2 page whose samples have 1 to 3 digits, often after a run
    of leading zeros, between random separators and comments. Some pages
    hold a sample above maxval, a sample of over 4300 digits, a non-numeric
    byte, one sample too few or garbage after the last sample."""
    def pick(options):
        return options[int(rng.integers(len(options)))]

    def gap() -> bytes:
        if rng.random() < 0.2:      # a comment, glued or spaced
            text = bytes(rng.integers(32, 127, size=int(rng.integers(4))))
            return pick((b"", b" ")) + b"#" + text + pick((b"\n", b"\r"))
        return b"".join(pick(SEPARATORS) for _ in range(rng.integers(1, 3)))

    width, height = (int(v) for v in rng.integers(1, 4, size=2))
    maxval = pick((1, 9, 10, 99, 100, 200, 254, 255))
    n = width * height + pick((0, 0, 0, 0, -1, 1, 2))
    values = rng.integers(maxval + 1, size=n)
    if n and rng.random() < 0.3:
        values[rng.integers(n)] = rng.integers(pick((maxval + 2, 1000, 10**5)))
    samples = []
    for value in values.tolist():
        digits = len(str(value)) + pick((0, 0, 0, 1, 2, 7))
        if rng.random() < 0.02:
            digits = pick((4300, 4301))
        samples.append(b"%0*d" % (digits, value))
    if samples and rng.random() < 0.1:
        i = int(rng.integers(len(samples)))
        j = int(rng.integers(len(samples[i]) + 1))
        samples[i] = samples[i][:j] + pick(NON_NUMERIC) + samples[i][j:]
    if rng.random() < 0.1:
        samples.append(bytes(rng.integers(256, size=int(rng.integers(1, 6)))))
    page = b"P2 %d %d %d" % (width, height, maxval)
    body = b"".join(gap() + sample for sample in samples)
    return page + body + pick((b"", b"\n", b" # to the end of the file"))


def test_p2_decoder_accepts_exactly_the_pages_the_reference_reads():
    # the reference reads a page when its w*h samples are ASCII digits, at
    # most 4300 of them, each sample at most maxval
    rng = np.random.default_rng(list(b"p2 differential"))
    failures, accepted = [], 0
    for case in range(4 * CASES):
        page = p2_page(rng)
        try:
            expected = read_pgm_reference(page)
        except (ValueError, IndexError):
            expected = None
        try:
            pixels = decode_image(page)
        except RwrlError:
            pixels = None
        accepted += pixels is not None
        if (pixels is None) != (expected is None) or (
                pixels is not None and not np.array_equal(pixels, expected)):
            failures.append(f"case {case}: decoded {pixels}, reference "
                            f"{expected} <- {page[:80]!r}")
    assert not failures, failures[:5]
    assert CASES < accepted < 3 * CASES     # both outcomes are common


@pytest.mark.parametrize("name", sorted(model_inputs()))
def test_model_mutations_raise_only_rwrl_errors(name):
    failures = fuzz(name, model_inputs()[name], run_model)
    assert not failures, failures[:5]


def test_feature_file_mutations_raise_only_rwrl_errors(tmp_path):
    path = tmp_path / "features.txt"
    write_feature_file(path, [0, 1, 1], np.array([[0, 3, 1.5], [2, 0, 7],
                                                  [1, 1, 1]]))

    def run(data: bytes) -> None:
        path.write_bytes(data)
        labels, X = read_feature_file(path)
        assert np.isfinite(X).all() and len(labels) == len(X)
        # what loads obeys the integer and float rules, read from the text
        # as the reader splits it: universal newlines, no stripping
        text = data.decode("ascii").replace("\r\n", "\n").replace("\r", "\n")
        for line in text.removesuffix("\n").split("\n")[1:]:
            label, *values = line.split(",")
            assert re.fullmatch("-?[0-9]+", label), line
            assert all(re.fullmatch("[-+.e0-9]+", v) for v in values), line

    failures = fuzz("features", path.read_bytes(), run)
    assert not failures, failures[:5]


def test_confusion_csv_mutations_raise_only_rwrl_errors(tmp_path):
    path = tmp_path / "confusion.csv"
    write_confusion_csv(path, confusion([0, 0, 1, 4, 4, 4, 4],
                                        [0, 1, 1, 4, 0, 4, 1], [0, 1, 4]))

    def run(data: bytes) -> None:
        # what `rwrl report` does with the file
        path.write_bytes(data)
        cm = read_confusion_csv(path)
        write_reports(tmp_path / "reports", cm, class_metrics(cm),
                      overall_metrics(cm))
        assert len(set(cm.classes)) == len(cm.classes)
        assert (cm.counts >= 0).all()
        # what loads obeys the integer rule, read from the text as the
        # reader splits it: universal newlines, no stripping
        text = data.decode("ascii").replace("\r\n", "\n").replace("\r", "\n")
        header, *rows = text.removesuffix("\n").split("\n")
        for field in header.split(",")[1:] + ",".join(rows).split(","):
            assert re.fullmatch("-?[0-9]+", field), text

    failures = fuzz("confusion", path.read_bytes(), run)
    assert not failures, failures[:5]


@pytest.mark.parametrize("value", [2 ** 62, 10 ** 20],
                         ids=["2**62", "10**20"])
@pytest.mark.parametrize("field", ["width", "height", "maxval"])
@pytest.mark.parametrize("name", ["pgm2", "pgm5"])
def test_huge_image_header_integer_raises_rwrl_error(tmp_path, name, field,
                                                    value):
    magic, *header, body = image_inputs()[name].split(None, 4)

    def page(header) -> bytes:
        return b" ".join([magic, *header]) + b"\n" + body

    run_image(tmp_path, page(header))   # the rebuilt page itself is valid
    header[("width", "height", "maxval").index(field)] = str(value).encode()
    with pytest.raises(RwrlError):
        run_image(tmp_path, page(header))


@pytest.mark.parametrize("value", [2 ** 62, 10 ** 20],
                         ids=["2**62", "10**20"])
def test_huge_feature_dim_raises_rwrl_error(tmp_path, value):
    path = tmp_path / "features.txt"
    path.write_text(f"#rwrl-v1,dim={value}\n")
    with pytest.raises(RwrlError):
        read_feature_file(path)
