"""Seeded mutation fuzz over every byte format the toolkit reads.

Each case flips, replaces, inserts or deletes a few bytes of a valid PGM,
BMP, model or feature file and feeds the result to the reader (and, for
images and models, to the stage that consumes it). The contract under test
is the README's: malformed input ends as an `RwrlError`, never as another
exception, and what is accepted is usable. The mutation count is fixed, so
the run is deterministic and takes a few seconds.
"""

import numpy as np
import pytest

from rwrl.errors import RwrlError
from rwrl.features import read_feature_file, write_feature_file
from rwrl.knn import knn_predict_batch, knn_train
from rwrl.model_io import model_load, model_save
from rwrl.raster import decode_image, encode_pgm, preprocess_image
from rwrl.svm import KernelParams, SvmModel, svm_predict_batch, svm_train

from oracle_utils import encode_pgm_ascii
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
        "svm": model_save(svm_train(X, y, KernelParams("linear"), seed=0)),
        "knn": model_save(knn_train(X, y, k=2)),
    }


def run_image(data: bytes) -> None:
    decode_image(data)
    preprocess_image(data)


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
def test_image_mutations_raise_only_rwrl_errors(name):
    failures = fuzz(name, image_inputs()[name], run_image)
    assert not failures, failures[:5]


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

    failures = fuzz("features", path.read_bytes(), run)
    assert not failures, failures[:5]
