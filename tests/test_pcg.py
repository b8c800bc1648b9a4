"""rwrl's seeded stream against numpy's default_rng, which drew the splits
and the synthetic corpus when the golden digests were recorded."""

import random

import numpy as np
import pytest

from rwrl.dataset import render_glyph
from rwrl.evaluate import holdout_split, stratified_kfold
from rwrl.pcg import Stream

from oracle_utils import numpy_holdout_split, numpy_stratified_kfold

_FUZZ = random.Random(25)
# edges of SeedSequence's 32-bit words, random widths up to 100 bits, then
# seeds past four words, whose extra words SeedSequence mixes in a second
# loop (`rwrl eval --seed` has no upper bound)
SEEDS = ([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64, 2 ** 64 + 3]
         + [_FUZZ.getrandbits(_FUZZ.randint(8, 100)) for _ in range(13)]
         + [2 ** 128, 2 ** 128 + 12345, 2 ** 200 - 1])


def _labels(seed: int) -> np.ndarray:
    """Shuffled labels of 1-10 classes with arbitrary ids, 1 to a few
    thousand samples each."""
    case = random.Random(seed)
    sizes = [case.choice([1, 2, 3, case.randint(4, 60),
                          case.randint(100, 3000)])
             for _ in range(case.randint(1, 10))]
    ids = case.sample(range(-50, 50), len(sizes))
    labels = np.repeat(ids, sizes)
    case.shuffle(labels)
    return labels


@pytest.mark.parametrize("seed", SEEDS)
def test_holdout_split_draws_as_numpy(seed):
    labels = _labels(seed)
    least = min(int((labels == c).sum()) for c in set(labels.tolist()))
    for n in sorted({0, least - 1, random.Random(seed).randint(0, least - 1)}):
        got = holdout_split(labels, n, seed=seed)
        want = numpy_holdout_split(labels, n, seed)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), n


@pytest.mark.parametrize("seed", SEEDS)
def test_stratified_kfold_draws_as_numpy(seed):
    labels = _labels(seed)
    least = min(int((labels == c).sum()) for c in set(labels.tolist()))
    for k in sorted({2, random.Random(seed).randint(2, max(2, least))}):
        if least < k:
            continue
        got = stratified_kfold(labels, k, seed=seed)
        want = numpy_stratified_kfold(labels, k, seed)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), k


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1] + SEEDS[7:12])
def test_glyph_draws_as_numpy(seed):
    case = random.Random(seed)
    for _ in range(20):
        stream = [seed, case.randint(0, 9), case.randint(0, 9999)]
        ours, theirs = Stream(stream), np.random.default_rng(stream)
        for low, high in [(-10.0, 10.0), (0.85, 1.15), (-3.0, 3.0),
                          (-3.0, 3.0), (2.0, 4.0)]:
            assert ours.uniform(low, high) == theirs.uniform(low, high), stream
    label = case.randint(0, 9)
    stream = [seed, label, 0]
    assert (render_glyph(label, Stream(stream)).tobytes()
            == render_glyph(label, np.random.default_rng(stream)).tobytes())


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.0, TypeError),
                                         (np.float64(2), TypeError)],
                         ids=["negative", "float", "numpy-float"])
def test_seed_refused_as_numpy_refuses_it(seed, error):
    labels = np.repeat([0, 1], 4)
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        holdout_split(labels, 1, seed=seed)
    with pytest.raises(error):
        stratified_kfold(labels, 2, seed=seed)
    with pytest.raises(error):
        Stream([3, seed])
