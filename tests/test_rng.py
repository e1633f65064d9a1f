"""The batched seed derivation against numpy's SeedSequence as the oracle."""

import numpy as np
import pytest

from ewdist import rng
from ewdist.errors import DomainError
from ewdist.rng import CHUNK_SIZE, derive_seed, sample_chunks

EDGE_PARENTS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
EDGE_INDICES = [0, 1, 2**32 - 1, 2**32]
TAGS = [rng._CHILD_TAG, rng._CHUNK_TAG, None]


def _parents():
    gen = np.random.default_rng(20261018)
    one_word = gen.integers(0, 2**32, 250, dtype=np.uint64)
    two_words = gen.integers(2**32, 2**64 - 1, 250, dtype=np.uint64, endpoint=True)
    return EDGE_PARENTS + [int(v) for v in one_word] + [int(v) for v in two_words]


def _indices():
    gen = np.random.default_rng(77)
    return EDGE_INDICES + [int(v) for v in gen.integers(0, 2**64 - 1, 4, dtype=np.uint64)]


@pytest.mark.parametrize("n64", [1, 2])
@pytest.mark.parametrize("tag", TAGS, ids=["child", "chunk", "none"])
def test_seed_state_matches_seed_sequence(tag, n64):
    parents = _parents()
    assert len(parents) >= 500
    if tag is None:
        got = rng._seed_state([np.array(parents, dtype=np.uint64)], n64)
        want = [np.random.SeedSequence(entropy=[p]).generate_state(n64, np.uint64)
                for p in parents]
    else:
        indices = _indices()
        got = rng._seed_state(
            [np.array(parents, dtype=np.uint64)[:, None], tag,
             np.array(indices, dtype=np.uint64)], n64
        )
        want = [[np.random.SeedSequence(entropy=[p, tag, i]).generate_state(n64, np.uint64)
                 for i in indices] for p in parents]
    assert got.dtype == np.uint64
    assert np.array_equal(got, np.array(want))


def test_key_streams_match_seed_sequence_streams():
    for entropy in ([5, rng._CHUNK_TAG, 0], [2**64 - 1, rng._CHUNK_TAG, 2**32], [2**40]):
        columns = [np.array(e, dtype=np.uint64) for e in entropy]
        key = rng._seed_state(columns, 2)
        ours = rng._stream(key).bit_generator.random_raw(1000)
        ref = np.random.Philox(np.random.SeedSequence(entropy=entropy)).random_raw(1000)
        assert np.array_equal(ours, ref)


def test_key_refuses_other_requests():
    key = rng._Key(np.zeros(2, dtype=np.uint64))
    assert key.generate_state(2, np.uint64) is key.key
    for n_words, dtype in ((1, np.uint64), (4, np.uint64), (2, np.uint32), (4, np.uint32)):
        with pytest.raises(ValueError):
            key.generate_state(n_words, dtype)


@pytest.mark.parametrize("parent", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 1, 2**32])
def test_scalar_derive_seed_matches_seed_sequence(parent, index):
    ss = np.random.SeedSequence([parent, rng._CHILD_TAG, index])
    got = derive_seed(parent, index)
    assert isinstance(got, int)
    assert got == int(ss.generate_state(1, np.uint64)[0])


def test_array_derive_seed_equals_scalar_elementwise():
    parents = np.array(_parents()[:40], dtype=np.uint64)
    indices = np.array(_indices(), dtype=np.uint64)
    got = derive_seed(parents[:, None], indices)
    assert got.dtype == np.uint64 and got.shape == (40, len(indices))
    for a, p in enumerate(parents):
        for b, i in enumerate(indices):
            assert int(got[a, b]) == derive_seed(int(p), int(i))
    # a scalar on one side broadcasts; Python ints and lists are accepted
    assert np.array_equal(derive_seed(7, np.arange(5)), [derive_seed(7, i) for i in range(5)])
    assert np.array_equal(derive_seed([2**64 - 1, 3], 2), [derive_seed(2**64 - 1, 2),
                                                           derive_seed(3, 2)])
    assert isinstance(derive_seed(7, 3), int)


def _gamma(gen, count):
    return gen.standard_gamma(2.5, count)


def _pairs(gen, count):
    return gen.standard_normal((count, 2))


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
def test_scalar_sample_chunks_matches_seed_sequence_streams(monkeypatch, cpus, seed):
    monkeypatch.setattr("ewdist.rng._available_cpus", lambda: cpus)
    n = 2 * CHUNK_SIZE + 3
    want = []
    for k in range(3):
        ss = np.random.SeedSequence([seed, rng._CHUNK_TAG, k])
        gen = np.random.Generator(np.random.Philox(ss))
        want.append(_gamma(gen, min(CHUNK_SIZE, n - k * CHUNK_SIZE)))
    assert np.array_equal(sample_chunks(n, seed, _gamma), np.concatenate(want))


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("n", [1, 200, CHUNK_SIZE + 17])
def test_array_sample_chunks_rows_equal_one_seed_calls(monkeypatch, cpus, n):
    monkeypatch.setattr("ewdist.rng._available_cpus", lambda: cpus)
    seeds = np.array([0, 1, 2**32, 2**64 - 1, 123456789], dtype=np.uint64)
    for draw in (_gamma, _pairs):
        rows = sample_chunks(n, seeds, draw)
        assert rows.shape[:2] == (seeds.size, n)
        for row, seed in zip(rows, seeds):
            assert np.array_equal(row, sample_chunks(n, int(seed), draw))


def test_array_sample_chunks_of_no_seeds():
    assert sample_chunks(10, np.array([], dtype=np.uint64), _gamma).shape == (0, 10)
    with pytest.raises(DomainError, match="1-D"):
        sample_chunks(10, np.zeros((2, 2), dtype=np.uint64), _gamma)


@pytest.mark.parametrize("bad", [-1, 1.5, True, 2**64, "3"], ids=repr)
def test_bad_scalar_seed_or_index_raises_domain_error(bad):
    for call in (
        lambda: derive_seed(bad, 0),
        lambda: derive_seed(0, bad),
        lambda: sample_chunks(5, bad, _gamma),
    ):
        with pytest.raises(DomainError):
            call()


BAD_ARRAYS = [np.array([-1, 0]), np.array([1.5, 0.0]), np.array([True, False]),
              [-1, 0], [1.5, 0], [True, 0], [2**64, 0], ["3", 0]]


@pytest.mark.parametrize("bad", BAD_ARRAYS, ids=repr)
def test_bad_seed_or_index_array_raises_domain_error(bad):
    for call in (
        lambda: derive_seed(bad, 0),
        lambda: derive_seed(0, bad),
        lambda: sample_chunks(5, bad, _gamma),
    ):
        with pytest.raises(DomainError):
            call()
