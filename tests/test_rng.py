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
        ours = rng._keyed(key).bit_generator.random_raw(1000)
        ref = np.random.Philox(np.random.SeedSequence(entropy=entropy)).random_raw(1000)
        assert np.array_equal(ours, ref)


@pytest.mark.parametrize("n64", [1, 2])
def test_seed_state_mixes_in_a_sixth_entropy_word(n64):
    # three two-word entries: words 5 and 6 are mixed in past the pool
    entropy = [2**40, 2**50, 2**60]
    got = rng._seed_state([np.uint64(e) for e in entropy], n64)
    assert np.array_equal(got, np.random.SeedSequence(entropy).generate_state(n64, np.uint64))
    # beside elements with fewer words, each element still gets its own state
    seeds = np.array([1, 2**40, 2**64 - 1], dtype=np.uint64)
    got = rng._seed_state([seeds, np.uint64(2**50), np.uint64(2**60)], n64)
    want = [np.random.SeedSequence([int(s), 2**50, 2**60]).generate_state(n64, np.uint64)
            for s in seeds]
    assert np.array_equal(got, np.array(want))


def test_seed_state_of_no_seeds():
    empty = np.zeros(0, dtype=np.uint64)
    chunks = np.arange(31, dtype=np.uint64)
    got = rng._seed_state([empty[:, None], rng._CHUNK_TAG, chunks], 2)
    assert got.dtype == np.uint64 and got.shape == (0, 31, 2)
    got = rng._seed_state([empty], 2)
    assert got.dtype == np.uint64 and got.shape == (0, 2)


# Integers below 2**32 and float32 draws take 32-bit words, the others 64-bit
# words.  A power-of-two range rejects no word, so a stale spare word shows.
REKEY_DRAWS = {
    "standard_gamma": lambda gen, n: gen.standard_gamma(2.5, n),
    "beta": lambda gen, n: gen.beta(1.25, 1.0, n),
    "standard_normal": lambda gen, n: gen.standard_normal((n, 2)),
    "chisquare": lambda gen, n: gen.chisquare(50.0, n),
    "random_float32": lambda gen, n: gen.random(n, dtype=np.float32),
    "integers_small": lambda gen, n: gen.integers(0, 35, n),
    "integers_2**20": lambda gen, n: gen.integers(0, 2**20, n),
    "integers_2**32": lambda gen, n: gen.integers(0, 2**32 + 1, n),
    "integers_2**63": lambda gen, n: gen.integers(0, 2**63, n),
}


def _fresh(entropy):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _leave_half_word(gen):
    """Draw 32-bit words until a spare one and a part-used buffer are left behind."""
    state = gen.bit_generator.state
    while not (state["has_uint32"] == 1 and state["buffer_pos"] < 4):
        gen.integers(0, 10, dtype=np.uint32)
        state = gen.bit_generator.state


@pytest.mark.parametrize("name", REKEY_DRAWS)
def test_rekeyed_stream_draws_as_a_fresh_generator(name):
    draw = REKEY_DRAWS[name]
    seeds = np.array([0, 7, 2**40, 2**64 - 1], dtype=np.uint64)

    def dirty_after(gen):
        out = draw(gen, 1000)
        _leave_half_word(gen)
        return out

    got = rng._seeded_draws(seeds, dirty_after)
    for out, seed in zip(got, seeds):
        assert np.array_equal(out, draw(_fresh([int(seed)]), 1000))


@pytest.mark.parametrize("name", REKEY_DRAWS)
def test_rekeyed_chunk_streams_in_pool_threads(monkeypatch, name):
    # two pool threads for five chunks: a thread re-keys after its own dirty stream
    monkeypatch.setattr("ewdist.rng._available_cpus", lambda: 2)
    draw, n, seed = REKEY_DRAWS[name], 4 * CHUNK_SIZE + 5, 2**63 + 11

    def dirty_after(gen, count):
        out = draw(gen, count)
        _leave_half_word(gen)
        return out

    want = [draw(_fresh([seed, rng._CHUNK_TAG, k]), min(CHUNK_SIZE, n - k * CHUNK_SIZE))
            for k in range(5)]
    assert np.array_equal(sample_chunks(n, seed, dirty_after), np.concatenate(want))


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


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 200, CHUNK_SIZE + 17, 2 * CHUNK_SIZE + 5])
def test_array_sample_chunks_rows_equal_one_seed_calls(monkeypatch, cpus, n):
    monkeypatch.setattr("ewdist.rng._available_cpus", lambda: cpus)
    seeds = np.array([0, 1, 2**32, 2**64 - 1, 123456789], dtype=np.uint64)
    for draw in (_gamma, _pairs):
        rows = sample_chunks(n, seeds, draw)
        assert rows.shape[:2] == (seeds.size, n)
        for row, seed in zip(rows, seeds):
            assert np.array_equal(row, sample_chunks(n, int(seed), draw))


def test_sample_chunks_builds_one_thread_pool_per_call(monkeypatch):
    built = []

    class CountingPool(rng.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(rng, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr("ewdist.rng._available_cpus", lambda: 2)
    seeds = np.arange(8, dtype=np.uint64)
    rows = sample_chunks(2 * CHUNK_SIZE + 1, seeds, _gamma)  # 8 seeds of 3 chunks
    assert rows.shape == (8, 2 * CHUNK_SIZE + 1)
    assert built == [2]


@pytest.mark.parametrize("cpus", [1, 2])
def test_sample_chunks_ignores_float_errors_on_every_thread_and_restores_the_callers(
        monkeypatch, cpus):
    monkeypatch.setattr("ewdist.rng._available_cpus", lambda: cpus)
    states = []

    def nan_draw(gen, count):
        states.append(np.geterr())
        return np.zeros(count) / np.zeros(count)

    before = np.geterr()
    out = sample_chunks(3 * CHUNK_SIZE, np.arange(4, dtype=np.uint64), nan_draw)
    assert np.isnan(out).all() and out.shape == (4, 3 * CHUNK_SIZE)
    assert states == [dict.fromkeys(before, "ignore")] * 12
    assert np.geterr() == before


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
