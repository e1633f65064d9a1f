"""Deterministic, splittable random number streams.

The seed tree.  Every stream is a Philox stream (Salmon et al., SC'11)
keyed by numpy's ``SeedSequence`` over a short list of 64-bit entries:

- a child seed is ``derive_seed(seed, i) =
  SeedSequence([seed, _CHILD_TAG, i]).generate_state(1, uint64)``, so a
  command hands disjoint streams to sub-tasks by index;
- chunk k of the draws from ``seed`` comes from
  ``Philox(SeedSequence([seed, _CHUNK_TAG, k]))``;
- the sampled-subset stream of elemental matrix j is
  ``Philox(SeedSequence([derive_seed(seed, 2j + 1)]))``, with no tag.

All sampling is chunked: a request for n draws is split into fixed-size
chunks, concatenated in chunk order, so the result depends only on
(seed, parameters, n) and never on how many workers processed the chunks.
A sampler call draws every chunk of every seed through one thread pool,
one thread per CPU available to the process, capped at the chunks per
seed; seeds of one chunk draw on the calling thread.  Either way every
draw runs with numpy's floating-point errors ignored, set once per thread,
so no draw callback states an error policy: each sampler checks its draws.

`_fork_map` is the one process pool: it maps a module-level function over
items in forked workers, in item order, or in the calling process when its
caller's size rule says the work is too small to repay a fork.  The CSV
writer formats the blocks of a body with it, and `gof-table` runs its grid
rows with it; every item carries its own seeds, so no output depends on
how many workers ran.

There is one derivation: ``_seed_state`` runs numpy's ``SeedSequence``
loops (``mix_entropy``, ``generate_state``) over whole arrays of seeds and
indices, scalars included; ``tests/test_rng.py`` checks it bit for bit.

Philox is counter-based, so a stream is its key: each thread keeps one
generator and re-keys it per stream (`_keyed`), lending it to one draw
callback at a time (`sample_chunks`, `_seeded_draws`).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial

import numpy as np

from .errors import DomainError
from .specfun import _validate_count

__all__ = ["GENERATOR_NAME", "CHUNK_SIZE", "derive_seed", "sample_chunks"]

GENERATOR_NAME = "philox4x64/v1"
CHUNK_SIZE = 1 << 15

_CHUNK_TAG = 0x43484B  # stream namespace for sampler chunks
_CHILD_TAG = 0x535542  # stream namespace for derived child seeds


def _key_array(name: str, value) -> np.ndarray:
    """`value` as a uint64 array, each element an integer in [0, 2**64).

    Anything but an integer ndarray is checked element by element: numpy
    reads [2**64 - 1, 3] as float64 and [True, 0] as int64.
    """
    if not isinstance(value, np.ndarray) or value.dtype == object:
        arr = np.array(value, dtype=object)
        for v in arr.flat:
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise DomainError(f"{name} must be an integer, got {v!r}")
            if not 0 <= v < 2**64:
                raise DomainError(f"{name} must fit in 64 unsigned bits, got {v}")
        return np.array([int(v) for v in arr.flat], dtype=np.uint64).reshape(arr.shape)
    arr = value
    if arr.dtype.kind not in "iu":
        raise DomainError(f"{name} must be an integer, got dtype {arr.dtype}")
    if arr.dtype.kind == "i" and arr.size and arr.min() < 0:
        raise DomainError(f"{name} must fit in 64 unsigned bits, got {arr.min()}")
    return arr.astype(np.uint64)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), a pool of 4 uint32 words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
_MAX_WORDS = 6  # three 64-bit entries
_LOW, _HIGH = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _XSHIFT)


def _seed_state(columns, n64: int) -> np.ndarray:
    """``SeedSequence(entropy=[c[i] for c in columns]).generate_state(n64, uint64)``
    for every element i of the broadcast uint64 `columns`, shape (*shape, n64).

    Each entry is split into uint32 words as numpy's ``_int_to_uint32_array``
    does: one word below 2**32 (0 included), two otherwise.  The words sit in
    a zero-padded (words x elements) array, each element with its own word
    count; a 0-d column (a tag) is split once, in Python.  The rest is numpy's
    ``mix_entropy`` and ``generate_state`` loops, each step taken for every
    element at once under one running hash constant `h`, as in numpy.
    """
    columns = [np.asarray(c, dtype=np.uint64) for c in columns]
    shape = np.broadcast(*columns).shape
    size = math.prod(shape)
    words = np.zeros(_MAX_WORDS * size, dtype=np.uint32)  # (words x elements), flat
    at = np.arange(size)  # flat index of each element's next word
    for col in columns:
        if col.ndim:
            col = np.broadcast_to(col, shape).reshape(-1)
            lo, hi = col & _LOW, (col >> _HIGH).astype(np.uint32)
        else:  # one entry for every element: split it once
            lo, hi = int(col) & 0xFFFFFFFF, int(col) >> 32
        words[at + size] = hi  # a one-word entry's 0 here is overwritten next, or is padding
        words[at] = lo
        at += size + size * (hi != 0)
    n_words, words = at // size, words.reshape(_MAX_WORDS, size)
    h = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal h
        value, h = value ^ h, h * mult & 0xFFFFFFFF
        value = value * h
        return value ^ (value >> _XSHIFT)

    # mix_entropy: fill, cross mix, then each word past the pool where an element has it
    pool = [hashmix(words[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in range(_POOL, int(n_words.max(initial=0))):
        for dst in range(_POOL):
            pool[dst] = np.where(w < n_words, _mix(pool[dst], hashmix(words[w])), pool[dst])

    h = _INIT_B  # generate_state, its uint32 words paired little-endian into uint64
    state = np.array([hashmix(pool[i % _POOL], _MULT_B) for i in range(2 * n64)], dtype="<u4")
    return state.T.copy().view("<u8").astype(np.uint64).reshape(*shape, n64)


_local = threading.local()  # each thread's one generator
_ZEROS = np.zeros(4, dtype=np.uint64)


def _keyed(key: np.ndarray) -> np.random.Generator:
    """This thread's generator in the state ``Philox(key=key)`` starts in: counter 0,
    an empty buffer and no spare 32-bit word, so it draws the bits a new one would."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
                               "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def derive_seed(seed, index):
    """Deterministic child seed, independent of chunk streams.

    An int for int `seed` and `index`; a uint64 array of their broadcast
    shape when either is an array.
    """
    entropy = [_key_array("seed", seed), _CHILD_TAG, _key_array("index", index)]
    out = _seed_state(entropy, 1)[..., 0]
    return int(out) if out.ndim == 0 else out


def _seeded_draws(seeds, draw) -> list:
    """``draw(Generator(Philox(SeedSequence([s]))))`` for each element s of the array `seeds`."""
    return [draw(_keyed(k)) for k in _seed_state([_key_array("seed", seeds)], 2).reshape(-1, 2)]


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@contextmanager
def _fork_map(func, items, fork: bool):
    """``map(func, items)`` in item order; in forked worker processes if `fork`.

    One worker per available CPU up to the number of items; with `fork` false
    or fewer than two workers, a plain ``map`` in the calling process.  `func`
    must be a module-level function: it is sent to the workers by name.  Every
    worker is forked, and every item handed out, on entry, so no worker inherits
    a file the caller opens inside the block.  A worker's exception is raised in
    the caller with its type and message when its result is read; a killed
    worker raises ``BrokenExecutor`` rather than hanging; leaving the block
    joins every worker.

        with _fork_map(func, items, fork) as results:
            ...
    """
    items = list(items)
    workers = min(_available_cpus(), len(items)) if fork else 1
    if workers < 2:
        yield map(func, items)
        return
    # imported here, so that importing the package does not load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Fork, not spawn: a spawned worker would import numpy and scipy again
    # (~0.4 s), more than a pool saves here.  Forking beside OpenBLAS's idle
    # threads is safe as long as `func` calls no BLAS routine and takes no
    # lock another thread may hold, which every caller's function keeps to.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        yield pool.map(func, items)


def sample_chunks(n: int, seed, draw):
    """Assemble n draws from per-chunk streams, identical for any worker count.

    `draw(rng, count)` must return an array whose leading axis has length
    `count`, and not keep `rng`; chunks are concatenated in index order.  With
    a 1-D array of seeds the result has one row per seed, shape (len(seeds), n, ...),
    and row i equals the draws for seeds[i] alone.  Every draw runs with numpy's
    floating-point errors ignored, set once per thread: the caller checks what it returns.
    """
    n = _validate_count("sample size", n)
    seeds = _key_array("seed", seed)
    if seeds.ndim > 1:
        raise DomainError(f"seeds must be a scalar or a 1-D array, got shape {seeds.shape}")
    n_chunks = (n + CHUNK_SIZE - 1) // CHUNK_SIZE
    workers = min(_available_cpus(), n_chunks)
    chunks = np.arange(n_chunks, dtype=np.uint64)
    keys = _seed_state([seeds.reshape(-1, 1), _CHUNK_TAG, chunks], 2).reshape(-1, 2)

    def one(i: int):
        """Pair i, seed-major: chunk i % n_chunks of seed i // n_chunks."""
        return draw(_keyed(keys[i]), min(CHUNK_SIZE, n - i % n_chunks * CHUNK_SIZE))

    if workers > 1:  # numpy's error state is per thread, and a new thread starts at the default
        with ThreadPoolExecutor(workers, initializer=partial(np.seterr, all="ignore")) as pool:
            parts = list(pool.map(one, range(len(keys))))
    else:
        with np.errstate(all="ignore"):
            parts = list(map(one, range(len(keys))))
    out = np.concatenate(parts or [np.empty(0)])  # no seeds: shape (0, n)
    return out.reshape(*seeds.shape, n, *out.shape[1:])
