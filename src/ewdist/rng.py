"""Deterministic, splittable random number streams.

All sampling in the package is chunked: a request for n draws is split
into fixed-size chunks and chunk k is generated from its own Philox
stream keyed by (seed, CHUNK_TAG, k).  The result therefore depends only
on (seed, parameters, n) and never on how many workers processed the
chunks.  Chunks run on one thread per CPU available to the process, capped
at the chunk count; a single chunk runs in the calling thread.

``derive_seed`` produces independent child seeds (keyed by a different
tag) so a command can hand disjoint streams to sub-tasks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError

__all__ = ["GENERATOR_NAME", "CHUNK_SIZE", "chunk_stream", "derive_seed", "sample_chunks"]

GENERATOR_NAME = "philox4x64/v1"
CHUNK_SIZE = 1 << 15

_CHUNK_TAG = 0x43484B  # stream namespace for sampler chunks
_CHILD_TAG = 0x535542  # stream namespace for derived child seeds


def validate_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def chunk_stream(seed: int, index: int) -> np.random.Generator:
    """Generator for chunk `index` of the stream keyed by `seed`."""
    seed = validate_seed(seed)
    ss = np.random.SeedSequence(entropy=[seed, _CHUNK_TAG, int(index)])
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed, independent of chunk streams."""
    seed = validate_seed(seed)
    ss = np.random.SeedSequence(entropy=[seed, _CHILD_TAG, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def sample_chunks(n: int, seed: int, draw):
    """Assemble n draws from per-chunk streams, identical for any worker count.

    `draw(rng, count)` must return an array whose leading axis has length
    `count`; chunks are concatenated in index order.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"sample size must be a positive integer, got {n!r}")
    n = int(n)
    n_chunks = (n + CHUNK_SIZE - 1) // CHUNK_SIZE

    def one(k: int):
        count = min(CHUNK_SIZE, n - k * CHUNK_SIZE)
        return draw(chunk_stream(seed, k), count)

    workers = min(_available_cpus(), n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, range(n_chunks)))
    else:
        parts = [one(k) for k in range(n_chunks)]
    if n_chunks == 1:
        return parts[0]
    return np.concatenate(parts, axis=0)
