"""Elemental-set machinery: subset weights, chain ratios, simulation.

The weight of a row subset E of a design matrix X is the Gram-determinant
ratio |X_E' X_E| / |X' X|.  Determinants are taken with slogdet (pivoted
LU accumulating log magnitude and sign) so enumerating many subsets
neither overflows nor loses precision.  When the subset size equals the
column count the weights over all subsets sum to 1 (Cauchy-Binet); for
larger subsets of size k they sum to C(l - c, k - c).

Every weight goes through `_weights`: one stacked matmul and slogdet per
chunk of 2**15 subsets (the chunk bounds the stacked arrays), which give
the same bits as per-subset 2-D calls; weights are formed with `math.exp`,
as `np.exp` differs from it by one ulp on about 5% of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .dist import MvtParams, mvt_sample_rows
from .errors import DomainError, RankError, SizeError
from .rng import _seeded_streams, derive_seed

__all__ = [
    "ElementalWeight",
    "as_design_matrix",
    "enumerate_elemental",
    "weight_of_set",
    "all_weights",
    "chain_ratios",
    "subset_by_rank",
    "expected_weight_sum",
    "simulate_weight_distribution",
    "simulated_design",
    "load_design_csv",
]

ENUMERATION_CAP = 1_000_000
_SUBSET_CHUNK = 1 << 15


@dataclass(frozen=True)
class ElementalWeight:
    indices: tuple  # sorted, 1-based
    weight: float


def as_design_matrix(x) -> np.ndarray:
    """Validate an l x c design matrix: 2-D, finite, full column rank."""
    return _validated(x)[0]


def _validated(x):
    """(arr, log|X'X|) of a valid design matrix, as `as_design_matrix` checks it."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise DomainError(f"design matrix must be 2-D, got shape {arr.shape}")
    l, c = arr.shape
    if l < c:
        raise DomainError(f"need at least as many rows as columns, got {l}x{c}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("design matrix contains non-finite entries")
    sign, log_full = np.linalg.slogdet(arr.T @ arr)
    if sign <= 0:
        raise RankError("design matrix is rank deficient (|X'X| <= 0)")
    return arr, float(log_full)


def _check_subset(e, l: int) -> tuple:
    idx = tuple(sorted(int(i) for i in e))
    if len(idx) != len(set(idx)):
        raise DomainError(f"subset has repeated indices: {e!r}")
    if not idx or idx[0] < 1 or idx[-1] > l:
        raise DomainError(f"subset indices must lie in 1..{l}, got {e!r}")
    return idx


def enumerate_elemental(l: int, p: int):
    """All (p+1)-row subsets of {1..l} in lexicographic order."""
    if not isinstance(l, (int, np.integer)) or not isinstance(p, (int, np.integer)):
        raise DomainError("l and p must be integers")
    if l < p + 1:
        raise DomainError(f"need l >= p+1, got l={l}, p={p}")
    return [tuple(c) for c in combinations(range(1, int(l) + 1), int(p) + 1)]


def _weights(arr: np.ndarray, log_full: float, subsets) -> list:
    """Weights of equal-size 0-based row subsets of a validated matrix, in order.

    `log_full` is log|X'X| as `_validated` returns it.
    """
    out = []
    it = iter(subsets)
    while chunk := list(islice(it, _SUBSET_CHUNK)):
        rows = arr[np.array(chunk)]
        sign, log_e = np.linalg.slogdet(np.swapaxes(rows, -1, -2) @ rows)
        out += [math.exp(le - log_full) if sg > 0 else 0.0
                for sg, le in zip(sign.tolist(), log_e.tolist())]
    return out


def _subsets(l: int, k: int, cap: int):
    """0-based k-subsets of range(l) in lexicographic order, at most `cap` of them."""
    count = math.comb(l, k)
    if count > cap:
        raise SizeError(
            f"C({l},{k}) = {count} subsets exceeds the cap {cap}; "
            "use sampled-sets mode instead"
        )
    return combinations(range(l), k)


def weight_of_set(x, e) -> float:
    """Gram-determinant share |X_E'X_E| / |X'X| of the row subset e (1-based)."""
    arr, log_full = _validated(x)
    idx = _check_subset(e, arr.shape[0])
    if len(idx) < arr.shape[1]:
        raise DomainError(
            f"subset of size {len(idx)} cannot span {arr.shape[1]} columns"
        )
    return _weights(arr, log_full, [tuple(i - 1 for i in idx)])[0]


def all_weights(x, set_size: int | None = None, cap: int = ENUMERATION_CAP):
    """Weights of every subset of the given size (default: the column count).

    With the default size the weights sum to 1 by Cauchy-Binet.
    """
    arr, log_full = _validated(x)
    l, c = arr.shape
    k = c if set_size is None else int(set_size)
    if k < c or k > l:
        raise DomainError(f"set size must lie in [{c}, {l}], got {k}")
    weights = _weights(arr, log_full, _subsets(l, k, cap))
    return [ElementalWeight(tuple(i + 1 for i in combo), w)
            for combo, w in zip(combinations(range(l), k), weights)]


def expected_weight_sum(l: int, cols: int, set_size: int) -> float:
    """Cauchy-Binet value of the weight sum over all size-k subsets."""
    return float(math.comb(l - cols, set_size - cols))


def chain_ratios(x, e) -> np.ndarray:
    """Determinant ratios t_i from rank-one updates by the rows outside e.

    Starting from M_0 = X_E'X_E, each remaining row (in index order) is
    added as an outer product; t_i = |M_{i-1}| / |M_i| in (0, 1].  The
    product of the ratios telescopes to weight_of_set(x, e).
    """
    arr = as_design_matrix(x)
    idx = _check_subset(e, arr.shape[0])
    base = arr[np.array(idx) - 1]
    rest = np.delete(arr, np.array(idx) - 1, axis=0)
    # M_0 = X_E'X_E and M_i = M_{i-1} + x_i x_i': cumsum adds the terms in row order
    terms = np.concatenate([(base.T @ base)[None], rest[:, :, None] * rest[:, None, :]])
    sign, logdet = np.linalg.slogdet(np.cumsum(terms, axis=0))
    if sign[0] <= 0:
        raise RankError(f"base subset {idx} gives a singular Gram matrix")
    if np.any(sign[1:] <= 0):
        raise RankError("rank-one update produced a non-positive determinant")
    return np.exp(logdet[:-1] - logdet[1:])


def subset_by_rank(l: int, k: int, rank: int) -> tuple:
    """rank-th (0-based) k-subset of {1..l} in lexicographic order."""
    if rank < 0 or rank >= math.comb(l, k):
        raise DomainError(f"rank {rank} out of range for C({l},{k})")
    out = []
    start = 1
    for slot in range(k, 0, -1):
        for v in range(start, l - slot + 2):
            block = math.comb(l - v, slot - 1)
            if rank < block:
                out.append(v)
                start = v + 1
                break
            rank -= block
    return tuple(out)


def simulated_design(p: MvtParams, l: int, seed: int, index, intercept: bool = False):
    """Design matrix `index` of `simulate_weight_distribution`, not yet validated.

    Its rows are t draws from the stream derive_seed(seed, 2 * index); an intercept
    prepends a column of ones.  A 1-D integer array of indices gives those designs
    stacked, shape (len(index), l, c).  The weight functions validate them.
    """
    x = mvt_sample_rows(p, l, derive_seed(seed, 2 * np.asarray(index)))
    if intercept:
        x = np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)
    return x


def simulate_weight_distribution(
    p: MvtParams,
    l: int,
    n_matrices: int,
    seed: int,
    mode: str = "sampled-sets",
    intercept: bool = False,
) -> np.ndarray:
    """Elemental weights of simulated t-distributed design matrices.

    Each matrix has l rows of dim-variate t draws (plus an optional
    constant column); elemental sets have dim+1 rows.  Mode "all" emits
    every subset's weight per matrix, "sampled-sets" one uniformly chosen
    subset per matrix.  Matrix j is `simulated_design(p, l, seed, j)` and
    draws its subset from Philox(SeedSequence([derive_seed(seed, 2j + 1)]));
    each of the two seed levels is keyed for all matrices in one array call.
    """
    if mode not in ("all", "sampled-sets"):
        raise DomainError(f"mode must be 'all' or 'sampled-sets', got {mode!r}")
    if l < p.dim + 1:
        raise DomainError(f"need l >= dim+1 rows, got l={l}, dim={p.dim}")
    if n_matrices < 0:
        raise DomainError(f"n_matrices must be nonnegative, got {n_matrices}")
    k = p.dim + 1
    j = np.arange(int(n_matrices), dtype=np.uint64)
    if mode == "all":
        subsets = [list(_subsets(l, k, ENUMERATION_CAP))] * j.size
    else:
        count = math.comb(l, k)
        subsets = [[tuple(i - 1 for i in subset_by_rank(l, k, int(rng.integers(0, count))))]
                   for rng in _seeded_streams(derive_seed(seed, 2 * j + 1))]
    designs = simulated_design(p, l, seed, j, intercept)
    out = []
    for x, sets in zip(designs, subsets):
        arr, log_full = _validated(x)
        out.extend(_weights(arr, log_full, sets))
    return np.array(out)


def load_design_csv(path) -> np.ndarray:
    """Parse a headerless CSV of reals into a 2-D array; the weight functions validate it."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DomainError(f"could not parse design matrix CSV {path}: {exc}") from exc
