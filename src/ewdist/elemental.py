"""Elemental-set machinery: subset weights, chain ratios, simulation.

The weight of a row subset E of a design matrix X is the Gram-determinant
ratio |X_E' X_E| / |X' X|.  Determinants are taken with slogdet (pivoted
LU accumulating log magnitude and sign) so enumerating many subsets
neither overflows nor loses precision.  When the subset size equals the
column count the weights over all subsets sum to 1 (Cauchy-Binet); for
larger subsets of size k they sum to C(l - c, k - c).

Matrices are validated as one (n, l, c) stack (a single matrix is a stack
of one), and every weight comes from `_weights` over (matrix, subset) pairs
of it: one stacked matmul and slogdet per chunk of 2**15 pairs, which give
the same bits as per-subset 2-D calls, then `math.exp`, as `np.exp` differs
from it by one ulp on about 5% of the weights.
"""

from __future__ import annotations

import bisect
import math
import warnings

import numpy as np

from .dist import MvtParams, mvt_sample_rows
from .errors import DomainError, RankError, SizeError
from .rng import _seeded_draws, derive_seed
from .specfun import _validate_count

__all__ = [
    "as_design_matrix",
    "weight_of_set",
    "all_weights",
    "chain_ratios",
    "expected_weight_sum",
    "simulate_weight_distribution",
    "simulated_design",
    "load_design_csv",
]

ENUMERATION_CAP = 1_000_000
_SUBSET_CHUNK = 1 << 15


def as_design_matrix(x) -> np.ndarray:
    """Validate an l x c design matrix: 2-D, finite, full column rank."""
    return _validated(_stack_of_one(x))[0][0]


def _stack_of_one(x) -> np.ndarray:
    """A 2-D design matrix as a (1, l, c) stack, not yet validated."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise DomainError(f"design matrix must be 2-D, got shape {arr.shape}")
    return arr[None]


def _validated(stack: np.ndarray):
    """(stack, log|X'X| per matrix) of an (n, l, c) stack of valid design matrices."""
    l, c = stack.shape[1:]
    if l < c:
        raise DomainError(f"need at least as many rows as columns, got {l}x{c}")
    if not np.all(np.isfinite(stack)):
        raise DomainError("design matrix contains non-finite entries")
    sign, log_full = np.linalg.slogdet(np.swapaxes(stack, -1, -2) @ stack)
    if np.any(sign <= 0):
        raise RankError("design matrix is rank deficient (|X'X| <= 0)")
    return stack, log_full


def _check_subset(e, l: int) -> tuple:
    idx = tuple(sorted(int(i) for i in e))
    if len(idx) != len(set(idx)):
        raise DomainError(f"subset has repeated indices: {e!r}")
    if not idx or idx[0] < 1 or idx[-1] > l:
        raise DomainError(f"subset indices must lie in 1..{l}, got {e!r}")
    return idx


def _weights(stack: np.ndarray, log_full: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Weights of 0-based row subsets of a stack and its log|X'X|, as `_validated` gives them.

    `subsets` has shape (n, s, k), or (1, s, k) for the same s subsets of every
    matrix; weight j * s + i is that of the pair (matrix j, subsets[j, i]).
    """
    n, s = len(stack), subsets.shape[1]
    subsets = np.broadcast_to(subsets, (n,) + subsets.shape[1:])
    out = []
    for lo in range(0, n * s, _SUBSET_CHUNK):
        mat, sub = np.divmod(np.arange(lo, min(lo + _SUBSET_CHUNK, n * s)), s)
        rows = stack[mat[:, None], subsets[mat, sub]]
        sign, log_e = np.linalg.slogdet(np.swapaxes(rows, -1, -2) @ rows)
        out += [math.exp(d) if sg > 0 else 0.0
                for sg, d in zip(sign.tolist(), (log_e - log_full[mat]).tolist())]
    return np.array(out)


def _subsets(l: int, k: int) -> np.ndarray:
    """(C(l, k), k) array of the 0-based k-subsets of range(l), lexicographic;
    SizeError past `ENUMERATION_CAP` of them."""
    count = math.comb(l, k)
    if count > ENUMERATION_CAP:
        raise SizeError(
            f"C({l},{k}) = {count} subsets exceeds the cap {ENUMERATION_CAP}; "
            "use sampled-sets mode instead"
        )
    return _subsets_by_rank(l, k, np.arange(count))


def weight_of_set(x, e) -> float:
    """Gram-determinant share |X_E'X_E| / |X'X| of the row subset e (1-based)."""
    stack, log_full = _validated(_stack_of_one(x))
    l, c = stack.shape[1:]
    idx = _check_subset(e, l)
    if len(idx) < c:
        raise DomainError(f"subset of size {len(idx)} cannot span {c} columns")
    return float(_weights(stack, log_full, np.array([[idx]]) - 1)[0])


def all_weights(x, set_size: int | None = None):
    """(subsets, weights) of every row subset of the given size (default: the column count).

    `subsets` is the (C(l, k), k) array of the 1-based subsets in lexicographic
    order, `weights` their weights.  With the default size the weights sum to 1
    by Cauchy-Binet.
    """
    stack, log_full = _validated(_stack_of_one(x))
    l, c = stack.shape[1:]
    k = c if set_size is None else int(set_size)
    if k < c or k > l:
        raise DomainError(f"set size must lie in [{c}, {l}], got {k}")
    subsets = _subsets(l, k)
    return subsets + 1, _weights(stack, log_full, subsets[None])


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


def _rank_count(l: int, k: int) -> int:
    """C(l, k), the number of ranks; SizeError past 2**63, the rank draw's range."""
    if (count := math.comb(l, k)) > 2**63:
        raise SizeError(f"C({l},{k}) = {count} subsets exceeds 2**63, the rank draw's range")
    return count


def _subsets_by_rank(l: int, k: int, ranks: np.ndarray) -> np.ndarray:
    """(len(ranks), k) 0-based k-subsets of range(l) of the given lexicographic ranks.
    With x_i = l - 1 - element i, C(l, k) - 1 - rank = sum_i C(x_i, k - i) in the
    combinatorial number system (Buckles & Lybanon 1977): each x_i is the largest x
    with C(x, k - i) <= the remainder, read from a table exact up to 2**63."""
    count = _rank_count(l, k)
    table = np.ones((k + 1, l), dtype=np.uint64)
    for s in range(1, k + 1):  # C(x, s) = sum of C(y, s - 1) over y < x
        table[s, :1], table[s, 1:] = 0, np.cumsum(table[s - 1, :-1])
        table[s, bisect.bisect(range(l), 2**63, key=lambda x: math.comb(x, s)):] = 2**64 - 1
    rest = (count - 1 - np.asarray(ranks, dtype=np.int64)).astype(np.uint64)
    out = np.empty((rest.size, k), dtype=np.intp)
    for i in range(k):
        x = np.searchsorted(table[k - i], rest, side="right") - 1
        rest -= table[k - i, x]
        out[:, i] = l - 1 - x
    return out


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

    Each matrix has l rows of standard dim-variate t draws (plus an optional
    constant column); elemental sets have dim+1 rows.  Mode "all" emits
    every subset's weight per matrix, "sampled-sets" one uniformly chosen
    subset per matrix.  Matrix j is `simulated_design(p, l, seed, j)` and
    draws its subset from Philox(SeedSequence([derive_seed(seed, 2j + 1)]));
    each of the two seed levels is keyed for all matrices in one array call.
    Raises DomainError unless l is a count of at least dim+1 rows, and SizeError
    for an l x dim design of 2**63 bytes or more, or in sampled-sets mode past
    C(l, dim+1) = 2**63 subsets; all before any rank or design is drawn.
    """
    return _simulate(p, l, n_matrices, seed, mode, intercept, n_matrices)[1]


def _simulate(p, l, n_matrices, seed, mode, intercept, n_designs):
    """(stack, weights): designs 0..n_designs-1 drawn and validated as one stack, and
    the `simulate_weight_distribution` weights of the first n_matrices."""
    if mode not in ("all", "sampled-sets"):
        raise DomainError(f"mode must be 'all' or 'sampled-sets', got {mode!r}")
    l = _validate_count("l", l)
    if l < p.dim + 1:  # an elemental set has dim + 1 of the l rows
        raise DomainError(f"need l >= dim+1 rows, got l={l}, dim={p.dim}")
    if 8 * l * p.dim >= 2**63:
        raise SizeError(f"an l x rho = {l} x {p.dim} float64 design exceeds 2**63 bytes")
    n_matrices = _validate_count("n_matrices", n_matrices, least=0)
    k, j = p.dim + 1, np.arange(int(n_designs), dtype=np.uint64)
    if mode == "all":
        subsets = _subsets(l, k)[None]
    else:
        count = _rank_count(l, k)
        ranks = _seeded_draws(derive_seed(seed, 2 * j[:n_matrices] + 1),
                              lambda rng: rng.integers(0, count))
        subsets = _subsets_by_rank(l, k, ranks)[:, None]
    stack, log_full = _validated(simulated_design(p, l, seed, j, intercept))
    return stack, _weights(stack[:n_matrices], log_full[:n_matrices], subsets)


def load_design_csv(path) -> np.ndarray:
    """Parse a headerless CSV of reals into a 2-D array; the weight functions validate it."""
    try:
        with warnings.catch_warnings():  # numpy warns of a file with no data lines, and returns 0x1
            warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8-sig")
    except UserWarning:
        raise DomainError(f"design matrix CSV {path} holds no rows") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"design matrix CSV {path} is not UTF-8 text: {exc}") from None
    except ValueError as exc:
        raise DomainError(f"could not parse design matrix CSV {path}: {exc}") from exc
