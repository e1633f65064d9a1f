"""Empirical-distribution comparison: ECDF, KS, Anderson-Darling, ECDF L1 distance.

One-sample KS evaluates both one-sided gaps exactly at the jump points.
The two-sample tests share one row-wise kernel: `two_sample_rows` tests
each row of a (R x n1) array against the same row of a (R x n2) array
with one sort of the pooled rows, reading both ECDFs at the ends of tie
groups, and returns the KS and AD statistics and verdicts as four arrays;
`ks_two_sample` and `ad_two_sample` are one-row tests on the same
statistics.  The two-sample Anderson-Darling statistic is the midrank
(tie-tolerant) version, standardized as (A2 - mean)/sd so agreement gives
values near or below zero.  Critical values use asymptotic Kolmogorov
quantiles for KS and the standardized two-sample point for AD, at the
one level alpha = 0.01.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "EmpiricalCdf",
    "GofResult",
    "ecdf",
    "ecdf_eval",
    "ks_one_sample",
    "ks_two_sample",
    "ad_two_sample",
    "two_sample_rows",
    "tv_distance",
    "KS_CRITICAL",
    "AD_CRITICAL",
]

# asymptotic Kolmogorov quantile c at alpha = 0.01: P(sup|B(t)| > c) = alpha
KS_CRITICAL = 1.628
# standardized two-sample Anderson-Darling critical point at alpha = 0.01: Scholz &
# Stephens (1987), "K-sample Anderson-Darling tests", JASA 82, 918-924, interpolation
# b0 + b1/sqrt(m) + b2/m at m = k - 1 = 1 (as scipy.stats.anderson_ksamp reports)
AD_CRITICAL = 3.752


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted sample defining a right-continuous step CDF with jumps of 1/values.size."""

    values: np.ndarray


@dataclass(frozen=True)
class GofResult:
    statistic: float
    n: int
    critical_value: float
    identical: bool
    n2: int | None = None


def _clean_rows(rows, name) -> np.ndarray:
    """A (R x n) array of R nonempty, finite sample rows."""
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise DomainError(f"{name} must be a 2-D array of sample rows, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise DomainError(f"{name} must be nonempty")
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise DomainError(f"{name} contains non-finite values (row {int(bad.argmax())})")
    return arr


def _one_row(sample) -> np.ndarray:
    return np.asarray(sample, dtype=float).reshape(1, -1)


def _clean_sample(sample, name="sample") -> np.ndarray:
    return _clean_rows(_one_row(sample), name)[0]


def ecdf(sample) -> EmpiricalCdf:
    arr = np.sort(_clean_sample(sample))
    return EmpiricalCdf(arr)


def ecdf_eval(e: EmpiricalCdf, x):
    """Fraction of sample values <= x (right-continuous)."""
    out = np.searchsorted(e.values, np.asarray(x, dtype=float), side="right") / e.values.size
    return float(out) if out.ndim == 0 else out


def ks_one_sample(sample, cdf) -> GofResult:
    """sup |ECDF - cdf|, evaluated exactly at the sample's jump points."""
    x = np.sort(_clean_sample(sample))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = float((i / n - f).max())
    d_minus = float((f - (i - 1) / n).max())
    stat = max(d_plus, d_minus)
    crit = KS_CRITICAL / np.sqrt(n)
    return GofResult(stat, n, float(crit), bool(stat < crit))


def _pooled_rows(a, b):
    """Sorted pooled rows of a (R x n1) and b (R x n2) as counts and tie-group ends.

    Returns (n1, n2, from_a, upto, ends): from_a[r, j] and upto[j] count the
    values of a and of the pool among the first j + 1 sorted values of row r,
    and ends marks the last value of each group of equal values.  The
    statistics read the counts only at group ends, so the order inside a
    group does not matter and the sort need not be stable.
    """
    xa = _clean_rows(a, "a")
    xb = _clean_rows(b, "b")
    if xa.shape[0] != xb.shape[0]:
        raise DomainError(f"a and b need as many rows, got {xa.shape[0]} and {xb.shape[0]}")
    n1, n2 = xa.shape[1], xb.shape[1]
    pooled = np.concatenate([xa, xb], axis=1)
    order = np.argsort(pooled, axis=1)
    z = np.take_along_axis(pooled, order, axis=1)
    ends = np.ones(z.shape, dtype=bool)
    ends[:, :-1] = z[:, 1:] != z[:, :-1]
    from_a = np.cumsum(order < n1, axis=1)
    return n1, n2, from_a, np.arange(1, n1 + n2 + 1), ends


def _group_counts(counts, ends):
    """Per tie group, at its end: the increase of `counts` over the group; 0 elsewhere."""
    last = np.maximum.accumulate(np.where(ends, counts, 0), axis=1)
    before = np.zeros(last.shape)
    before[:, 1:] = last[:, :-1]
    return np.where(ends, counts - before, 0.0)


def _ks_critical(pooled) -> float:
    n1, n2 = pooled[:2]
    return float(KS_CRITICAL * np.sqrt((n1 + n2) / (n1 * n2)))


def _ks_rows(pooled) -> np.ndarray:
    """Two-sample KS of each pooled row: sup |ECDF_a - ECDF_b| at its tie-group ends."""
    n1, n2, from_a, upto, ends = pooled
    gap = np.abs(from_a / n1 - (upto - from_a) / n2)
    return np.where(ends, gap, 0.0).max(axis=1)


def _one_row_result(stats, crit, pooled) -> GofResult:
    stat = float(stats[0])
    return GofResult(stat, pooled[0], crit, stat < crit, n2=pooled[1])


def ks_two_sample(a, b) -> GofResult:
    """sup |ECDF_a - ECDF_b| over the merged sample grid."""
    pooled = _pooled_rows(_one_row(a), _one_row(b))
    return _one_row_result(_ks_rows(pooled), _ks_critical(pooled), pooled)


def _ad_variance(n_samples: int, sizes) -> float:
    """Variance of the k-sample AD statistic (Scholz-Stephens coefficients)."""
    k = n_samples
    n_total = int(sum(sizes))
    h_sum = float(np.sum(1.0 / np.asarray(sizes, dtype=float)))
    i = np.arange(1, n_total)
    h = float(np.sum(1.0 / i))
    # g = sum_{i=1}^{N-2} sum_{j=i+1}^{N-1} 1/((N-i) j), via partial harmonic sums
    harm = np.concatenate(([0.0], np.cumsum(1.0 / i)))  # harm[m] = sum_{j<=m} 1/j
    ii = np.arange(1, n_total - 1)
    g = float(np.sum((harm[n_total - 1] - harm[ii]) / (n_total - ii)))
    a = (4.0 * g - 6.0) * (k - 1) + (10.0 - 6.0 * g) * h_sum
    b = (2.0 * g - 4.0) * k**2 + 8.0 * h * k + (2.0 * g - 14.0 * h - 4.0) * h_sum - 8.0 * h + 4.0 * g - 6.0
    c = (6.0 * h + 2.0 * g - 2.0) * k**2 + (4.0 * h - 4.0 * g + 6.0) * k + (2.0 * h - 6.0) * h_sum + 4.0 * h
    d = (2.0 * h + 6.0) * k**2 - 4.0 * h * k
    return (a * n_total**3 + b * n_total**2 + c * n_total + d) / (
        (n_total - 1.0) * (n_total - 2.0) * (n_total - 3.0)
    )


def _ad_rows(pooled) -> np.ndarray:
    """Standardized midrank two-sample AD of each pooled row; each tie group enters at its end."""
    n1, n2, from_a, upto, ends = pooled
    n_total = n1 + n2
    if n_total < 4:
        raise DomainError(f"the AD variance needs at least 4 pooled values, got {n_total}")
    if (ends.sum(axis=1) < 2).any():
        raise DomainError("pooled sample needs at least 2 distinct values")
    lj = _group_counts(upto, ends)  # tie-group sizes
    f1 = _group_counts(from_a, ends)  # of which from a
    b_mid = upto - lj / 2.0
    denom = b_mid * (n_total - b_mid) - n_total * lj / 4.0
    a2 = 0.0
    for m_mid, ni in ((from_a - f1 / 2.0, n1), (upto - from_a - (lj - f1) / 2.0, n2)):
        inner = lj / n_total * (n_total * m_mid - ni * b_mid) ** 2 / denom
        a2 = a2 + inner.sum(axis=1) / ni
    a2 *= (n_total - 1.0) / n_total
    return (a2 - 1.0) / np.sqrt(_ad_variance(2, (n1, n2)))


def ad_two_sample(a, b) -> GofResult:
    """Standardized two-sample Anderson-Darling statistic (midrank form)."""
    pooled = _pooled_rows(_one_row(a), _one_row(b))
    return _one_row_result(_ad_rows(pooled), AD_CRITICAL, pooled)


def two_sample_rows(a, b) -> tuple:
    """(ks, ks_identical, ad, ad_identical) of each row of a (R x n1) against b (R x n2).

    Four length-R arrays from one sort of the pooled rows: the statistics of
    `ks_two_sample` and `ad_two_sample`, and whether each lies below its
    critical value.
    """
    pooled = _pooled_rows(a, b)
    ks, ad = _ks_rows(pooled), _ad_rows(pooled)
    return ks, ks < _ks_critical(pooled), ad, ad < AD_CRITICAL


def tv_distance(a: EmpiricalCdf, b: EmpiricalCdf) -> float:
    """Half the L1 distance between two ECDFs: 0.5 * integral of |F_a - F_b| over [0, 1].

    Exact on the step grid.  This is not the total-variation distance
    between the laws: point masses at 0 and 1 give 0.5, where TV is 1.
    """
    for e, name in ((a, "a"), (b, "b")):
        if e.values[0] < 0.0 or e.values[-1] > 1.0:
            raise DomainError(f"ECDF {name} has values outside [0, 1]")
    knots = np.unique(np.concatenate([[0.0], a.values, b.values, [1.0]]))
    heights = np.abs(ecdf_eval(a, knots[:-1]) - ecdf_eval(b, knots[:-1]))
    return float(0.5 * np.sum(heights * np.diff(knots)))
