"""Empirical-distribution comparison: ECDF, KS, Anderson-Darling, ECDF L1 distance.

One-sample KS evaluates both one-sided gaps exactly at the jump points.
The two-sample Anderson-Darling statistic is the midrank (tie-tolerant)
version, standardized as (A2 - mean)/sd so agreement gives values near or
below zero.  Critical values use asymptotic Kolmogorov quantiles for KS
and the standardized two-sample point for AD, at the fixed alpha grid
{0.01, 0.05}.
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
    "tv_distance",
    "KS_CRITICAL",
    "AD_CRITICAL",
]

# asymptotic Kolmogorov quantiles c(alpha): P(sup|B(t)| > c) = alpha
KS_CRITICAL = {0.01: 1.628, 0.05: 1.358}
# standardized two-sample Anderson-Darling critical points: Scholz & Stephens
# (1987), "K-sample Anderson-Darling tests", JASA 82, 918-924, interpolation
# b0 + b1/sqrt(m) + b2/m at m = k - 1 = 1 (as scipy.stats.anderson_ksamp reports)
AD_CRITICAL = {0.01: 3.752, 0.05: 1.961}


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted sample defining a right-continuous step CDF with 1/n jumps."""

    values: np.ndarray
    n: int

    def eval(self, x):
        return ecdf_eval(self, x)


@dataclass(frozen=True)
class GofResult:
    statistic: float
    n: int
    alpha: float
    critical_value: float
    identical: bool
    n2: int | None = None


def _clean_sample(sample, name="sample") -> np.ndarray:
    arr = np.asarray(sample, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    return arr


def _critical(table: dict, alpha: float) -> float:
    if alpha not in table:
        raise DomainError(f"alpha must be one of {sorted(table)}, got {alpha}")
    return table[alpha]


def ecdf(sample) -> EmpiricalCdf:
    arr = np.sort(_clean_sample(sample))
    return EmpiricalCdf(values=arr, n=arr.size)


def ecdf_eval(e: EmpiricalCdf, x):
    """Fraction of sample values <= x (right-continuous)."""
    out = np.searchsorted(e.values, np.asarray(x, dtype=float), side="right") / e.n
    return float(out) if out.ndim == 0 else out


def ks_one_sample(sample, cdf, alpha: float = 0.01) -> GofResult:
    """sup |ECDF - cdf|, evaluated exactly at the sample's jump points."""
    x = np.sort(_clean_sample(sample))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = float((i / n - f).max())
    d_minus = float((f - (i - 1) / n).max())
    stat = max(d_plus, d_minus)
    crit = _critical(KS_CRITICAL, alpha) / np.sqrt(n)
    return GofResult(stat, n, alpha, float(crit), bool(stat < crit))


def ks_two_sample(a, b, alpha: float = 0.01) -> GofResult:
    """sup |ECDF_a - ECDF_b| over the merged sample grid."""
    xa = np.sort(_clean_sample(a, "a"))
    xb = np.sort(_clean_sample(b, "b"))
    grid = np.concatenate([xa, xb])
    grid.sort(kind="mergesort")
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.searchsorted(xb, grid, side="right") / xb.size
    stat = float(np.abs(fa - fb).max())
    crit = _critical(KS_CRITICAL, alpha) * np.sqrt((xa.size + xb.size) / (xa.size * xb.size))
    return GofResult(stat, xa.size, alpha, float(crit), bool(stat < crit), n2=xb.size)


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


def ad_two_sample(a, b, alpha: float = 0.01) -> GofResult:
    """Standardized two-sample Anderson-Darling statistic (midrank form)."""
    xa = _clean_sample(a, "a")
    xb = _clean_sample(b, "b")
    n1, n2 = xa.size, xb.size
    n_total = n1 + n2
    pooled = np.sort(np.concatenate([xa, xb]))
    z, counts = np.unique(pooled, return_counts=True)
    if z.size < 2:
        raise DomainError("pooled sample needs at least 2 distinct values")
    f1 = np.searchsorted(np.sort(xa), z, side="right").astype(float)
    f1 = np.diff(np.concatenate(([0.0], f1)))  # per-value counts in sample a
    f2 = counts - f1
    lj = counts.astype(float)
    b_mid = np.cumsum(lj) - lj / 2.0
    a2 = 0.0
    for fi, ni in ((f1, n1), (f2, n2)):
        m_mid = np.cumsum(fi) - fi / 2.0
        denom = b_mid * (n_total - b_mid) - n_total * lj / 4.0
        inner = lj / n_total * (n_total * m_mid - ni * b_mid) ** 2 / denom
        a2 += inner.sum() / ni
    a2 *= (n_total - 1.0) / n_total
    var = _ad_variance(2, (n1, n2))
    stat = float((a2 - 1.0) / np.sqrt(var))
    crit = _critical(AD_CRITICAL, alpha)
    return GofResult(stat, n1, alpha, float(crit), bool(stat < crit), n2=n2)


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
