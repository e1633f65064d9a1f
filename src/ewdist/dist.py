"""F and Beta distributions (pdf/cdf/sampler) and a multivariate-t row sampler.

Samplers are deterministic given a seed (see rng.py); given a 1-D array of
seeds they return one row of draws per seed.  F variates are
generated as a ratio of two gamma draws scaled by the degrees of freedom,
which is cheap at Monte Carlo scale and needs no quantile function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .rng import derive_seed, sample_chunks
from .specfun import _validate_count, _validate_open_unit, _validate_positive, ln_beta, reg_inc_beta

__all__ = [
    "FParams",
    "BetaShape",
    "MvtParams",
    "f_pdf",
    "f_cdf",
    "f_sample",
    "beta_pdf",
    "beta_cdf",
    "beta_sample",
    "w_sample",
    "mvt_sample_rows",
]


def _positive(name, value) -> float:
    return float(_validate_positive(name, value))


@dataclass(frozen=True)
class FParams:
    """Degrees of freedom of an F law: numerator m, denominator nu."""

    m: float
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "m", _positive("m", self.m))
        object.__setattr__(self, "nu", _positive("nu", self.nu))


@dataclass(frozen=True)
class BetaShape:
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _positive("alpha", self.alpha))
        object.__setattr__(self, "beta", _positive("beta", self.beta))


@dataclass(frozen=True)
class MvtParams:
    """Multivariate-t parameters: dimension (the paper's rho) and dof.

    The rows have the identity scale: an elemental weight |X_E'X_E| / |X'X|
    is the same for X and X A with A invertible, so no scale matrix can
    change a weight.
    """

    dim: int
    dof: float

    def __post_init__(self):
        object.__setattr__(self, "dim", _validate_count("rho", self.dim))
        object.__setattr__(self, "dof", _positive("nu", self.dof))


def f_pdf(y, p: FParams):
    """F density at y > 0, evaluated in log space."""
    arr = _validate_positive("y", y)
    m, nu = p.m, p.nu
    out = np.exp(_log_beta_prime(arr, m, nu, 0.5 * m, 0.5 * nu, 0.5 * (m + nu)))
    return float(out) if out.ndim == 0 else out


def _log_beta_prime(x, a, b, t1, t2, e):
    """Log density at validated x > 0 of the law under which a*x/b is
    BetaPrime(t1, t2); e is t1 + t2 as the caller computes it."""
    return (
        t1 * np.log(a / b) + (t1 - 1.0) * np.log(x) - e * np.log1p(a * x / b) - ln_beta(t1, t2)
    )


def f_cdf(y, p: FParams):
    """F distribution function; 0 for y <= 0, DomainError for NaN."""
    t = p.m * np.maximum(np.asarray(y, dtype=float), 0.0)
    return reg_inc_beta(t / (t + p.nu), 0.5 * p.m, 0.5 * p.nu)


def f_sample(p: FParams, n: int, seed) -> np.ndarray:
    """n i.i.d. F(m, nu) draws as a ratio of gamma variates, each scaled by
    its own shape so that no product overflows near the float maximum."""

    def draw(rng, count):
        g1 = rng.standard_gamma(0.5 * p.m, count)
        g2 = rng.standard_gamma(0.5 * p.nu, count)
        with np.errstate(divide="ignore", over="ignore"):  # per thread; chunks run in a pool
            return (g1 / p.m) / (g2 / p.nu)

    return sample_chunks(n, seed, draw)


def _log_beta_pdf(x, alpha, beta):
    """Log Beta(alpha, beta) density at validated x in (0, 1)."""
    return (alpha - 1.0) * np.log(x) + (beta - 1.0) * np.log1p(-x) - ln_beta(alpha, beta)


def beta_pdf(x, s: BetaShape):
    """Beta density on (0, 1), log-space evaluation."""
    out = np.exp(_log_beta_pdf(_validate_open_unit("x", x), s.alpha, s.beta))
    return float(out) if out.ndim == 0 else out


def beta_cdf(x, s: BetaShape):
    return reg_inc_beta(x, s.alpha, s.beta)


def beta_sample(s: BetaShape, n: int, seed) -> np.ndarray:
    def draw(rng, count):
        return rng.beta(s.alpha, s.beta, count)

    return sample_chunks(n, seed, draw)


def w_sample(m1: float, m2: float, nu: float, n: int, seed) -> np.ndarray:
    """Draws of W = Y1/(Y1+Y2) for independent Y1 ~ F(m1, nu), Y2 ~ F(m2, nu);
    NumericError if one is not finite (a tiny nu can make both F draws inf)."""
    y1 = f_sample(FParams(m1, nu), n, derive_seed(seed, 0))
    y2 = f_sample(FParams(m2, nu), n, derive_seed(seed, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        w = y1 / (y1 + y2)
    bad = int(np.count_nonzero(~np.isfinite(w)))
    if bad:
        raise NumericError(f"{bad} of {w.size} W draws are not finite",
                           nonfinite=bad, m1=m1, m2=m2, nu=nu)
    return w


def mvt_sample_rows(p: MvtParams, n_rows: int, seed) -> np.ndarray:
    """n_rows independent draws from the standard dim-variate t(dof) law.

    Each row is a standard Gaussian row divided by sqrt(chi2_dof/dof);
    NumericError if a row is not finite (a tiny dof can make chi2 0).
    """

    def draw(rng, count):
        z = rng.standard_normal((count, p.dim))
        chi2 = rng.chisquare(p.dof, count)
        # per thread; chunks run in a pool
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return z / np.sqrt(chi2 / p.dof)[:, None]

    out = sample_chunks(n_rows, seed, draw)
    bad = int(np.count_nonzero(~np.isfinite(out).all(axis=-1)))
    if bad:
        raise NumericError(f"{bad} of {out.size // p.dim} t draws are not finite",
                           nonfinite=bad, nu=p.dof, rho=p.dim, l=n_rows)
    return out.reshape(*np.shape(seed), n_rows, p.dim)
