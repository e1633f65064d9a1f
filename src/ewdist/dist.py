"""F and Beta distributions (pdf/cdf/sampler) and a multivariate-t row sampler.

Samplers are deterministic given a seed (see rng.py).  F variates are
generated as a ratio of two gamma draws scaled by the degrees of freedom,
which is cheap at Monte Carlo scale and needs no quantile function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import derive_seed, sample_chunks
from .specfun import _validate_open_unit, _validate_positive, ln_beta, reg_inc_beta

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
    """Multivariate-t parameters: dimension, dof and an SPD scale matrix."""

    dim: int
    dof: float
    scale: np.ndarray

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ConfigError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "dof", _positive("dof", self.dof))
        scale = np.asarray(self.scale, dtype=float)
        if scale.shape != (self.dim, self.dim):
            raise ConfigError(f"scale must be {self.dim}x{self.dim}, got shape {scale.shape}")
        if not np.allclose(scale, scale.T, rtol=1e-10, atol=1e-12):
            raise ConfigError("scale matrix must be symmetric")
        object.__setattr__(self, "scale", scale)

    def cholesky(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.scale)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("scale matrix is not positive definite") from exc


def f_pdf(y, p: FParams):
    """F density at y > 0, evaluated in log space."""
    arr = _validate_positive("y", y)
    m, nu = p.m, p.nu
    logpdf = (
        0.5 * m * np.log(m / nu)
        + (0.5 * m - 1.0) * np.log(arr)
        - 0.5 * (m + nu) * np.log1p(m * arr / nu)
        - ln_beta(0.5 * m, 0.5 * nu)
    )
    out = np.exp(logpdf)
    return float(out) if out.ndim == 0 else out


def f_cdf(y, p: FParams):
    """F distribution function; 0 for y <= 0."""
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.zeros(arr.shape, dtype=float)
    pos = arr > 0.0
    if pos.any():
        t = p.m * arr[pos]
        out[pos] = reg_inc_beta(t / (t + p.nu), 0.5 * p.m, 0.5 * p.nu)
    if np.asarray(y).ndim == 0:
        return float(out[0])
    return out


def f_sample(p: FParams, n: int, seed: int) -> np.ndarray:
    """n i.i.d. F(m, nu) draws as a scaled ratio of gamma variates."""

    def draw(rng, count):
        g1 = rng.standard_gamma(0.5 * p.m, count)
        g2 = rng.standard_gamma(0.5 * p.nu, count)
        return g1 * p.nu / (g2 * p.m)

    return sample_chunks(n, seed, draw)


def beta_pdf(x, s: BetaShape):
    """Beta density on (0, 1), log-space evaluation."""
    arr = _validate_open_unit("x", x)
    logpdf = (
        (s.alpha - 1.0) * np.log(arr)
        + (s.beta - 1.0) * np.log1p(-arr)
        - ln_beta(s.alpha, s.beta)
    )
    out = np.exp(logpdf)
    return float(out) if out.ndim == 0 else out


def beta_cdf(x, s: BetaShape):
    return reg_inc_beta(x, s.alpha, s.beta)


def beta_sample(s: BetaShape, n: int, seed: int) -> np.ndarray:
    def draw(rng, count):
        return rng.beta(s.alpha, s.beta, count)

    return sample_chunks(n, seed, draw)


def w_sample(m1: float, m2: float, nu: float, n: int, seed: int) -> np.ndarray:
    """Draws of W = Y1/(Y1+Y2) for independent Y1 ~ F(m1, nu), Y2 ~ F(m2, nu)."""
    return _w_draws(FParams(m1, nu), FParams(m2, nu), n, seed)


def _w_draws(p1: FParams, p2: FParams, n: int, seed: int) -> np.ndarray:
    """`w_sample` for prebuilt laws Y1 ~ p1, Y2 ~ p2."""
    y1 = f_sample(p1, n, derive_seed(seed, 0))
    y2 = f_sample(p2, n, derive_seed(seed, 1))
    return y1 / (y1 + y2)


def mvt_sample_rows(p: MvtParams, n_rows: int, seed: int) -> np.ndarray:
    """n_rows independent draws from the dim-variate t(dof, scale) law.

    Each row is a correlated Gaussian row divided by sqrt(chi2_dof/dof).
    """
    chol = p.cholesky()

    def draw(rng, count):
        z = rng.standard_normal((count, p.dim))
        chi2 = rng.chisquare(p.dof, count)
        return (z @ chol.T) / np.sqrt(chi2 / p.dof)[:, None]

    out = sample_chunks(n_rows, seed, draw)
    return out.reshape(n_rows, p.dim)
