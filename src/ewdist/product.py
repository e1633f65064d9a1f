"""Distribution of a product of i.i.d. Beta factors (the weight law).

The chain decomposition writes an elemental weight as a product of n2
ratios, each approximately Beta((rho+0.5)/2, rho/2).  The product law is
handled three ways that cross-check each other: Monte Carlo sampling,
closed-form Mellin moments, and a numeric density/CDF built by log-domain
convolution (products become sums in z = -ln(omega); per-cell masses of
each factor are exact incomplete-beta differences, so the only error is
the within-cell quantization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import betaincinv

from .approx import approx_shape
from .dist import beta_pdf, beta_cdf
from .errors import DomainError, NumericError
from .rng import sample_chunks
from .specfun import _validate_count, _validate_open_unit, ln_beta, reg_inc_beta

__all__ = [
    "ProductSpec",
    "omega_sample",
    "omega_moment",
    "omega_log_moment",
    "omega_pdf_numeric",
    "omega_cdf_numeric",
]

_GRID_NODES = 1 << 14  # cells of the -ln(factor) grid
_FACTOR_TAIL = 1e-12


@dataclass(frozen=True)
class ProductSpec:
    """Predictor count rho and number of factors n2."""

    rho: int
    n2: int

    def __post_init__(self):
        for name in ("rho", "n2"):
            object.__setattr__(self, name, _validate_count(name, getattr(self, name)))

    @property
    def factor_shape(self):
        return approx_shape(self.rho)


def omega_sample(spec: ProductSpec, n: int, seed: int) -> np.ndarray:
    """n draws of the product of n2 independent Beta factors."""
    shape = spec.factor_shape

    def draw(rng, count):
        return rng.beta(shape.alpha, shape.beta, (spec.n2, count)).prod(axis=0)

    return sample_chunks(n, seed, draw)


def omega_moment(spec: ProductSpec, k) -> float:
    """Closed-form E[Omega^k] = [B(a+k, b)/B(a, b)]^n2 for k > -a."""
    k = float(k)
    shape = spec.factor_shape
    if not np.isfinite(k) or k <= -shape.alpha:
        raise DomainError(f"moment order must exceed -alpha = {-shape.alpha}, got {k}")
    return math.exp(
        spec.n2 * (ln_beta(shape.alpha + k, shape.beta) - ln_beta(shape.alpha, shape.beta))
    )


def omega_log_moment(spec: ProductSpec) -> float:
    """Closed-form E[-ln Omega] = n2 * (psi(a+b) - psi(a))."""
    from scipy.special import digamma

    shape = spec.factor_shape
    return spec.n2 * float(digamma(shape.alpha + shape.beta) - digamma(shape.alpha))


@lru_cache(maxsize=32)
def _log_grid(rho: int, n2: int):
    """Convolved cell masses of Z = sum of -ln(factor), cached per spec.

    Returns (positions, masses, cum, dz): point masses at positions
    z_J = (J + n2/2) dz, where each factor's per-cell mass is the exact
    incomplete-beta difference and the n2-fold convolution is done by FFT
    power on a zero-padded grid (linear, not circular).
    """
    spec = ProductSpec(rho, n2)
    shape = spec.factor_shape
    # z with P(-ln T > z) = P(T < e^-z) = _FACTOR_TAIL
    z_max = -math.log(betaincinv(shape.alpha, shape.beta, _FACTOR_TAIL))
    dz = z_max / _GRID_NODES
    edges = np.linspace(0.0, z_max, _GRID_NODES + 1)
    # tail(z) = P(Z1 > z); differencing tails keeps tiny masses accurate
    tails = reg_inc_beta(np.exp(-edges), shape.alpha, shape.beta)
    masses = tails[:-1] - tails[1:]
    masses = np.clip(masses, 0.0, None)

    out_len = n2 * (_GRID_NODES - 1) + 1
    size = next_fast_len(out_len + _GRID_NODES)
    spectrum = rfft(masses, size)
    conv = irfft(spectrum**n2, size)[:out_len]
    conv = np.clip(conv, 0.0, None)
    total = conv.sum()
    if not 0.99 < total < 1.01:
        raise NumericError("convolution mass drifted", total=float(total), spec=str(spec))
    conv = conv / total  # absorb the truncated per-factor tail (< n2 * 1e-12)
    positions = (np.arange(conv.size) + 0.5 * n2) * dz
    return positions, conv, np.cumsum(conv), dz


def _cdf_z(z, rho: int, n2: int):
    """P(Z <= z) with each point mass spread over its dz-wide cell."""
    positions, masses, cum, dz = _log_grid(rho, n2)
    knots = np.concatenate(([positions[0] - 0.5 * dz], positions + 0.5 * dz))
    values = np.concatenate(([0.0], cum))
    return np.interp(z, knots, values)


def _pdf_z(z, rho: int, n2: int):
    positions, masses, _, dz = _log_grid(rho, n2)
    return np.interp(z, positions, masses / dz, left=0.0, right=0.0)


def _check_grid(grid) -> np.ndarray:
    return np.atleast_1d(_validate_open_unit("evaluation points", grid))


def omega_pdf_numeric(spec: ProductSpec, grid):
    """Density of the product at the given (0,1) points.

    A single factor needs no convolution and is returned in closed form.
    """
    arr = _check_grid(grid)
    if spec.n2 == 1:
        out = beta_pdf(arr, spec.factor_shape)
    else:
        z = -np.log(arr)
        out = _pdf_z(z, spec.rho, spec.n2) / arr
    if np.asarray(grid).ndim == 0:
        return float(np.asarray(out).reshape(-1)[0])
    return out


def omega_cdf_numeric(spec: ProductSpec, w):
    """Distribution function of the product at the given (0,1) points."""
    arr = _check_grid(w)
    if spec.n2 == 1:
        out = beta_cdf(arr, spec.factor_shape)
    else:
        out = 1.0 - _cdf_z(-np.log(arr), spec.rho, spec.n2)
    if np.asarray(w).ndim == 0:
        return float(np.asarray(out).reshape(-1)[0])
    return out
