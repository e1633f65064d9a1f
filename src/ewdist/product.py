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
    "omega_pdf_numeric",
    "omega_cdf_numeric",
]

_GRID_NODES = 1 << 14  # cells of the -ln(factor) grid
_FACTOR_TAIL = 1e-12


def _next_fast_len(target: int) -> int:
    """Smallest 2,3,5,7,11-smooth integer >= target: a length pocketfft transforms fast."""
    odd = [1]
    for p in (3, 5, 7, 11):
        odd = [m * p**e for m in odd for e in range((2 * target // m).bit_length())
               if m * p**e < 2 * target]
    return min(m << (-(-target // m) - 1).bit_length() for m in odd)


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


@lru_cache(maxsize=32)
def _log_grid(rho: int, n2: int):
    """Law of Z = sum of -ln(factor) as interpolation tables, cached per spec.

    The n2-fold convolution of each factor's per-cell masses (the exact
    incomplete-beta differences), done by FFT power on a zero-padded grid
    (linear, not circular), puts point masses at centres
    z_J = (J + n2/2) dz.  Returns (edges, cdf, centres, pdf): the CDF of Z
    with each mass spread over its dz-wide cell, as its values at the cell
    edges, and the density mass/dz at the centres.  `np.interp` reads both.
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
    size = _next_fast_len(out_len + _GRID_NODES)
    spectrum = np.fft.rfft(masses, size)
    conv = np.fft.irfft(spectrum**n2, size)[:out_len]
    conv = np.clip(conv, 0.0, None)
    total = conv.sum()
    if not 0.99 < total < 1.01:
        raise NumericError("convolution mass drifted", total=float(total), spec=str(spec))
    conv = conv / total  # absorb the truncated per-factor tail (< n2 * 1e-12)
    centres = (np.arange(conv.size) + 0.5 * n2) * dz
    edges = np.concatenate(([centres[0] - 0.5 * dz], centres + 0.5 * dz))
    return edges, np.concatenate(([0.0], np.cumsum(conv))), centres, conv / dz


def omega_pdf_numeric(spec: ProductSpec, grid):
    """Density of the product at the given (0,1) points.

    A single factor needs no convolution and is returned in closed form.
    """
    arr = _validate_open_unit("evaluation points", grid)
    if spec.n2 == 1:
        out = beta_pdf(arr, spec.factor_shape)
    else:
        _, _, centres, pdf = _log_grid(spec.rho, spec.n2)
        out = np.interp(-np.log(arr), centres, pdf, left=0.0, right=0.0) / arr
    return float(out) if np.ndim(out) == 0 else out


def omega_cdf_numeric(spec: ProductSpec, w):
    """Distribution function of the product at the given (0,1) points."""
    arr = _validate_open_unit("evaluation points", w)
    if spec.n2 == 1:
        out = beta_cdf(arr, spec.factor_shape)
    else:
        edges, cdf, _, _ = _log_grid(spec.rho, spec.n2)
        out = 1.0 - np.interp(-np.log(arr), edges, cdf)
    return float(out) if np.ndim(out) == 0 else out
