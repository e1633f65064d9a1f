import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc

from ewdist.dist import BetaShape, beta_cdf, beta_pdf, beta_sample
from ewdist.errors import DomainError
from ewdist.goftests import ks_one_sample, ks_two_sample
from ewdist.product import (
    ProductSpec,
    omega_cdf_numeric,
    omega_log_moment,
    omega_moment,
    omega_pdf_numeric,
    omega_sample,
)
from ewdist.specfun import ln_gamma


def erlang_pdf_omega(w, n2, rate=1.25):
    """Closed-form product density for rho = 2 (factors are Exp in -log)."""
    z = -np.log(w)
    return rate**n2 * z ** (n2 - 1) * np.exp(-rate * z) / math.factorial(n2 - 1) / w


def test_sample_range_and_determinism():
    spec = ProductSpec(2, 3)
    a = omega_sample(spec, 40_000, 3)
    assert np.all((a > 0) & (a < 1))
    assert np.array_equal(a, omega_sample(spec, 40_000, 3))


def test_single_factor_reduces_to_beta():
    spec = ProductSpec(2, 1)
    a = omega_sample(spec, 10**5, 17)
    b = beta_sample(BetaShape(1.25, 1.0), 10**5, 99)
    assert ks_two_sample(a, b).statistic < 0.02


def test_sample_mean_matches_closed_form():
    spec = ProductSpec(2, 3)
    draws = omega_sample(spec, 10**6, 5)
    target = (5.0 / 9.0) ** 3
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - target) < 3 * se


def test_moment_trivial_and_beta_mean():
    assert omega_moment(ProductSpec(2, 3), 0) == 1.0
    assert omega_moment(ProductSpec(2, 1), 1) == pytest.approx(5.0 / 9.0, rel=1e-14)


def test_moment_k2_against_monte_carlo():
    spec = ProductSpec(2, 3)
    # [B(3.25,1)/B(1.25,1)]^3 = (1.25/3.25)^3
    closed = omega_moment(spec, 2)
    assert closed == pytest.approx((1.25 / 3.25) ** 3, rel=1e-13)
    draws = omega_sample(spec, 10**7, 23)
    vals = draws**2
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - closed) < 3 * se


def test_moment_domain():
    with pytest.raises(DomainError):
        omega_moment(ProductSpec(2, 3), -1.5)


def test_pdf_single_factor_is_exact_beta():
    spec = ProductSpec(2, 1)
    grid = np.linspace(0.001, 0.999, 999)
    mine = omega_pdf_numeric(spec, grid)
    ref = beta_pdf(grid, BetaShape(1.25, 1.0))
    assert np.abs(mine / ref - 1.0).max() < 1e-6


def test_pdf_integrates_to_one():
    spec = ProductSpec(2, 3)
    val, _ = quad(
        lambda w: omega_pdf_numeric(spec, w), 0, 1,
        limit=400, points=[1e-5, 1e-3, 0.1, 0.9],
    )
    assert val == pytest.approx(1.0, abs=1e-4)


def test_pdf_first_moment_matches_closed_form():
    spec = ProductSpec(2, 3)
    val, _ = quad(
        lambda w: w * omega_pdf_numeric(spec, w), 0, 1,
        limit=400, points=[1e-5, 1e-3, 0.1, 0.9],
    )
    assert val == pytest.approx(omega_moment(spec, 1), abs=1e-4)


@pytest.mark.parametrize("n2", [2, 3, 5])
def test_pdf_against_erlang_closed_form(n2):
    spec = ProductSpec(2, n2)
    grid = np.linspace(0.01, 0.95, 189)
    mine = omega_pdf_numeric(spec, grid)
    ref = erlang_pdf_omega(grid, n2)
    assert np.abs(mine / ref - 1.0).max() < 5e-3


@pytest.mark.parametrize("n2", [2, 3, 5])
def test_cdf_against_erlang_closed_form(n2):
    spec = ProductSpec(2, n2)
    grid = np.linspace(0.001, 0.999, 499)
    mine = omega_cdf_numeric(spec, grid)
    ref = gammaincc(n2, 1.25 * (-np.log(grid)))
    assert np.abs(mine - ref).max() < 1e-5


def test_cdf_limits_monotone_and_single_factor():
    spec = ProductSpec(2, 3)
    assert omega_cdf_numeric(spec, 1 - 1e-8) >= 0.9999
    grid = np.linspace(1e-6, 1 - 1e-6, 2000)
    vals = omega_cdf_numeric(spec, grid)
    assert np.all(np.diff(vals) >= 0)
    assert vals[0] < 1e-4
    one = ProductSpec(3, 1)
    w = np.linspace(0.05, 0.95, 19)
    assert np.abs(
        omega_cdf_numeric(one, w) - beta_cdf(w, BetaShape(1.75, 1.5))
    ).max() < 1e-13


def test_cdf_domain():
    with pytest.raises(DomainError):
        omega_cdf_numeric(ProductSpec(2, 3), 0.0)
    with pytest.raises(DomainError):
        omega_pdf_numeric(ProductSpec(2, 3), 1.0)


def test_cdf_at_sample_median():
    spec = ProductSpec(2, 3)
    draws = omega_sample(spec, 10**6, 31)
    med = float(np.median(draws))
    assert omega_cdf_numeric(spec, med) == pytest.approx(0.5, abs=0.01)


def test_cdf_vs_monte_carlo_sup_distance():
    spec = ProductSpec(2, 3)
    draws = omega_sample(spec, 2 * 10**5, 13)
    gap = ks_one_sample(draws, lambda x: omega_cdf_numeric(spec, x)).statistic
    assert gap < 0.01


def test_log_moment_against_differenced_ln_gamma_and_mc():
    spec = ProductSpec(2, 3)
    shape = spec.factor_shape
    h = 1e-6
    digamma = lambda x: (ln_gamma(x + h) - ln_gamma(x - h)) / (2 * h)
    oracle = spec.n2 * (digamma(shape.alpha + shape.beta) - digamma(shape.alpha))
    assert omega_log_moment(spec) == pytest.approx(oracle, abs=1e-8)
    draws = -np.log(omega_sample(spec, 10**6, 41))
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - omega_log_moment(spec)) < 4 * se


def test_spec_validation():
    with pytest.raises(DomainError):
        ProductSpec(0, 3)
    with pytest.raises(DomainError):
        ProductSpec(2, 0)


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    from ewdist.product import _GRID_NODES, _next_fast_len

    targets = list(range(1, 3000)) + [n2 * (_GRID_NODES - 1) + 1 + _GRID_NODES
                                      for n2 in (2, 3, 40, 97, 150, 1000)]
    assert [_next_fast_len(t) for t in targets] == [next_fast_len(t) for t in targets]
