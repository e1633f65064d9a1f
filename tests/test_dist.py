import os

import numpy as np
import pytest
from scipy.integrate import quad

from ewdist.dist import (
    BetaShape,
    FParams,
    MvtParams,
    beta_cdf,
    beta_pdf,
    beta_sample,
    f_cdf,
    f_pdf,
    f_sample,
    mvt_sample_rows,
    w_sample,
)
from ewdist.errors import DomainError
from ewdist.goftests import ks_one_sample
from ewdist.rng import sample_chunks
from ewdist.specfun import ln_beta


def test_f_pdf_small_y_limit_m2():
    # with m = 2 the density tends to 1 as y -> 0+
    for nu in (5.0, 50.0):
        assert f_pdf(1e-12, FParams(2, nu)) == pytest.approx(1.0, abs=1e-9)


# Reference: the F log-density written out, as in its closed form; f_pdf,
# which shares the scaled beta-prime kernel with the u-envelopes, must
# reproduce it bit for bit
def ref_f_logpdf(y, m, nu):
    return (
        0.5 * m * np.log(m / nu)
        + (0.5 * m - 1.0) * np.log(y)
        - 0.5 * (m + nu) * np.log1p(m * y / nu)
        - ln_beta(0.5 * m, 0.5 * nu)
    )


@pytest.mark.parametrize("m, nu", [(2.0, 5.0), (3.0, 50.0), (2.5, 50.0), (6.7, 50.3), (150.0, 11.0)])
def test_f_pdf_matches_closed_form_bit_for_bit(m, nu):
    y = np.logspace(-6.0, 4.0, 200)
    assert np.array_equal(f_pdf(y, FParams(m, nu)), np.exp(ref_f_logpdf(y, m, nu)))
    assert f_pdf(0.7, FParams(m, nu)) == float(np.exp(ref_f_logpdf(0.7, m, nu)))


def test_f_pdf_normalizes():
    p = FParams(3, 50)
    val, _ = quad(lambda y: f_pdf(y, p), 0, np.inf, limit=300)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_f_pdf_mode_matches_derivative_zero():
    p = FParams(3, 50)
    mode = ((p.m - 2.0) / p.m) * (p.nu / (p.nu + 2.0))
    h = 1e-6
    deriv = (f_pdf(mode + h, p) - f_pdf(mode - h, p)) / (2 * h)
    assert abs(deriv) < 1e-6
    grid = np.linspace(0.01, 3.0, 20001)
    assert abs(grid[np.argmax(f_pdf(grid, p))] - mode) < 2e-4


def test_f_pdf_domain():
    with pytest.raises(DomainError):
        f_pdf(0.0, FParams(3, 50))
    with pytest.raises(DomainError):
        f_pdf(-1.0, FParams(3, 50))


def test_f_cdf_equal_dfs_median():
    # Y and 1/Y share the law when both dfs agree
    for m in (3.0, 7.0):
        assert f_cdf(1.0, FParams(m, m)) == pytest.approx(0.5, abs=1e-12)


def test_f_cdf_at_and_below_zero():
    p = FParams(3, 50)
    assert f_cdf(0.0, p) == 0.0
    assert f_cdf(-2.0, p) == 0.0


def test_f_cdf_nan_raises():
    # NaN is not "<= 0": it is outside the domain, as for f_pdf
    for y in (float("nan"), np.array([1.0, np.nan])):
        with pytest.raises(DomainError):
            f_cdf(y, FParams(3, 50))


def test_f_cdf_against_quadrature():
    p = FParams(3, 50)
    oracle, _ = quad(lambda y: f_pdf(y, p), 0, 2.0, limit=300)
    assert f_cdf(2.0, p) == pytest.approx(oracle, abs=1e-8)


def test_f_cdf_strictly_increasing_with_limits():
    p = FParams(4, 20)
    grid = np.linspace(1e-3, 50.0, 400)
    vals = f_cdf(grid, p)
    assert np.all(np.diff(vals) > 0)
    assert f_cdf(1e-9, p) < 1e-6
    assert f_cdf(1e9, p) > 1 - 1e-6


def test_f_sample_positive_and_deterministic():
    p = FParams(3, 50)
    a = f_sample(p, 50_000, 123)
    b = f_sample(p, 50_000, 123)
    assert np.all(a > 0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, f_sample(p, 50_000, 124))


def test_f_sample_mean():
    p = FParams(3, 50)
    draws = f_sample(p, 10**6, 7)
    target = p.nu / (p.nu - 2.0)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - target) < 3 * se


def test_f_sample_matches_cdf():
    p = FParams(3, 50)
    draws = f_sample(p, 10**5, 11)
    assert ks_one_sample(draws, lambda y: f_cdf(y, p)).statistic < 0.01


def _gamma_pairs(p):
    """A sample_chunks draw returning both gamma variates of f_sample, stacked."""
    def draw(gen, count):
        return np.stack([gen.standard_gamma(0.5 * p.m, count),
                         gen.standard_gamma(0.5 * p.nu, count)], axis=1)
    return draw


@pytest.mark.parametrize("m, nu", [(1e308, 50), (3, 1e308), (2.0**508, 2.0**508)])
def test_f_sample_near_float_max_scales_each_draw(m, nu):
    p = FParams(m, nu)
    g1, g2 = sample_chunks(5000, 9, _gamma_pairs(p)).T
    draws = f_sample(p, 5000, 9)  # the suite turns any overflow warning into an error
    assert np.array_equal(draws, (g1 / p.m) / (g2 / p.nu))
    assert np.isfinite(draws).all() and (draws > 0).all()


def test_beta_pdf_uniform_case():
    s = BetaShape(1, 1)
    grid = np.linspace(0.01, 0.99, 99)
    assert np.abs(beta_pdf(grid, s) - 1.0).max() < 1e-14


def test_beta_pdf_domain():
    with pytest.raises(DomainError):
        beta_pdf(0.0, BetaShape(2, 2))
    with pytest.raises(DomainError):
        beta_pdf(1.0, BetaShape(2, 2))


def test_beta_cdf_symmetry_and_power_law():
    assert beta_cdf(0.5, BetaShape(3.3, 3.3)) == pytest.approx(0.5, abs=1e-13)
    assert beta_cdf(0.4, BetaShape(1.25, 1.0)) == pytest.approx(0.4**1.25, abs=1e-13)


def test_beta_sample_matches_cdf():
    s = BetaShape(1.25, 1.0)
    draws = beta_sample(s, 10**5, 5)
    assert np.all((draws > 0) & (draws < 1))
    assert ks_one_sample(draws, lambda x: beta_cdf(x, s)).statistic < 0.01


def test_w_sample_range_and_determinism():
    a = w_sample(3, 2, 50, 10_000, 9)
    assert np.all((a > 0) & (a < 1))
    assert np.array_equal(a, w_sample(3, 2, 50, 10_000, 9))


def test_mvt_gaussian_limit_covariance():
    p = MvtParams(2, 1e9)
    rows = mvt_sample_rows(p, 10**5, 3)
    assert np.abs(np.cov(rows.T) - np.eye(2)).max() < 0.05


def test_mvt_identity_scale_uncorrelated():
    p = MvtParams(2, 8.0)
    n = 10**5
    rows = mvt_sample_rows(p, n, 4)
    corr = np.corrcoef(rows.T)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(n)


def test_mvt_deterministic():
    p = MvtParams(3, 10.0)
    assert np.array_equal(mvt_sample_rows(p, 777, 21), mvt_sample_rows(p, 777, 21))


def test_mvt_marginal_matches_t_law():
    from scipy.stats import t as student_t

    p = MvtParams(2, 8.0)
    rows = mvt_sample_rows(p, 10**5, 6)
    assert ks_one_sample(rows[:, 0], lambda x: student_t.cdf(x, 8.0)).statistic < 0.01


def test_sampler_unchanged_by_thread_count(monkeypatch):
    p = FParams(3, 50)
    monkeypatch.setattr("ewdist.rng._available_cpus", lambda: 1)
    a = f_sample(p, 100_000, 55)
    monkeypatch.setattr("ewdist.rng._available_cpus", lambda: 4)
    b = f_sample(p, 100_000, 55)
    assert np.array_equal(a, b)
