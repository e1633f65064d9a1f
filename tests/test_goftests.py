import warnings

import numpy as np
import pytest
from scipy.stats import anderson_ksamp, ks_2samp

from ewdist.errors import DomainError
from ewdist.goftests import (
    AD_CRITICAL,
    KS_CRITICAL,
    EmpiricalCdf,
    ad_two_sample,
    ad_two_sample_rows,
    ecdf,
    ecdf_eval,
    ks_one_sample,
    ks_two_sample,
    ks_two_sample_rows,
    tv_distance,
)


def test_ecdf_basic_evaluations():
    e = ecdf([1.0, 2.0, 3.0])
    assert ecdf_eval(e, 2.0) == pytest.approx(2.0 / 3.0)
    assert ecdf_eval(e, 0.5) == 0.0
    assert ecdf_eval(e, 3.0) == 1.0
    assert ecdf_eval(e, 99.0) == 1.0


def test_ecdf_rejects_empty():
    with pytest.raises(DomainError):
        ecdf([])


def test_ecdf_glivenko_cantelli(rng):
    u = rng.uniform(0, 1, 10**5)
    e = ecdf(u)
    grid = np.linspace(0, 1, 2001)
    assert np.abs(ecdf_eval(e, grid) - grid).max() < 0.01


def test_ks_one_sample_single_observation_at_median():
    res = ks_one_sample([0.0], lambda x: np.full(np.shape(x), 0.5))
    assert res.statistic == pytest.approx(0.5)


def test_ks_one_sample_quantile_placed_sample():
    # sample at exact quantiles i/(n+1): compare with direct enumeration
    n = 25
    cdf = lambda x: np.asarray(x)
    sample = np.arange(1, n + 1) / (n + 1)
    res = ks_one_sample(sample, cdf)
    brute = 0.0
    for i, x in enumerate(sorted(sample), start=1):
        brute = max(brute, abs(i / n - x), abs((i - 1) / n - x))
    assert res.statistic == pytest.approx(brute, abs=1e-15)


def test_ks_one_sample_critical_value_and_flag():
    res = ks_one_sample(np.linspace(0.01, 0.99, 200), lambda x: np.asarray(x))
    assert res.critical_value == pytest.approx(1.628 / np.sqrt(200))
    assert res.identical == (res.statistic < res.critical_value)


def test_ks_two_sample_trivial_cases():
    a = np.array([1.0, 2.0])
    assert ks_two_sample(a, a).statistic == 0.0
    assert ks_two_sample([1.0, 2.0], [3.0, 4.0]).statistic == 1.0
    assert ks_two_sample([1.0, 3.0], [2.0, 4.0]).statistic == pytest.approx(0.5)


def test_ks_two_sample_symmetric(rng):
    a = rng.normal(size=57)
    b = rng.normal(size=123)
    assert ks_two_sample(a, b).statistic == ks_two_sample(b, a).statistic


def test_ks_two_sample_critical_value():
    a = np.linspace(0, 1, 200)
    res = ks_two_sample(a, a + 0.001)
    assert res.critical_value == pytest.approx(1.628 * np.sqrt(2.0 / 200.0))
    assert res.n == 200 and res.n2 == 200


def test_ks_two_sample_against_scipy(rng):
    for _ in range(20):
        a = rng.normal(size=rng.integers(10, 200))
        b = rng.normal(loc=0.3, size=rng.integers(10, 200))
        assert ks_two_sample(a, b).statistic == pytest.approx(
            ks_2samp(a, b).statistic, abs=1e-12
        )


def test_ks_invariant_under_increasing_transform(rng):
    a = rng.uniform(0, 1, 300)
    b = rng.uniform(0, 1, 200)
    d1 = ks_two_sample(a, b).statistic
    d2 = ks_two_sample(a**3, b**3).statistic
    assert d1 == pytest.approx(d2, abs=1e-15)


def test_ad_identical_samples_strongly_negative():
    a = np.arange(50.0)
    res = ad_two_sample(a, a)
    assert res.statistic < 0.0
    assert res.identical


def test_ad_against_scipy(rng):
    for trial in range(20):
        a = rng.normal(size=rng.integers(15, 250))
        b = rng.normal(loc=rng.uniform(-0.4, 0.4), size=rng.integers(15, 250))
        if trial % 3 == 0:
            a = np.round(a, 1)  # force ties through midranks
            b = np.round(b, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = anderson_ksamp([a, b]).statistic
        assert ad_two_sample(a, b).statistic == pytest.approx(ref, abs=1e-10)


def test_ad_critical_value_and_flag(rng):
    a = rng.normal(size=200)
    b = rng.normal(size=200)
    res = ad_two_sample(a, b)
    assert res.critical_value == AD_CRITICAL[0.01]
    assert res.identical == (res.statistic < res.critical_value)


def test_ad_critical_values_match_scipy(rng):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = anderson_ksamp([rng.normal(size=80), rng.normal(size=90)])
    # scipy's levels are (0.25, 0.1, 0.05, 0.025, 0.01, 0.005, 0.001)
    assert AD_CRITICAL[0.05] == pytest.approx(res.critical_values[2], abs=1e-12)
    assert AD_CRITICAL[0.01] == pytest.approx(res.critical_values[4], abs=1e-12)


def test_ad_rejects_degenerate_pool():
    with pytest.raises(DomainError):
        ad_two_sample([1.0, 1.0], [1.0])
    with pytest.raises(DomainError):  # 4 values, 1 distinct
        ad_two_sample([1.0, 1.0], [1.0, 1.0])


def test_ad_rejects_pools_below_four_values():
    # the Scholz-Stephens variance divides by (N - 1)(N - 2)(N - 3)
    for a, b in (([1.0], [2.0]), ([1.0, 2.0], [3.0])):
        with pytest.raises(DomainError, match="at least 4"):
            ad_two_sample(a, b)
    assert np.isfinite(ad_two_sample([1.0, 2.0], [3.0, 4.0]).statistic)


def _tied_rows(rng, rows, n1, n2):
    a = np.round(rng.normal(size=(rows, n1)), 1)
    b = np.round(rng.normal(loc=0.3, size=(rows, n2)), 1)
    return a, b


@pytest.mark.parametrize("ties", [False, True])
def test_batched_rows_equal_one_row_calls(rng, ties):
    a, b = rng.normal(size=(12, 40)), rng.normal(loc=0.2, size=(12, 31))
    if ties:
        a, b = _tied_rows(rng, 12, 40, 31)
    for batched, scalar in ((ks_two_sample_rows, ks_two_sample),
                            (ad_two_sample_rows, ad_two_sample)):
        rows = batched(a, b, alpha=0.05)
        assert len(rows) == 12
        for r, res in enumerate(rows):
            assert res == scalar(a[r], b[r], alpha=0.05)  # bitwise: dataclass ==


def test_batched_rows_with_ties_match_scipy(rng):
    a, b = _tied_rows(rng, 25, 57, 83)
    lcm = np.lcm(57, 83)
    ks = ks_two_sample_rows(a, b)
    ad = ad_two_sample_rows(a, b)
    for r in range(25):
        ref = ks_2samp(a[r], b[r]).statistic
        # scipy reports h / lcm(n1, n2), this code |c1/n1 - c2/n2|: the same
        # lattice point h, whose two roundings differ by at most a few ulp of 1
        assert np.rint(ks[r].statistic * lcm) == np.rint(ref * lcm)
        assert ks[r].statistic == pytest.approx(ref, rel=0.0, abs=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = anderson_ksamp([a[r], b[r]]).statistic
        assert ad[r].statistic == pytest.approx(ref, rel=0.0, abs=1e-10)


def test_batched_rows_reject_bad_rows(rng):
    a, b = rng.normal(size=(4, 10)), rng.normal(size=(4, 12))
    a[2, 5] = np.nan
    for batched in (ks_two_sample_rows, ad_two_sample_rows):
        with pytest.raises(DomainError, match=r"a contains non-finite values \(row 2\)"):
            batched(a, b)
        b_inf = b.copy()
        b_inf[3, 0] = np.inf
        with pytest.raises(DomainError, match=r"b contains non-finite values \(row 3\)"):
            batched(b[:, :10], b_inf)
        with pytest.raises(DomainError):
            batched(b, b[:3])  # row counts differ
        with pytest.raises(DomainError):
            batched(np.empty((4, 0)), b)  # empty rows
        with pytest.raises(DomainError):
            batched(b[0], b)  # not a 2-D array of rows
    tied = np.ones((3, 4))
    tied[1] = np.arange(4.0)
    with pytest.raises(DomainError, match="distinct"):
        ad_two_sample_rows(tied, tied)  # rows 0 and 2 have one distinct value


def test_alpha_grid_is_fixed():
    with pytest.raises(DomainError):
        ks_one_sample([0.5], lambda x: np.asarray(x), alpha=0.10)
    assert set(KS_CRITICAL) == {0.01, 0.05}
    assert set(AD_CRITICAL) == {0.01, 0.05}


def test_tv_identical_and_point_masses():
    a = ecdf([0.2, 0.4, 0.9])
    assert tv_distance(a, a) == 0.0
    assert tv_distance(ecdf([0.0]), ecdf([1.0])) == pytest.approx(0.5)


def test_tv_metric_properties(rng):
    es = [ecdf(rng.uniform(0, 1, rng.integers(5, 40))) for _ in range(9)]
    for x, y, z in zip(es[0:3], es[3:6], es[6:9]):
        dxy = tv_distance(x, y)
        assert dxy == pytest.approx(tv_distance(y, x), abs=1e-15)
        assert dxy >= 0.0
        assert dxy <= tv_distance(x, z) + tv_distance(z, y) + 1e-12


def test_tv_domain():
    with pytest.raises(DomainError):
        tv_distance(ecdf([0.5]), ecdf([1.5]))
    with pytest.raises(DomainError):
        tv_distance(ecdf([-0.1]), ecdf([0.5]))
