import math

import numpy as np
import pytest

from ewdist.approx import (
    RatioSetting,
    joint_density,
    u_envelope_lower_density,
    u_envelope_upper_density,
    w_envelope_density,
)
from ewdist.dist import BetaShape, beta_pdf
from ewdist.errors import DomainError
from ewdist.product import ProductSpec, omega_cdf_numeric
from ewdist.specfun import ln_beta, ln_gamma, reg_inc_beta

from conftest import beta_integral_quad


def test_ln_gamma_known_values():
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)
    assert ln_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_ln_gamma_domain(bad):
    with pytest.raises(DomainError):
        ln_gamma(bad)


def test_ln_beta_known_values():
    assert ln_beta(1.0, 1.0) == 0.0
    assert ln_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-14)
    assert ln_beta(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), rel=1e-14)


def test_ln_beta_recurrence(rng):
    # B(a+1, b)/B(a, b) = a/(a+b) in log space
    a = rng.uniform(0.1, 50.0, 300)
    b = rng.uniform(0.1, 50.0, 300)
    lhs = ln_beta(a + 1.0, b) - ln_beta(a, b)
    rhs = np.log(a / (a + b))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_reg_inc_beta_uniform_and_symmetric_cases():
    assert reg_inc_beta(0.3, 1.0, 1.0) == pytest.approx(0.3, abs=1e-14)
    assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-14)


def test_reg_inc_beta_power_law_case():
    # beta=1 has the closed form x^alpha; frozen from the quadrature oracle
    expected = 2.0**-2.5
    assert reg_inc_beta(0.25, 1.25, 1.0) == pytest.approx(expected, abs=1e-13)
    assert beta_integral_quad(0.25, 1.25, 1.0) == pytest.approx(expected, abs=1e-11)


def test_reg_inc_beta_boundaries_exact():
    assert reg_inc_beta(0.0, 2.5, 3.5) == 0.0
    assert reg_inc_beta(1.0, 2.5, 3.5) == 1.0


def test_reg_inc_beta_against_quadrature(rng):
    x = rng.uniform(0.0, 1.0, 120)
    a = rng.uniform(0.25, 30.0, 120)
    b = rng.uniform(0.25, 30.0, 120)
    mine = reg_inc_beta(x, a, b)
    oracle = np.array([beta_integral_quad(*t) for t in zip(x, a, b)])
    assert np.abs(mine - oracle).max() < 1e-10


def test_reg_inc_beta_symmetry(rng):
    x = rng.uniform(0.0, 1.0, 500)
    a = rng.uniform(0.1, 40.0, 500)
    b = rng.uniform(0.1, 40.0, 500)
    lhs = reg_inc_beta(x, a, b)
    rhs = 1.0 - reg_inc_beta(1.0 - x, b, a)
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("a,b", [(0.3, 0.7), (1.25, 1.0), (5.0, 9.0), (30.0, 0.25)])
def test_reg_inc_beta_monotone(a, b):
    grid = np.linspace(0.0, 1.0, 501)
    vals = reg_inc_beta(grid, a, b)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0 and vals[-1] == 1.0


@pytest.mark.parametrize("x", [-0.1, 1.1, float("nan")])
def test_reg_inc_beta_domain(x):
    with pytest.raises(DomainError):
        reg_inc_beta(x, 2.0, 2.0)


def test_reg_inc_beta_array_broadcast():
    x = np.array([0.1, 0.5, 0.9])
    out = reg_inc_beta(x, 2.0, 3.0)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)


@pytest.mark.parametrize(
    "x, a, b",
    [(0.5074, 47.235, 45.048), (0.45, 40.5, 52.25), (0.62, 58.0, 33.5), (0.3, 25.5, 60.0)],
)
def test_reg_inc_beta_large_shapes_against_mpmath(x, a, b):
    import mpmath as mp

    with mp.workdps(40):
        ref = float(mp.betainc(a, b, 0, x, regularized=True))
    assert abs(reg_inc_beta(x, a, b) - ref) <= 1e-14


_NAN = float("nan")
_SETTING = RatioSetting(3.0, 2.0, 50.0, 50.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: w_envelope_density(_NAN, 3.0, 2.0),
        lambda: u_envelope_upper_density(_NAN, _SETTING),
        lambda: u_envelope_lower_density(_NAN, _SETTING),
        lambda: joint_density(_NAN, 0.5, _SETTING),
        lambda: joint_density(1.0, _NAN, _SETTING),
        lambda: beta_pdf([0.5, _NAN], BetaShape(2.0, 3.0)),
        lambda: omega_cdf_numeric(ProductSpec(2, 3), [0.5, _NAN]),
    ],
    ids=["w_envelope", "u_upper", "u_lower", "joint_u", "joint_w", "beta_pdf", "omega_cdf"],
)
def test_nan_argument_is_domain_error(call):
    with pytest.raises(DomainError):
        call()
