import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from ewdist import approx
from ewdist.approx import (
    CERTIFICATE_SETTINGS,
    RatioSetting,
    approx_shape,
    certify_bounds,
    default_w_grid,
    joint_density,
    joint_total_mass,
    lower_constant,
    marginal_w_density,
    tv_bound,
    u_envelope_lower_density,
    u_envelope_upper_density,
    u_tail_cutoff,
    upper_constant,
    w_envelope_density,
)
from ewdist.dist import BetaShape, FParams, _log_beta_pdf, beta_pdf, f_pdf
from ewdist.errors import DomainError, NumericError, RegimeError
from ewdist.pipelines import DEFAULT_GOF_GRID
from ewdist.specfun import ln_beta


def mp_constants(m1, m2, nu1, nu2):
    """Big-float evaluation of the closed-form envelope constants (oracle)."""
    mp.mp.dps = 40
    m1, m2, nu1, nu2 = map(mp.mpf, (m1, m2, nu1, nu2))
    t1 = (m1 + m2) / 2
    B = mp.beta
    denom = B(m1 / 2, nu1 / 2) * B(m2 / 2, nu2 / 2)
    a1 = (m1 * nu2 / (m2 * nu1)) ** (m1 / 2) * B(t1, (nu2 - m1) / 2) * B(m1 / 2, m2 / 2) / denom
    a2 = (
        2**t1
        * (m2 * nu1 / (m1 * nu2)) ** (m2 / 2)
        * B(t1, (m1 - m2 + 2 * nu1) / 2)
        * B(m1 / 2, m2 / 2)
        / denom
    )
    return float(a1), float(a2)


@pytest.mark.parametrize(
    "m2,expected",
    [(2.0, (1.25, 1.0)), (1.0, (0.75, 0.5)), (10.0, (5.25, 5.0))],
)
def test_approx_shape_values(m2, expected):
    shape = approx_shape(m2)
    assert (shape.alpha, shape.beta) == expected


def test_approx_shape_ignores_first_numerator_df():
    # callers in any m1 context get the same shape for fixed m2
    shapes = {approx_shape(2.0) for _ in (2.5, 3.0, 4.0)}
    assert len(shapes) == 1


def test_w_envelope_uniform_case():
    grid = np.linspace(0.01, 0.99, 99)
    assert np.abs(w_envelope_density(grid, 2, 2) - 1.0).max() < 1e-14


def test_w_envelope_normalizes():
    val, _ = quad(lambda w: w_envelope_density(w, 3, 2), 0, 1, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_w_envelope_symmetric_midpoint():
    # quadrature-normalized check of the closed form at (3, 3), w = 1/2
    direct = w_envelope_density(0.5, 3, 3)
    total, _ = quad(
        lambda w: w**0.5 * (1 - w) ** 0.5, 0, 1, limit=200
    )
    assert direct == pytest.approx(0.5**0.5 * 0.5**0.5 / total, rel=1e-10)


@pytest.mark.parametrize("density", [u_envelope_upper_density, u_envelope_lower_density])
def test_u_envelopes_normalize_and_positive(density):
    s = RatioSetting(3, 2, 50, 50)
    val, _ = quad(lambda u: density(u, s), 0, np.inf, limit=300)
    assert val == pytest.approx(1.0, abs=1e-8)
    grid = np.logspace(-6, 4, 200)
    assert np.all(density(grid, s) > 0)


def test_u_envelope_upper_tail_exponent():
    # log-log slope deep in the tail approaches (m1+m2)/2 - 1 - (m2+nu2)/2
    s = RatioSetting(3, 2, 50, 50)
    expected = (s.m1 + s.m2) / 2 - 1 - (s.m2 + s.nu2) / 2
    u1, u2 = 1e4, 1e5
    slope = (
        math.log(u_envelope_upper_density(u2, s) / u_envelope_upper_density(u1, s))
        / math.log(u2 / u1)
    )
    assert slope == pytest.approx(expected, rel=0.01)


@pytest.mark.parametrize("setting", CERTIFICATE_SETTINGS)
@pytest.mark.parametrize("tail", [1e-10, 1e-12])
def test_u_tail_cutoff_holds_target_tail_mass(setting, tail, monkeypatch):
    # certify's tail, and the closed-form quantile checked 100 times deeper
    assert approx._U_TAIL == 1e-10
    monkeypatch.setattr(approx, "_U_TAIL", tail)
    s = RatioSetting(*setting)
    u = u_tail_cutoff(s)
    with mp.workdps(40):
        x = mp.mpf(s.m2) * mp.mpf(u) / mp.mpf(s.nu2)
        t1, t2 = mp.mpf(s.m1 + s.m2) / 2, mp.mpf(s.nu2 - s.m1) / 2
        # P(U > u) = P(1 - Y < 1/(1+x)) with 1 - Y ~ Beta(t2, t1)
        mass = mp.betainc(t2, t1, 0, 1 / (1 + x), regularized=True)
        assert abs(mass / tail - 1) <= 1e-9


def test_u_tail_cutoff_unbounded_quantile_is_numeric_error():
    # t2 = (nu2 - m1)/2 = 0.05: the 1e-10 upper quantile of y rounds to 1
    with pytest.raises(NumericError):
        u_tail_cutoff(RatioSetting(3, 2, 50, 3.1))


def test_upper_constant_past_the_float_range_is_numeric_error():
    # math.exp(log a1) overflows: log a1 = 797.3 here and 737.4 at tv_bound's setting
    s = RatioSetting(300, 2, 1000, 1000)
    for call in (upper_constant, certify_bounds):
        with pytest.raises(NumericError) as info:
            call(s)
        assert info.value.diagnostics["setting"] == str(s)
        assert info.value.diagnostics["log_a1"] == pytest.approx(797.343, abs=1e-3)
    with pytest.raises(NumericError) as info:
        tv_bound(1600, 2000, 10)
    assert info.value.diagnostics["log_a1"] == pytest.approx(737.440, abs=1e-3)
    assert math.isfinite(lower_constant(s))


def test_joint_density_matches_jacobian_product(rng):
    # h(u, w) = f1(uw) f2(u(1-w)) u is the defining change of variables
    s = RatioSetting(3, 2, 50, 50)
    p1, p2 = FParams(3, 50), FParams(2, 50)
    u = rng.uniform(0.05, 30.0, 200)
    w = rng.uniform(0.01, 0.99, 200)
    lhs = joint_density(u, w, s)
    rhs = f_pdf(u * w, p1) * f_pdf(u * (1 - w), p2) * u
    assert np.abs(lhs / rhs - 1.0).max() < 1e-12


def test_joint_density_vanishes_at_large_u():
    s = RatioSetting(3, 2, 50, 50)
    assert joint_density(1e8, 0.4, s) < 1e-200


def test_joint_total_mass():
    assert joint_total_mass(RatioSetting(3, 2, 50, 50)) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("setting", [(3, 2, 50, 50), (2.5, 2, 50, 50), (6, 5, 50, 50)])
def test_constants_match_bigfloat_oracle(setting):
    s = RatioSetting(*setting)
    a1_ref, a2_ref = mp_constants(*setting)
    assert upper_constant(s) == pytest.approx(a1_ref, rel=1e-12)
    assert lower_constant(s) == pytest.approx(a2_ref, rel=1e-12)


def test_constant_prefactor_collapses_at_equal_params():
    # with m1 = m2 and nu1 = nu2 the power prefactor equals 1, so the
    # big-float form without it must agree (outside the bound regime, so
    # the closed forms are read without the public regime check)
    s = RatioSetting(3, 3, 50, 50)
    a1_ref, a2_ref = mp_constants(3, 3, 50, 50)
    assert (s.m1 * s.nu2 / (s.m2 * s.nu1)) ** (s.m1 / 2) == 1.0
    assert math.exp(approx._log_constant(s, "upper")) == pytest.approx(a1_ref, rel=1e-12)
    assert math.exp(approx._log_constant(s, "lower")) == pytest.approx(a2_ref, rel=1e-12)


def test_constants_require_regime():
    with pytest.raises(RegimeError):
        upper_constant(RatioSetting(3, 3, 50, 50))
    with pytest.raises(RegimeError):
        lower_constant(RatioSetting(2, 5, 50, 50))
    with pytest.raises(RegimeError):
        upper_constant(RatioSetting(60, 2, 50, 50))
    with pytest.raises(RegimeError, match="upper envelope needs"):
        u_tail_cutoff(RatioSetting(60, 2, 50, 50))


@pytest.mark.parametrize(
    "density,setting,message",
    [
        (u_envelope_upper_density, RatioSetting(60, 2, 50, 50), "upper envelope needs nu2 > m1"),
        (u_envelope_lower_density, RatioSetting(2, 50, 1, 50),
         "lower envelope needs m1 - m2 + 2*nu1 > 0"),
    ],
)
def test_u_envelope_regime_error_messages(density, setting, message):
    with pytest.raises(RegimeError) as info:
        density(1.0, setting)
    assert str(info.value) == f"{message}, got {setting}"


# Reference: each envelope formula written out per side, as in the closed
# forms; the shared `_u_law`, `_log_u`, `_log_constant` and `_log_beta_pdf`
# must reproduce them bit for bit.
def ref_upper_beta_args(s):
    return 0.5 * (s.m1 + s.m2), 0.5 * (s.nu2 - s.m1)


def ref_lower_beta_args(s):
    return 0.5 * (s.m1 + s.m2), 0.5 * (s.m1 - s.m2 + 2.0 * s.nu1)


def ref_log_u_upper(u, s):
    t1, t2 = ref_upper_beta_args(s)
    return (
        t1 * np.log(s.m2 / s.nu2)
        + (t1 - 1.0) * np.log(u)
        - 0.5 * (s.m2 + s.nu2) * np.log1p(s.m2 * u / s.nu2)
        - ln_beta(t1, t2)
    )


def ref_log_u_lower(u, s):
    t1, t2 = ref_lower_beta_args(s)
    return (
        t1 * np.log(s.m1 / (2.0 * s.nu1))
        + (t1 - 1.0) * np.log(u)
        - (s.m1 + s.nu1) * np.log1p(s.m1 * u / (2.0 * s.nu1))
        - ln_beta(t1, t2)
    )


def ref_log_upper_constant(s):
    t1, t2 = ref_upper_beta_args(s)
    return (
        0.5 * s.m1 * math.log(s.m1 * s.nu2 / (s.m2 * s.nu1))
        + ln_beta(t1, t2)
        + ln_beta(0.5 * s.m1, 0.5 * s.m2)
        - ln_beta(0.5 * s.m1, 0.5 * s.nu1)
        - ln_beta(0.5 * s.m2, 0.5 * s.nu2)
    )


def ref_log_lower_constant(s):
    t1, t2 = ref_lower_beta_args(s)
    return (
        t1 * math.log(2.0)
        + 0.5 * s.m2 * math.log(s.m2 * s.nu1 / (s.m1 * s.nu2))
        + ln_beta(t1, t2)
        + ln_beta(0.5 * s.m1, 0.5 * s.m2)
        - ln_beta(0.5 * s.m1, 0.5 * s.nu1)
        - ln_beta(0.5 * s.m2, 0.5 * s.nu2)
    )


def ref_log_w_envelope(w, m1, m2):
    return (
        (0.5 * m1 - 1.0) * np.log(w)
        + (0.5 * m2 - 1.0) * np.log1p(-w)
        - ln_beta(0.5 * m1, 0.5 * m2)
    )


# At the last setting, with degrees of freedom that are not dyadic, each
# side's e differs from t1 + t2 in the last bit, so e taken as that sum fails
@pytest.mark.parametrize(
    "setting",
    list(CERTIFICATE_SETTINGS) + [(m1, m2, nu, nu) for m1, m2, nu in DEFAULT_GOF_GRID]
    + [(6.7, 2.1, 50.3, 50.3)],
)
def test_shared_envelope_formulas_match_per_side_reference_bit_for_bit(setting):
    s = RatioSetting(*setting)
    u = np.logspace(-4.0, math.log10(u_tail_cutoff(s)), 200)  # certify_bounds' u grid
    w = default_w_grid()
    assert approx._u_law(s, "upper")[2:4] == ref_upper_beta_args(s)
    assert approx._u_law(s, "lower")[2:4] == ref_lower_beta_args(s)
    assert np.array_equal(approx._log_u(u, s, "upper"), ref_log_u_upper(u, s))
    assert np.array_equal(approx._log_u(u, s, "lower"), ref_log_u_lower(u, s))
    assert approx._log_constant(s, "upper") == ref_log_upper_constant(s)
    assert approx._log_constant(s, "lower") == ref_log_lower_constant(s)
    assert np.array_equal(_log_beta_pdf(w, 0.5 * s.m1, 0.5 * s.m2),
                          ref_log_w_envelope(w, s.m1, s.m2))
    assert np.array_equal(w_envelope_density(w, s.m1, s.m2),
                          beta_pdf(w, BetaShape(s.m1 / 2, s.m2 / 2)))


def test_marginal_normalizes():
    s = RatioSetting(3, 2, 50, 50)
    val, _ = quad(lambda w: marginal_w_density(w, s), 0, 1, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_marginal_symmetric_under_exchange():
    # exchangeable variates make W and 1-W share the law
    s = RatioSetting(3, 3, 50, 50)
    for w in (0.1, 0.25, 0.4):
        assert marginal_w_density(w, s) == pytest.approx(
            marginal_w_density(1.0 - w, s), rel=1e-8
        )


def mp_marginal(w, setting, dps=40):
    """f_W(w) as an mpmath quadrature over t = log u (oracle).

    The integrand is scaled by its value at the mode, which is bisected on
    the slope: mp.quad's convergence test is absolute, and the tails are
    far below 10**-dps.  Break points sit at 2, 8 and 32 curvature widths
    on either side of the mode.
    """
    with mp.workdps(dps):
        m1, m2, nu1, nu2 = (mp.mpf(v) for v in setting)
        w = mp.mpf(w)
        a, p, q = (m1 + m2) / 2, (m1 + nu1) / 2, (m2 + nu2) / 2
        alpha, beta = m1 * w / nu1, m2 * (1 - w) / nu2
        log_c = (
            m1 / 2 * mp.log(m1 / nu1) + m2 / 2 * mp.log(m2 / nu2)
            - mp.log(mp.beta(m1 / 2, nu1 / 2)) - mp.log(mp.beta(m2 / 2, nu2 / 2))
            + (m1 / 2 - 1) * mp.log(w) + (m2 / 2 - 1) * mp.log1p(-w)
        )

        def log_g(t):
            x = mp.exp(t)
            return log_c + a * t - p * mp.log1p(alpha * x) - q * mp.log1p(beta * x)

        def slope(t):
            x = mp.exp(t)
            return a - p * alpha * x / (1 + alpha * x) - q * beta * x / (1 + beta * x)

        lo, hi = mp.mpf(-800), mp.mpf(800)
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        x1, x2 = alpha * mp.exp(lo), beta * mp.exp(lo)
        width = 1 / mp.sqrt(p * x1 / (1 + x1) ** 2 + q * x2 / (1 + x2) ** 2)
        breaks = [-mp.inf] + [lo + k * width for k in (-32, -8, -2, 0, 2, 8, 32)] + [mp.inf]
        top = log_g(lo)
        return mp.exp(top) * mp.quad(lambda t: mp.exp(log_g(t) - top), breaks)


@pytest.mark.parametrize(
    "setting,w,expected",
    [((30, 25, 50, 50), 0.01, 1.626037e-15), ((40, 25, 50, 50), 0.99, 3.794940e-14)],
)
def test_marginal_tail_points_match_mpmath(setting, w, expected):
    # adaptive quad with an absolute floor was 4.7% high and 86% low here
    ref = float(mp_marginal(w, setting))
    assert abs(ref / expected - 1.0) <= 1e-6
    assert abs(marginal_w_density(w, RatioSetting(*setting)) / ref - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "setting", CERTIFICATE_SETTINGS + ((60.0, 2.0, 50.0, 50.0), (100.0, 90.0, 150.0, 150.0))
)
def test_marginal_matches_mpmath(setting):
    # (60, 2, 50, 50) has nu2 <= m1, where no u tail cutoff exists; at
    # (100, 90, 150, 150) the mode is so peaked that a step of 1/8 is 1e-7 off
    ws = (0.01, 0.5, 0.99)
    got = marginal_w_density(np.array(ws), RatioSetting(*setting))
    for w, value in zip(ws, got):
        assert abs(value / float(mp_marginal(w, setting)) - 1.0) <= 1e-10, w


@pytest.mark.parametrize("setting", CERTIFICATE_SETTINGS)
def test_joint_total_mass_is_one_to_1e13(setting):
    assert abs(joint_total_mass(RatioSetting(*setting)) - 1.0) <= 1e-13


@pytest.mark.parametrize("patched", ["_log_joint", "_log_marginal"])
def test_joint_total_mass_nan_integrand_is_numeric_error(monkeypatch, patched):
    # a NaN joint fails inside the marginal, a NaN marginal in the joint mass's own rule
    monkeypatch.setattr(approx, patched, lambda *args: np.full(np.shape(args[0]), np.nan))
    s = RatioSetting(3, 2, 50, 50)
    with pytest.raises(NumericError) as info:
        joint_total_mass(s)
    assert info.value.diagnostics["setting"] == str(s)


def test_log_trapezoid_integrates_gaussian_columns():
    # two columns of log g = -(t - mu)^2 / (2 sigma^2), each on its own grid
    mu, sigma = np.array([-3.0, 5.0]), np.array([0.5, 4.0])
    got = approx._log_trapezoid(
        lambda t: -0.5 * ((t - mu) / sigma) ** 2,
        lambda t: -(t - mu) / sigma**2,
        lambda t: np.broadcast_to(1.0 / sigma**2, np.shape(t)),
        mu - 10.0, mu + 10.0,
        lambda j, text, **diagnostics: NumericError(text, **diagnostics),
    )
    expected = np.log(np.sqrt(2.0 * np.pi * sigma**2))
    assert np.all(np.abs(got / expected - 1.0) <= 1e-14)


def mp_marginal_closed(w, setting, dps=40):
    """f_W(w) in closed form (oracle): the integral over u of
    u^(a-1) (1 + alpha u)^-p (1 + beta u)^-q is
    beta^-a B(a, p+q-a) 2F1(p, a; p+q; 1 - alpha/beta) (Gradshteyn & Ryzhik 3.197.1)."""
    with mp.workdps(dps):
        m1, m2, nu1, nu2 = (mp.mpf(v) for v in setting)
        w = mp.mpf(w)
        a, p, q = (m1 + m2) / 2, (m1 + nu1) / 2, (m2 + nu2) / 2
        alpha, beta = m1 * w / nu1, m2 * (1 - w) / nu2
        log_c = (
            m1 / 2 * mp.log(m1 / nu1) + m2 / 2 * mp.log(m2 / nu2)
            - mp.log(mp.beta(m1 / 2, nu1 / 2)) - mp.log(mp.beta(m2 / 2, nu2 / 2))
            + (m1 / 2 - 1) * mp.log(w) + (m2 / 2 - 1) * mp.log1p(-w)
        )
        return mp.exp(log_c) * beta**-a * mp.beta(a, p + q - a) * mp.hyp2f1(p, a, p + q, 1 - alpha / beta)


def test_closed_form_oracle_matches_quadrature_oracle():
    setting, w = (3, 2, 3, 3), 1e-10  # the flat top below
    assert abs(mp_marginal_closed(w, setting) / mp_marginal(w, setting) - 1) <= 1e-20


@pytest.mark.parametrize("setting", [(3, 2, 3, 3), (5, 1, 5, 5), (1, 1, 1, 1)])
def test_marginal_with_a_flat_top_is_finite_and_exact(setting):
    # m1 == nu2 makes the slope of log g 0 on a plateau ~|log w| wide as w -> 0
    # (m2 == nu1 as w -> 1): the curvature at the mode is then ~1e-4, and
    # the end search once started at t ~ 1100, where exp(t) overflows
    s = RatioSetting(*setting)
    for w in (1e-10, 1e-12, 1e-15, 1 - 1e-12):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = marginal_w_density(w, s)
        assert abs(got / float(mp_marginal_closed(w, setting)) - 1.0) <= 1e-12, w


def test_joint_mass_with_a_flat_top_is_one():
    assert abs(joint_total_mass(RatioSetting(3, 2, 3, 3)) - 1.0) <= 1e-13


@pytest.mark.parametrize("setting", CERTIFICATE_SETTINGS)
def test_marginal_array_call_matches_scalar_calls(setting):
    s = RatioSetting(*setting)
    grid = default_w_grid()
    batched = marginal_w_density(grid, s)
    assert isinstance(batched, np.ndarray) and batched.shape == grid.shape
    scalar = np.array([marginal_w_density(float(w), s) for w in grid])
    assert np.abs(batched / scalar - 1.0).max() <= 1e-14


@pytest.mark.parametrize("setting", CERTIFICATE_SETTINGS)
def test_marginal_self_converges_under_step_halving(setting, monkeypatch):
    s = RatioSetting(*setting)
    grid = default_w_grid()
    coarse = marginal_w_density(grid, s)
    monkeypatch.setattr(approx, "_STEP", approx._STEP / 2)
    fine = marginal_w_density(grid, s)
    assert np.abs(fine / coarse - 1.0).max() <= 1e-13


@pytest.mark.parametrize("w", [0.0, 1.0, -0.1, float("nan")])
def test_marginal_rejects_w_outside_unit_interval(w):
    s = RatioSetting(3, 2, 50, 50)
    with pytest.raises(DomainError):
        marginal_w_density(w, s)
    with pytest.raises(DomainError):
        marginal_w_density(np.array([0.5, w]), s)


def test_marginal_nan_integrand_is_numeric_error(monkeypatch):
    monkeypatch.setattr(approx, "_log_joint", lambda u, w, s, log_k0: np.full(np.shape(u * w), np.nan))
    s = RatioSetting(3, 2, 50, 50)
    with pytest.raises(NumericError) as info:
        marginal_w_density(0.5, s)
    assert info.value.diagnostics["setting"] == str(s)


def test_marginal_underflowing_integrand_is_numeric_error_without_warnings():
    # exp(t) overflows and underflows on the way to the ends; filterwarnings = error
    # turns any numpy warning that leaks out of the kernel into a failure here
    with pytest.raises(NumericError, match="w=1e-300"):
        marginal_w_density(1e-300, RatioSetting(1, 0.1, 0.5, 0.5))


@pytest.mark.parametrize("setting", CERTIFICATE_SETTINGS)
def test_certificate_joint_and_scaled_marginal(setting):
    report = certify_bounds(RatioSetting(*setting), n_u=200, n_w=99)
    assert report["a1_ge_1"]
    assert report["a2"] <= 1.0 + 1e-12
    assert report["joint"]["ok"], report["joint"]["violations"]
    assert report["joint"]["upper_ratio_max"] <= 1.0 + 1e-9
    assert report["joint"]["lower_ratio_min"] >= 1.0 - 1e-9
    # the constant-scaled marginal sandwich is the provable one
    assert report["marginal"]["scaled_sandwich_ok"], report["marginal"]["violations"]


@pytest.mark.parametrize("setting", CERTIFICATE_SETTINGS)
def test_certificate_joint_ratios_match_the_public_densities_point_by_point(setting):
    """The joint ratios' extremes, recomputed one grid point at a time from the densities."""
    s = RatioSetting(*setting)
    report = certify_bounds(s, n_u=20, n_w=9)
    a1, a2 = report["a1"], report["a2"]
    u_grid = np.logspace(-4.0, math.log10(report["grid"]["u_max"]), 20)
    upper, lower = [], []
    for u in u_grid.tolist():
        for w in default_w_grid(9).tolist():
            h, env_w = joint_density(u, w, s), w_envelope_density(w, s.m1, s.m2)
            upper.append(h / (a1 * u_envelope_upper_density(u, s) * env_w))
            lower.append(h / (a2 * u_envelope_lower_density(u, s) * env_w))
    assert report["joint"]["upper_ratio_max"] == pytest.approx(max(upper), rel=1e-12, abs=0.0)
    assert report["joint"]["lower_ratio_min"] == pytest.approx(min(lower), rel=1e-12, abs=0.0)


def test_certificate_reports_plain_marginal_violations_with_points():
    # the plain lower bound cannot hold everywhere (both densities
    # integrate to 1); the certificate must surface the points, not hide them
    report = certify_bounds(RatioSetting(3, 2, 50, 50), n_u=60, n_w=99)
    if not report["marginal"]["plain_sandwich_ok"]:
        bad = [v for v in report["marginal"]["violations"] if v["side"] == "plain_lower"]
        assert bad, "violations must name the failing points"
        assert all(0 < v["w"] < 1 and v["ratio"] < 1 for v in bad)


def test_certificate_requires_regime():
    with pytest.raises(RegimeError):
        certify_bounds(RatioSetting(1, 1, 50, 50))


def test_tv_bound_scaling_and_value():
    b200 = tv_bound(2, 50, 200)
    assert b200 > 0
    assert tv_bound(2, 50, 400) == pytest.approx(0.5 * b200, rel=1e-14, abs=0.0)
    a1_ref, _ = mp_constants(2.5, 2, 50, 50)
    assert b200 == pytest.approx(a1_ref / 200.0, rel=1e-12, abs=0.0)


def test_approximating_cdf_is_continuous_proxy():
    # max jump over refining grids shrinks toward zero
    from ewdist.dist import beta_cdf

    shape = approx_shape(2.0)
    jumps = []
    for n in (100, 1000, 10000):
        grid = np.linspace(1e-6, 1 - 1e-6, n)
        vals = beta_cdf(grid, shape)
        assert np.all(np.diff(vals) > 0)
        jumps.append(np.diff(vals).max())
    assert jumps[0] > jumps[1] > jumps[2]
