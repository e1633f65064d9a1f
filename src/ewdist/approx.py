"""Beta approximation of W = Y1/(Y1+Y2) and the envelope-bound machinery.

The approximating law for W depends on the second numerator df only:
Beta((m2+0.5)/2, m2/2).  The joint density of (U, W) = (Y1+Y2, W) can be
sandwiched between products of a u-envelope and a w-envelope density,
scaled by closed-form constants.  Everything here is evaluated in log
space; certificates measure the bounds on grids instead of assuming them.

Both integrals of W use one trapezoid rule for log-concave integrands.
The exact marginal density, which the certificates divide by, integrates
the joint density over t = log u for a whole w grid at once, and
`joint_total_mass` integrates that marginal over logit w: the step is 1/8
(finer only for very peaked integrands), each end is cut 40 nats below
the mode, and concavity bounds the cut tails below 1e-15 of the sum.
Measured against mpmath, the marginal's relative error stays below
2e-13, in the tails too.

A note on validity: integrating the upper bound over the whole domain
shows the upper constant is always >= 1, and the lower constant always
<= 1.  Pointwise `w_envelope <= marginal` can therefore not hold
everywhere (both integrate to 1); `certify_bounds` reports both the
plain and the constant-scaled form of the marginal sandwich.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainccinv, expit

from .dist import BetaShape, _log_beta_pdf, _log_beta_prime, _positive
from .errors import NumericError, RegimeError
from .specfun import _validate_count, _validate_open_unit, _validate_positive, ln_beta

__all__ = [
    "RatioSetting",
    "approx_shape",
    "w_envelope_density",
    "u_envelope_upper_density",
    "u_envelope_lower_density",
    "joint_density",
    "upper_constant",
    "lower_constant",
    "marginal_w_density",
    "joint_total_mass",
    "tv_bound",
    "certify_bounds",
    "default_w_grid",
    "CERTIFICATE_SETTINGS",
]

# The trapezoid rule of `_log_trapezoid`, see `marginal_w_density`
_STEP = 0.125           # largest step in t
_KAPPA_MAX = 32.0       # curvature of log g at the mode above which the step shrinks
_DROP = 40.0            # nats below the mode at which each end is cut
_TAIL_RTOL = 1e-15      # largest tail bound, relative to the sum
_MODE_BISECTIONS = 50
_END_NEWTON_STEPS = 6
_MAX_NODES = 2**14      # t nodes per column

# `certify_bounds` tolerance, report length and u grid end
_SLACK = 1e-9           # relative tolerance before a ratio counts as a violation
_MAX_VIOLATIONS = 20    # violating grid points listed per side
_U_TAIL = 1e-10         # upper u-envelope mass beyond the u grid (`u_tail_cutoff`)

# canonical settings exercised by the certificate suite
CERTIFICATE_SETTINGS = (
    (3.0, 2.0, 50.0, 50.0),
    (2.5, 2.0, 50.0, 50.0),
    (11.0, 10.0, 150.0, 150.0),
    (6.0, 5.0, 50.0, 50.0),
    (30.0, 25.0, 50.0, 50.0),
)

# The envelope-bound regime, one (text, test) pair per condition; each
# u-envelope on its own needs only its side's condition
_LOWER_NEEDS = ("m1 - m2 + 2*nu1 > 0", lambda s: s.m1 - s.m2 + 2.0 * s.nu1 > 0)
_UPPER_NEEDS = ("nu2 > m1", lambda s: s.nu2 > s.m1)
_REGIME = (
    ("m1 - m2 > nu2 - nu1", lambda s: s.m1 - s.m2 > s.nu2 - s.nu1),
    ("m1/nu1 >= m2/nu2", lambda s: s.m1 / s.nu1 >= s.m2 / s.nu2),
    _LOWER_NEEDS,
    _UPPER_NEEDS,
)

# Per side: the condition its u-envelope needs, its law as `_u_law`
# returns it, and the lead term of its log constant, given t1
_SIDES = {
    "upper": (_UPPER_NEEDS, lambda s: (
        s.m2, s.nu2, 0.5 * (s.m1 + s.m2), 0.5 * (s.nu2 - s.m1), 0.5 * (s.m2 + s.nu2)),
        lambda s, t1: 0.5 * s.m1 * math.log(s.m1 * s.nu2 / (s.m2 * s.nu1))),
    "lower": (_LOWER_NEEDS, lambda s: (
        s.m1, 2.0 * s.nu1, 0.5 * (s.m1 + s.m2), 0.5 * (s.m1 - s.m2 + 2.0 * s.nu1), s.m1 + s.nu1),
        lambda s, t1: t1 * math.log(2.0) + 0.5 * s.m2 * math.log(s.m2 * s.nu1 / (s.m1 * s.nu2))),
}


@dataclass(frozen=True)
class RatioSetting:
    """Degrees of freedom (m1, nu1) and (m2, nu2) of the two F variates."""

    m1: float
    m2: float
    nu1: float
    nu2: float

    def __post_init__(self):
        for name in ("m1", "m2", "nu1", "nu2"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))

    def require_bound_regime(self):
        bad = [text for text, holds in _REGIME if not holds(self)]
        if bad:
            raise RegimeError(
                f"setting {self} violates the bound regime: {', '.join(bad)}"
            )


def approx_shape(m2) -> BetaShape:
    """Shape of the approximating Beta law; depends on m2 only."""
    m2 = _positive("m2", m2)
    return BetaShape((m2 + 0.5) / 2.0, m2 / 2.0)


def w_envelope_density(w, m1, m2):
    """Beta(m1/2, m2/2) density: the w-factor of both envelope products."""
    m1 = _positive("m1", m1)
    m2 = _positive("m2", m2)
    arr = _validate_open_unit("w", w)
    out = np.exp(_log_beta_pdf(arr, 0.5 * m1, 0.5 * m2))
    return float(out) if out.ndim == 0 else out


def _u_law(s: RatioSetting, side: str):
    """(a, b, t1, t2, e): a*u/b is BetaPrime(t1, t2) under the `side` u-envelope.

    e = t1 + t2, computed from the degrees of freedom, not as that sum (it
    can round differently).  `RegimeError` if the side's condition fails.
    """
    (text, holds), law, _ = _SIDES[side]
    if not holds(s):
        raise RegimeError(f"{side} envelope needs {text}, got {s}")
    return law(s)


def _log_u(u, s: RatioSetting, side: str):
    """Log density of the `side` u-envelope at u > 0 (validated here)."""
    law = _u_law(s, side)
    return _log_beta_prime(_validate_positive("u", u), *law)


def u_envelope_upper_density(u, s: RatioSetting):
    """u-factor of the upper envelope product; integrates to 1 on (0, inf)."""
    out = np.exp(_log_u(u, s, "upper"))
    return float(out) if out.ndim == 0 else out


def u_envelope_lower_density(u, s: RatioSetting):
    """u-factor of the lower envelope product; integrates to 1 on (0, inf)."""
    out = np.exp(_log_u(u, s, "lower"))
    return float(out) if out.ndim == 0 else out


def _log_k0(s: RatioSetting):
    return (
        0.5 * s.m1 * math.log(s.m1 / s.nu1)
        + 0.5 * s.m2 * math.log(s.m2 / s.nu2)
        - ln_beta(0.5 * s.m1, 0.5 * s.nu1)
        - ln_beta(0.5 * s.m2, 0.5 * s.nu2)
    )


def _log_joint(u, w, s: RatioSetting, log_k0: float):
    """Log joint density of (U, W); `log_k0` is `_log_k0(s)`, hoisted by the caller."""
    return (
        log_k0
        + (0.5 * (s.m1 + s.m2) - 1.0) * np.log(u)
        + (0.5 * s.m1 - 1.0) * np.log(w)
        + (0.5 * s.m2 - 1.0) * np.log1p(-w)
        - 0.5 * (s.m1 + s.nu1) * np.log1p(s.m1 * u * w / s.nu1)
        - 0.5 * (s.m2 + s.nu2) * np.log1p(s.m2 * u * (1.0 - w) / s.nu2)
    )


def joint_density(u, w, s: RatioSetting):
    """Joint density of (U, W) = (Y1+Y2, Y1/(Y1+Y2)) from the Jacobian map."""
    uu = _validate_positive("u", u)
    ww = _validate_open_unit("w", w)
    out = np.exp(_log_joint(uu, ww, s, _log_k0(s)))
    return float(out) if out.ndim == 0 else out


def _log_constant(s: RatioSetting, side: str):
    """Log of the closed-form constant scaling the `side` envelope product."""
    _, _, t1, t2, _ = _u_law(s, side)
    *_, lead = _SIDES[side]
    return (lead(s, t1) + ln_beta(t1, t2) + ln_beta(0.5 * s.m1, 0.5 * s.m2)
            - ln_beta(0.5 * s.m1, 0.5 * s.nu1) - ln_beta(0.5 * s.m2, 0.5 * s.nu2))


def _upper(s: RatioSetting) -> tuple:
    """(log a1, a1) of the upper envelope; NumericError where a1 overflows a float."""
    log_a1 = _log_constant(s, "upper")
    try:
        return log_a1, math.exp(log_a1)
    except OverflowError:
        raise NumericError("constant a1 overflows a float", setting=str(s), log_a1=log_a1) from None


def upper_constant(s: RatioSetting) -> float:
    """Closed-form constant scaling the upper envelope product."""
    s.require_bound_regime()
    return _upper(s)[1]


def lower_constant(s: RatioSetting) -> float:
    """Closed-form constant scaling the lower envelope product."""
    s.require_bound_regime()
    return math.exp(_log_constant(s, "lower"))


def u_tail_cutoff(s: RatioSetting) -> float:
    """u beyond which the upper u-envelope holds exactly 1e-10 of its mass.

    Under the upper u-envelope, y = x/(1+x) with x = m2*u/nu2 is
    Beta(t1, t2), so the cutoff is the closed-form upper quantile of y.
    """
    a, b, t1, t2, _ = _u_law(s, "upper")
    y = float(betainccinv(t1, t2, _U_TAIL))
    if not y < 1.0:
        raise NumericError("u tail cutoff is not finite", setting=str(s), tail=_U_TAIL)
    return b / a * y / (1.0 - y)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # the checks below raise
def _log_trapezoid(log_g, slope, curvature, lo, hi, fail) -> np.ndarray:
    """log of the integral over t of each column of a log-concave g, by the
    rule of `marginal_w_density`.  `log_g`, `slope` and `curvature` (-(log g)'')
    take t with one entry per column on the last axis; column j has its mode
    in [lo[j], hi[j]]; `fail(j, text, **diagnostics)` makes its `NumericError`."""
    for _ in range(_MODE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        rising = slope(mid) > 0.0
        lo = np.where(rising, mid, lo)
        hi = np.where(rising, hi, mid)
    mode = 0.5 * (lo + hi)
    kappa = curvature(mode)
    step = _STEP * np.sqrt(np.minimum(1.0, _KAPPA_MAX / kappa))

    # Newton on log g = log g(mode) - _DROP from either side, started within
    # +-700 so that exp(t) stays finite where a flat top makes kappa tiny; by
    # concavity every iterate after the first lies at or beyond the crossing
    floor = log_g(mode) - _DROP
    ends = []
    for side in (-1.0, 1.0):
        t = np.clip(mode + side * np.sqrt(2.0 * _DROP / kappa), -700.0, 700.0)
        for _ in range(_END_NEWTON_STEPS):
            t = t - (log_g(t) - floor) / slope(t)
        ends.append(t)
    t_lo, t_hi = ends

    n_steps = (t_hi - t_lo) / step
    bad = ~(n_steps < _MAX_NODES)  # also NaN
    if bad.any():
        j = int(np.argmax(bad))
        raise fail(j, f"t range spans {n_steps[j]} steps",
                   tail_bound=float("nan"), step=float(step[j]))
    t = t_lo + step * np.arange(int(math.ceil(n_steps.max(initial=0.0))) + 1)[:, None]
    lg = log_g(t)
    peak = lg.max(axis=0)
    total = np.exp(lg - peak).sum(axis=0)
    # concavity puts the tail beyond an end below g(end) / |slope(end)|
    tail_bound = (
        np.exp(lg[0] - peak) / slope(t[0]) - np.exp(lg[-1] - peak) / slope(t[-1])
    ) / (step * total)
    ok = np.isfinite(peak) & np.isfinite(total) & (tail_bound <= _TAIL_RTOL)
    if not ok.all():
        j = int(np.argmin(ok))
        raise fail(j, "trapezoid rule failed", tail_bound=float(tail_bound[j]), step=float(step[j]))
    return peak + np.log(step * total)


def _log_marginal(w: np.ndarray, s: RatioSetting) -> np.ndarray:
    """log f_W at each entry of the 1-d array w, by the rule of `marginal_w_density`."""
    log_alpha = math.log(s.m1 / s.nu1) + np.log(w)
    log_beta = math.log(s.m2 / s.nu2) + np.log1p(-w)
    p, q = 0.5 * (s.m1 + s.nu1), 0.5 * (s.m2 + s.nu2)
    log_k0 = _log_k0(s)

    def log_g(t):
        return _log_joint(np.exp(t), w, s, log_k0) + t

    def slope(t):  # falls from (m1+m2)/2 to -(nu1+nu2)/2
        return 0.5 * (s.m1 + s.m2) - p * expit(t + log_alpha) - q * expit(t + log_beta)

    def curvature(t):
        e1, e2 = expit(t + log_alpha), expit(t + log_beta)
        return p * e1 * (1.0 - e1) + q * e2 * (1.0 - e2)

    def fail(j, text, **diagnostics):
        return NumericError(f"marginal {text} at w={float(w[j])}",
                            w=float(w[j]), setting=str(s), **diagnostics)

    # bounding both logistic terms of the slope by the larger (smaller)
    # one brackets its zero
    c = math.log((s.m1 + s.m2) / (s.nu1 + s.nu2))
    lo = c - np.maximum(log_alpha, log_beta)
    hi = c - np.minimum(log_alpha, log_beta)
    return _log_trapezoid(log_g, slope, curvature, lo, hi, fail)


def marginal_w_density(w, s: RatioSetting):
    """Exact marginal density of W, by the trapezoid rule in t = log u.

    `w` is a scalar (returns a float) or an array (returns an array of its
    shape); every entry must lie strictly inside (0, 1).  For each w the
    density is the integral over t of g(t) = exp(_log_joint(e^t, w) + t).
    log g is concave in t and decays linearly at both ends, so the
    trapezoid rule on the whole line converges geometrically, with relative
    accuracy (Trefethen & Weideman, SIAM Review 56, 2014).  All w are
    evaluated as one (n_t x n_w) array, each column on its own grid:

    - the step is 1/8, shrunk as 1/sqrt(kappa) where the curvature kappa of
      log g at its mode exceeds 32, so it stays below 0.71 mode widths;
    - each column runs from 40 nats below the mode on one side to 40 nats
      below it on the other, end points found by Newton on the concave
      log g from the mode, which is bisected on the monotone slope;
    - by concavity the tail beyond an end point is at most
      g(end)/|d log g/dt (end)|; `NumericError` (diagnostics w, setting,
      tail_bound, step) is raised when that bound exceeds 1e-15 of the sum
      or the sum is not finite and positive.

    Against mpmath at 40 digits, at w = 0.01, 0.5 and 0.99, the relative
    error is at most 3.5e-14 on the `CERTIFICATE_SETTINGS` rows, 1.4e-13
    on the 30-row study grid and 1.6e-13 at (100, 90, 150, 150).
    """
    arr = _validate_open_unit("w", w)
    out = np.exp(_log_marginal(arr.reshape(-1), s)).reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


def joint_total_mass(s: RatioSetting) -> float:
    """Double integral of the joint density over (0, inf) x (0, 1).

    The one rule of `marginal_w_density`, applied again in t = logit w to
    the batched marginal: T = log Y1 - log Y2 has the density
    f_W(w) w (1 - w), log-concave as a convolution of two log-concave laws
    (Prekopa), with its mode in [-64, 64]; its slope and curvature are
    central differences, h = 2**-12.  For w > 1/2 the marginal is taken as
    that of 1 - w under the exchanged setting, so w never rounds to 1.
    """
    exchanged = RatioSetting(s.m2, s.m1, s.nu2, s.nu1)
    h = 2.0**-12

    def log_g(t):
        v = expit(-np.abs(t))  # min(w, 1 - w)
        out = np.log(v) + np.log1p(-v)
        for side, setting in ((t <= 0.0, s), (t > 0.0, exchanged)):
            if side.any():
                out[side] += _log_marginal(v[side], setting)
        return out

    def slope(t):  # central differences, one marginal call per side
        return np.diff(log_g(np.add.outer((-h, h), t)), axis=0)[0] / (2.0 * h)

    def curvature(t):
        return -np.diff(log_g(np.add.outer((-h, 0.0, h), t)), 2, axis=0)[0] / h**2

    def fail(j, text, **diagnostics):
        return NumericError(f"joint mass {text}", setting=str(s), **diagnostics)

    bracket = np.array([-64.0]), np.array([64.0])
    return math.exp(_log_trapezoid(log_g, slope, curvature, *bracket, fail)[0])


def tv_bound(m2, nu, n: int) -> float:
    """Total-variation error bound: upper constant at m1 = m2 + 0.5 over n."""
    m2 = _positive("m2", m2)
    nu = _positive("nu", nu)
    n = _validate_count("n", n)
    s = RatioSetting(m2 + 0.5, m2, nu, nu)
    return upper_constant(s) / float(n)


def default_w_grid(n: int = 99) -> np.ndarray:
    """Interior w grid; boundary strips are excluded (integrable singularities)."""
    return np.linspace(0.01, 0.99, n)


def certify_bounds(s: RatioSetting, n_u: int = 200, n_w: int = 99) -> dict:
    """Measure the envelope bounds on a log-u x uniform-w grid.

    Returns a report with the constants, the extreme ratios of the joint
    sandwich, and the marginal sandwich in both the plain form
    (w_envelope <= marginal <= a1 * w_envelope) and the constant-scaled
    form (a2 * w_envelope <= marginal).  A ratio counts as a violation
    beyond a relative slack of 1e-9; up to 20 violating grid points per
    side are listed with their ratios rather than hidden.  Each term is
    evaluated on its own axis, u a column and w a row, and broadcast; only
    the terms that mix u and w fill the whole grid.
    """
    s.require_bound_regime()
    log_a1, a1 = _upper(s)
    log_a2 = _log_constant(s, "lower")
    a2 = math.exp(log_a2)

    w_grid = default_w_grid(n_w)
    u_hi = u_tail_cutoff(s)
    u_grid = np.logspace(-4.0, math.log10(u_hi), n_u)
    u_col = u_grid[:, None]  # against the row w_grid, the (n_u, n_w) grid

    log_h = _log_joint(u_col, w_grid, s, _log_k0(s))
    log_env_w = _log_beta_pdf(w_grid, 0.5 * s.m1, 0.5 * s.m2)
    log_up = log_a1 + _log_u(u_col, s, "upper") + log_env_w
    log_lo = log_a2 + _log_u(u_col, s, "lower") + log_env_w

    upper_ratio = np.exp(log_h - log_up)  # <= 1 when the upper bound holds
    lower_ratio = np.exp(log_h - log_lo)  # >= 1 when the lower bound holds

    marginal = marginal_w_density(w_grid, s)
    env_w = np.exp(log_env_w)
    plain_lower = marginal / env_w          # >= 1 iff env <= marginal
    scaled_upper = marginal / (a1 * env_w)  # <= 1 iff marginal <= a1 * env
    scaled_lower = marginal / (a2 * env_w)  # >= 1 iff a2 * env <= marginal

    violations = {"joint": [], "marginal": []}
    for part, side, ratio, failing in (
        ("joint", "upper", upper_ratio, upper_ratio > 1.0 + _SLACK),
        ("joint", "lower", lower_ratio, lower_ratio < 1.0 - _SLACK),
        ("marginal", "plain_lower", plain_lower, plain_lower < 1.0 - _SLACK),
        ("marginal", "upper", scaled_upper, scaled_upper > 1.0 + _SLACK),
        ("marginal", "scaled_lower", scaled_lower, scaled_lower < 1.0 - _SLACK),
    ):
        for point in np.argwhere(failing)[:_MAX_VIOLATIONS]:
            u = {"u": float(u_grid[point[0]])} if part == "joint" else {}
            violations[part].append({"side": side, **u, "w": float(w_grid[point[-1]]),
                                     "ratio": float(ratio[tuple(point)])})

    plain_ok = bool(plain_lower.min() >= 1.0 - _SLACK and scaled_upper.max() <= 1.0 + _SLACK)
    scaled_ok = bool(scaled_lower.min() >= 1.0 - _SLACK and scaled_upper.max() <= 1.0 + _SLACK)

    return {
        "setting": {"m1": s.m1, "m2": s.m2, "nu1": s.nu1, "nu2": s.nu2},
        "grid": {"n_u": int(n_u), "n_w": int(n_w), "u_max": float(u_hi), "slack": _SLACK},
        "a1": a1, "a2": a2, "a1_ge_1": a1 >= 1.0,
        "joint": {
            "upper_ratio_max": float(upper_ratio.max()),
            "lower_ratio_min": float(lower_ratio.min()),
            "ok": bool(not violations["joint"]),
            "violations": violations["joint"],
        },
        "marginal": {
            "plain_lower_ratio_min": float(plain_lower.min()),
            "scaled_lower_ratio_min": float(scaled_lower.min()),
            "upper_ratio_max": float(scaled_upper.max()),
            "plain_sandwich_ok": plain_ok,
            "scaled_sandwich_ok": scaled_ok,
            "violations": violations["marginal"],
        },
    }
