"""Compute the mpmath reference for the `certify` workload's oracle check.

For each certificate setting and w-grid size it integrates the exact
marginal density of W at every grid point over u, from the product of
the two F densities (no code from ewdist is used), working at 30 digits.
It writes, to 20 significant digits:

- the envelope constants a1 and a2;
- the three marginal-ratio extrema that `ew certify-bounds` reports.

Run once from the repository root and commit the result:

    python3 bench/make_oracle.py

It takes a few minutes; the output is `bench/data/certify_oracle.json`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import CERTIFY_SETTINGS, ORACLE_GRIDS  # noqa: E402

mp.mp.dps = 30
BREAKS = [0, 0.125, 0.5, 1, 2, 4, 8, 32, 256, mp.inf]
OUT = Path(__file__).resolve().parent / "data" / "certify_oracle.json"


def _ln_beta(a, b):
    return mp.loggamma(a) + mp.loggamma(b) - mp.loggamma(a + b)


def _ln_f_density(y, m, nu):
    """log of the F(m, nu) density at y > 0."""
    return (
        m / 2 * mp.log(m / nu)
        + (m / 2 - 1) * mp.log(y)
        - (m + nu) / 2 * mp.log1p(m * y / nu)
        - _ln_beta(m / 2, nu / 2)
    )


def marginal(w, m1, m2, nu1, nu2):
    """f_W(w) = int_0^inf u f_F(u w; m1, nu1) f_F(u (1-w); m2, nu2) du."""
    w = mp.mpf(w)

    def integrand(u):
        if u == 0:
            return mp.mpf(0)
        return mp.exp(mp.log(u) + _ln_f_density(u * w, m1, nu1) + _ln_f_density(u * (1 - w), m2, nu2))

    # U = Y1 + Y2 is of order 1; geometric break points give tanh-sinh one
    # smooth piece per interval from the u -> 0 power law to the u -> inf tail
    return mp.quad(integrand, BREAKS)


def constants(m1, m2, nu1, nu2):
    """Closed-form envelope constants (a1, a2)."""
    t1 = (m1 + m2) / 2
    common = _ln_beta(m1 / 2, m2 / 2) - _ln_beta(m1 / 2, nu1 / 2) - _ln_beta(m2 / 2, nu2 / 2)
    log_a1 = m1 / 2 * mp.log(m1 * nu2 / (m2 * nu1)) + _ln_beta(t1, (nu2 - m1) / 2) + common
    log_a2 = (
        t1 * mp.log(2)
        + m2 / 2 * mp.log(m2 * nu1 / (m1 * nu2))
        + _ln_beta(t1, (m1 - m2 + 2 * nu1) / 2)
        + common
    )
    return mp.exp(log_a1), mp.exp(log_a2)


def envelope(w, m1, m2):
    """Beta(m1/2, m2/2) density."""
    w = mp.mpf(w)
    return mp.exp((m1 / 2 - 1) * mp.log(w) + (m2 / 2 - 1) * mp.log1p(-w) - _ln_beta(m1 / 2, m2 / 2))


def reference(setting, n_w):
    m1, m2, nu1, nu2 = (mp.mpf(v) for v in setting)
    a1, a2 = constants(m1, m2, nu1, nu2)
    # the CLI's interior grid; the float values are taken exactly
    grid = [float(w) for w in np.linspace(0.01, 0.99, n_w)]
    ratios = [marginal(w, m1, m2, nu1, nu2) / envelope(w, m1, m2) for w in grid]
    return {
        "setting": list(setting),
        "n_w": n_w,
        "a1": mp.nstr(a1, 20),
        "a2": mp.nstr(a2, 20),
        "plain_lower_ratio_min": mp.nstr(min(ratios), 20),
        "upper_ratio_max": mp.nstr(max(ratios) / a1, 20),
        "scaled_lower_ratio_min": mp.nstr(min(ratios) / a2, 20),
    }


def main():
    entries = []
    for setting in CERTIFY_SETTINGS:
        for n_w in ORACLE_GRIDS:
            entries.append(reference(setting, n_w))
            print(json.dumps(entries[-1]), flush=True)
    OUT.parent.mkdir(exist_ok=True)
    payload = {"mpmath_dps": mp.mp.dps, "mpmath_version": mp.__version__, "entries": entries}
    OUT.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
