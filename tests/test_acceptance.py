"""Acceptance suite: one test per numbered criterion, with a printed
pass/fail line each.  Tolerances are pinned here, not calibrated later.

Two sub-criteria encode claims of the source material that the
implementation measures and finds false; those tests emit a structured
violation report and fail (see notes/decisions.md at the repo root of
the review bundle).  Everything else must be green.
"""

import json
import time

import numpy as np
import pytest
from scipy.integrate import quad

from ewdist import approx, pipelines, product
from ewdist.cli import main as cli_main
from ewdist.dist import FParams, beta_sample, f_pdf, w_sample
from ewdist.elemental import all_weights, chain_ratios, weight_of_set
from ewdist.goftests import ecdf, ks_one_sample, ks_two_sample
from ewdist.rng import derive_seed
from ewdist.specfun import reg_inc_beta

from conftest import beta_integral_quad

SEED = 20260809


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_c1_figure_gap_bound():
    """Sup gap ECDF(W) vs proposed Beta < 0.2 for the 8 panels (< 0.1 at m2=10)."""
    t0 = time.time()
    gaps = {}
    for idx, (m1, m2) in enumerate(pipelines.FIGURE_PAIRS):
        gaps[(m1, m2, idx)] = pipelines.w_beta_gap(
            m1, m2, 50, 10_000, derive_seed(SEED, idx)
        )
    elapsed = time.time() - t0
    detail = ", ".join(f"({m1},{m2})={g:.4f}" for (m1, m2, _), g in gaps.items())
    ok = all(g < 0.20 for g in gaps.values()) and all(
        g < 0.10 for (m1, m2, _), g in gaps.items() if m2 == 10
    )
    _report("criterion 1", ok and elapsed < 30, f"{detail}; {elapsed:.1f}s")
    assert all(g < 0.20 for g in gaps.values()), gaps
    for (m1, m2, _), g in gaps.items():
        if m2 == 10:
            assert g < 0.10, (m1, m2, g)
    assert elapsed < 30.0, f"figure reproduction took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def table1_medians():
    t0 = time.time()
    columns, _ = pipelines.gof_table_rows(
        pipelines.DEFAULT_GOF_GRID, n=200, replications=500, seed=SEED
    )
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"table reproduction took {elapsed:.1f}s"
    ks = {}
    for m1, m2, nu, stat in zip(*(columns[k].tolist() for k in ("m1", "m2", "nu", "ks"))):
        ks.setdefault((m1, m2, nu), []).append(stat)
    return {key: float(np.median(v)) for key, v in ks.items()}


def test_c2a_table_medians_identical_verdicts(table1_medians):
    """Median two-sample KS below the 1% critical for all rows except (6,5,.)."""
    critical = 0.163
    exempt = {(6.0, 5.0, 50.0), (6.0, 5.0, 150.0)}
    bad = {
        k: v for k, v in table1_medians.items()
        if k not in exempt and v >= critical
    }
    bracket = table1_medians[(3.0, 2.0, 50.0)]
    ok = not bad and 0.02 <= bracket <= 0.13
    _report(
        "criterion 2a",
        ok,
        f"max non-exempt median={max(v for k, v in table1_medians.items() if k not in exempt):.4f}"
        f" (critical {critical}); median(3,2,50)={bracket:.4f} in [0.02, 0.13]",
    )
    assert not bad, f"rows with median KS >= {critical}: {bad}"
    assert 0.02 <= bracket <= 0.13, bracket


def test_c2b_table_anomaly_ordering(table1_medians):
    """Stated anomaly: median KS of (6,5,.) above (20,5,.).

    The measurement contradicts this: m1 = 6 sits nearly at the m2 + 0.5
    limit where the approximation is best, and the measured medians of 500
    replications at n = 200 are 0.0950 vs 0.1000 at nu = 50 and 0.0900 vs
    0.1050 at nu = 150.  Why the source table printed larger values for
    (6,5,.) is open; ROADMAP item 3 measures how rare they are under this
    protocol.  Report the measured medians and fail honestly.
    """
    pairs = {
        nu: (table1_medians[(6.0, 5.0, nu)], table1_medians[(20.0, 5.0, nu)])
        for nu in (50.0, 150.0)
    }
    ok = all(m65 > m205 for m65, m205 in pairs.values())
    detail = "; ".join(
        f"nu={nu:.0f}: median(6,5)={a:.4f} vs median(20,5)={b:.4f}"
        for nu, (a, b) in pairs.items()
    )
    _report("criterion 2b", ok, detail)
    if not ok:
        print(json.dumps({"criterion": "2b", "measured_medians": {
            str(int(nu)): {"m1=6,m2=5": a, "m1=20,m2=5": b} for nu, (a, b) in pairs.items()
        }, "note": "true ordering is reversed; see decisions ledger"}, indent=2))
    assert ok, f"(6,5) medians do not exceed (20,5): {detail}"


def test_c3_joint_density_normalization():
    """Double integral of the joint density equals 1 within 1e-6, all settings."""
    masses = {}
    for setting in approx.CERTIFICATE_SETTINGS:
        masses[setting] = approx.joint_total_mass(approx.RatioSetting(*setting))
    ok = all(abs(m - 1.0) <= 1e-6 for m in masses.values())
    _report(
        "criterion 3 (normalization)",
        ok,
        ", ".join(f"{s}: {m:.9f}" for s, m in masses.items()),
    )
    for setting, m in masses.items():
        assert abs(m - 1.0) <= 1e-6, (setting, m)


def test_c3_marginal_sandwich_certificate():
    """Plain marginal sandwich env <= marginal <= a1*env on the 99-point grid.

    The lower side is provably impossible pointwise (both sides are
    probability densities), and the certificates measure violations on
    every setting.  Emit the structured violation report and fail, as
    specified for this outcome.
    """
    reports = []
    for setting in approx.CERTIFICATE_SETTINGS:
        rep = approx.certify_bounds(approx.RatioSetting(*setting), n_u=200, n_w=99)
        reports.append(rep)
    failing = [r for r in reports if not r["marginal"]["plain_sandwich_ok"]]
    ok = not failing
    _report(
        "criterion 3 (marginal sandwich)",
        ok,
        f"{len(failing)}/{len(reports)} settings violate the plain lower bound",
    )
    if failing:
        structured = [
            {
                "setting": r["setting"],
                "a1": r["a1"],
                "a2": r["a2"],
                "plain_lower_ratio_min": r["marginal"]["plain_lower_ratio_min"],
                "scaled_sandwich_ok": r["marginal"]["scaled_sandwich_ok"],
                "violations": r["marginal"]["violations"][:5],
            }
            for r in failing
        ]
        print(json.dumps({"criterion": "3", "violation_report": structured}, indent=2))
    assert ok, (
        "marginal sandwich violated; structured report above "
        "(the constant-scaled sandwich a2*env <= marginal <= a1*env does hold)"
    )


def test_c4_product_law_consistency():
    """MC moments within 4 SE of closed form; sup CDF distance < 0.005."""
    t0 = time.time()
    details = []
    for i, (rho, n2) in enumerate([(1, 2), (2, 3), (2, 10), (5, 5)]):
        spec = product.ProductSpec(rho, n2)
        draws = product.omega_sample(spec, 10**6, derive_seed(SEED, 100 + i))
        for k in (1, 2, 3):
            vals = draws**k
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            gap = abs(vals.mean() - product.omega_moment(spec, k))
            assert gap < 4 * se, (rho, n2, k, gap, se)
        sup = ks_one_sample(
            draws, lambda x: product.omega_cdf_numeric(spec, x)
        ).statistic
        details.append(f"({rho},{n2}) sup={sup:.4f}")
        assert sup < 0.005, (rho, n2, sup)
    elapsed = time.time() - t0
    _report("criterion 4", elapsed < 60, f"{', '.join(details)}; {elapsed:.1f}s")
    assert elapsed < 60.0


def test_c5_cauchy_binet_and_chain():
    """Weight sums equal 1 within 1e-10; chain products match weights."""
    rng = np.random.default_rng(SEED)
    worst_sum = 0.0
    worst_chain = 0.0
    for _ in range(50):
        c = int(rng.integers(2, 5))  # rho <= 3 -> up to 4 columns
        l = int(rng.integers(c, 11))
        x = rng.normal(size=(l, c))
        while np.linalg.matrix_rank(x) < c:
            x = rng.normal(size=(l, c))
        subsets, weights = all_weights(x)
        worst_sum = max(worst_sum, abs(sum(weights) - 1.0))
        for indices in subsets[:: max(1, len(subsets) // 5)]:
            prod = float(np.prod(chain_ratios(x, indices))) if l > c else 1.0
            ref = weight_of_set(x, indices)
            if ref > 0:
                worst_chain = max(worst_chain, abs(prod / ref - 1.0))
    ok = worst_sum <= 1e-10 and worst_chain <= 1e-10
    _report("criterion 5", ok, f"max |sum-1|={worst_sum:.2e}, max chain rel err={worst_chain:.2e}")
    assert worst_sum <= 1e-10
    assert worst_chain <= 1e-10


def test_c6_special_function_accuracy():
    """reg_inc_beta within 1e-10 of quadrature; f_cdf within 1e-8."""
    rng = np.random.default_rng(SEED + 1)
    x = rng.uniform(0.0, 1.0, 1000)
    a = rng.uniform(0.25, 30.0, 1000)
    b = rng.uniform(0.25, 30.0, 1000)
    mine = reg_inc_beta(x, a, b)
    oracle = np.array([beta_integral_quad(*t) for t in zip(x, a, b)])
    worst_beta = float(np.abs(mine - oracle).max())

    worst_f = 0.0
    from ewdist.dist import f_cdf

    for _ in range(60):
        m = float(rng.uniform(0.5, 40.0))
        nu = float(rng.uniform(1.0, 150.0))
        y = float(rng.uniform(0.05, 5.0))
        ref, _ = quad(lambda t: f_pdf(t, FParams(m, nu)), 0, y, limit=300)
        worst_f = max(worst_f, abs(f_cdf(y, FParams(m, nu)) - ref))
    ok = worst_beta <= 1e-10 and worst_f <= 1e-8
    _report("criterion 6", ok, f"max beta err={worst_beta:.2e}, max f_cdf err={worst_f:.2e}")
    assert worst_beta <= 1e-10
    assert worst_f <= 1e-8


def test_c7_gof_self_calibration():
    """One-sample KS rejects a true null at a rate near alpha = 0.01."""
    from ewdist.dist import beta_cdf

    shape = approx.approx_shape(2.0)
    rejections = 0
    replications = 2000
    for rep in range(replications):
        sample = beta_sample(shape, 200, derive_seed(SEED + 2, rep))
        res = ks_one_sample(sample, lambda x: beta_cdf(x, shape))
        rejections += not res.identical
    rate = rejections / replications
    same = np.linspace(0.1, 0.9, 81)
    two = ks_two_sample(same, same).statistic
    ok = 0.004 <= rate <= 0.020 and two == 0.0
    _report("criterion 7", ok, f"rejection rate={rate:.4f}, ks(a,a)={two}")
    assert 0.004 <= rate <= 0.020, rate
    assert two == 0.0


def _run_all_commands(tmp_path, tag, monkeypatch, cpus):
    monkeypatch.setattr("ewdist.rng._available_cpus", lambda: cpus)
    outs = {}
    jobs = {
        "simulate-w": ["simulate-w", "--m1", "3", "--m2", "2", "--nu", "50",
                       "--n", "50000", "--seed", "9", "--out"],
        "compare-cdf": ["compare-cdf", "--m1", "3", "--m2", "2", "--nu", "50",
                        "--n", "50000", "--grid-points", "100", "--seed", "9", "--out"],
        "gof-table": ["gof-table", "--n", "100", "--replications", "2",
                      "--seed", "9", "--format", "json", "--out"],
        "omega": ["omega", "--rho", "2", "--n2", "3", "--n", "50000",
                  "--grid-points", "100", "--seed", "9", "--out"],
        "elemental": ["elemental", "--generate", "--rho", "2", "--nu", "50",
                      "--l", "7", "--n-matrices", "50", "--seed", "9", "--out"],
        "certify-bounds": ["certify-bounds", "--m1", "3", "--m2", "2", "--nu1", "50",
                           "--nu2", "50", "--grid", "40x33", "--seed", "9", "--out"],
    }
    for name, argv in jobs.items():
        out = tmp_path / f"{name}-{tag}.out"
        assert cli_main(argv + [str(out)]) == 0, name
        outs[name] = out.read_bytes()
    return outs


def test_c8_cli_determinism(tmp_path, monkeypatch):
    """Byte-identical outputs across reruns and 1 or 4 sampler workers."""
    first = _run_all_commands(tmp_path, "t1", monkeypatch, 1)
    again = _run_all_commands(tmp_path, "t1b", monkeypatch, 1)
    threaded = _run_all_commands(tmp_path, "t4", monkeypatch, 4)
    ok = first == again == threaded
    _report("criterion 8", ok, f"{len(first)} commands byte-identical across runs and threads")
    assert first == again
    assert first == threaded


def test_c9_tv_distance_and_bound():
    """TV distance is finite alongside the bound and decreases with n."""
    from ewdist.dist import beta_sample as bs

    details = []
    ok = True
    for i, m2 in enumerate((2.0, 10.0)):
        shape = approx.approx_shape(m2)
        tvs = {}
        for j, n in enumerate((200, 2000)):
            seed = derive_seed(SEED + 3, 10 * i + j)
            w = w_sample(m2 + 0.5, m2, 50.0, n, derive_seed(seed, 0))
            ref = bs(shape, n, derive_seed(seed, 1))
            from ewdist.goftests import tv_distance

            tvs[n] = tv_distance(ecdf(w), ecdf(ref))
            bound = approx.tv_bound(m2, 50.0, n)
            assert np.isfinite(tvs[n]) and np.isfinite(bound)
            details.append(f"m2={m2:.0f},n={n}: tv={tvs[n]:.5f}, bound={bound:.5f}")
        ok = ok and tvs[2000] < tvs[200]
        assert tvs[2000] < tvs[200], (m2, tvs)
    _report("criterion 9", ok, "; ".join(details))
