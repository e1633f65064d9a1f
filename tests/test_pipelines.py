import math

import numpy as np
import pytest

from ewdist import approx, elemental, pipelines
from ewdist.dist import MvtParams, beta_sample, w_sample
from ewdist.errors import DomainError, RegimeError
from ewdist.goftests import AD_CRITICAL, KS_CRITICAL, _ad_variance
from ewdist.rng import derive_seed


def test_compare_cdf_row_count_and_recomputable_gap():
    columns, summary = pipelines.compare_cdf_rows(1, 1, 50, 10_000, 100, seed=1)
    assert list(columns) == ["w", "ecdf_w", "beta_cdf", "abs_gap"]
    assert len(columns["w"]) == 101
    for w, e, b, gap in zip(*columns.values(), strict=True):
        assert gap == pytest.approx(abs(e - b), abs=1e-15)
    assert summary["md"] == pytest.approx(max(columns["abs_gap"]))
    bcdf = columns["beta_cdf"]
    assert bcdf[0] == 0.0 and bcdf[-1] == 1.0  # exact cdf endpoints


def test_compare_cdf_requires_regime():
    with pytest.raises(RegimeError):
        pipelines.compare_cdf_rows(2, 3, 50, 100, 10, seed=1)
    with pytest.raises(RegimeError):
        pipelines.compare_cdf_rows(60, 2, 50, 100, 10, seed=1)


def test_default_gof_grid_has_30_rows():
    assert len(pipelines.DEFAULT_GOF_GRID) == 30
    assert pipelines.DEFAULT_GOF_GRID[0] == (3, 2, 50)
    for m1, m2, nu in pipelines.DEFAULT_GOF_GRID:
        assert m2 <= m1 < nu


GOF_COLUMNS = ["m1", "m2", "nu", "n", "rep", "ks", "ks_identical", "ad", "ad_identical"]


def test_gof_table_rows_shape_and_determinism():
    grid = [(3, 2, 50), (11, 10, 50)]
    columns, summary = pipelines.gof_table_rows(grid, n=100, replications=3, seed=5)
    assert list(columns) == GOF_COLUMNS and summary == {}
    assert {len(col) for col in columns.values()} == {6}
    again, _ = pipelines.gof_table_rows(grid, n=100, replications=3, seed=5)
    for name, col in columns.items():
        assert col.dtype == again[name].dtype and np.array_equal(col, again[name])
    assert (columns["n"] == 100).all() and list(columns["rep"]) == [0, 1, 2] * 2
    assert ((0.0 <= columns["ks"]) & (columns["ks"] <= 1.0)).all()
    assert columns["ks_identical"].dtype == columns["ad_identical"].dtype == bool


def _reference_ks(a, b):
    """Two-sample KS by searchsorted on the merged sample (the per-replication form)."""
    xa, xb = np.sort(a), np.sort(b)
    grid = np.sort(np.concatenate([xa, xb]), kind="mergesort")
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.abs(fa - fb).max())


def _reference_ad(a, b):
    """Standardized midrank two-sample AD over np.unique of the pool."""
    n1, n2 = a.size, b.size
    n_total = n1 + n2
    z, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    f1 = np.searchsorted(np.sort(a), z, side="right").astype(float)
    f1 = np.diff(np.concatenate(([0.0], f1)))
    f2 = counts - f1
    lj = counts.astype(float)
    b_mid = np.cumsum(lj) - lj / 2.0
    a2 = 0.0
    for fi, ni in ((f1, n1), (f2, n2)):
        m_mid = np.cumsum(fi) - fi / 2.0
        denom = b_mid * (n_total - b_mid) - n_total * lj / 4.0
        inner = lj / n_total * (n_total * m_mid - ni * b_mid) ** 2 / denom
        a2 += inner.sum() / ni
    a2 *= (n_total - 1.0) / n_total
    return float((a2 - 1.0) / np.sqrt(_ad_variance(2, (n1, n2))))


def _reference_gof_rows(grid, n, replications, seed):
    rows = []
    for row_idx, (m1, m2, nu) in enumerate(grid):
        for rep in range(replications):
            rep_seed = derive_seed(derive_seed(seed, row_idx), rep)
            w = w_sample(m1, m2, nu, n, derive_seed(rep_seed, 0))
            ref = beta_sample(approx.approx_shape(m2), n, derive_seed(rep_seed, 1))
            ks, ad = _reference_ks(w, ref), _reference_ad(w, ref)
            ks_crit = float(KS_CRITICAL * np.sqrt((n + n) / (n * n)))
            rows.append((float(m1), float(m2), float(nu), n, rep,
                         ks, ks < ks_crit, ad, ad < AD_CRITICAL))
    return rows


@pytest.mark.parametrize("n", [7, 200])
@pytest.mark.parametrize("seed", [12345, 7, 2**64 - 1])
def test_gof_table_rows_match_per_replication_reference(n, seed):
    grid = [(3, 2, 50), (20, 5, 150), (40, 25, 50)]
    columns, _ = pipelines.gof_table_rows(grid, n=n, replications=15, seed=seed)
    expected = _reference_gof_rows(grid, n, 15, seed)
    assert list(columns) == GOF_COLUMNS
    for (name, col), want in zip(columns.items(), zip(*expected), strict=True):
        want = np.array(want)  # float, int and bool cells as float64, int64 and bool
        assert col.dtype == want.dtype and np.array_equal(col, want), name


def test_gof_table_rows_replication_count():
    grid = [(3, 2, 50)]
    columns, summary = pipelines.gof_table_rows(grid, n=50, replications=0, seed=1)
    assert columns == {name: [] for name in GOF_COLUMNS} and summary == {}
    with pytest.raises(DomainError, match="positive integer"):
        pipelines.gof_table_rows(grid, n=-5, replications=0, seed=1)
    with pytest.raises(DomainError, match="nonnegative"):
        pipelines.gof_table_rows(grid, n=50, replications=-3, seed=1)
    with pytest.raises(DomainError, match="at least 4"):
        pipelines.gof_table_rows(grid, n=1, replications=2, seed=1)


def test_omega_rows_moments_and_tail():
    columns, summary = pipelines.omega_rows(2, 3, n=20_000, grid_points=200, seed=2)
    assert list(columns) == ["row_type", "x", "analytic", "empirical"]
    rows = list(zip(*columns.values(), strict=True))
    cdf_rows = [r for r in rows if r[0] == "cdf"]
    moment_rows = [r for r in rows if r[0] == "moment"]
    assert len(cdf_rows) == 200 and len(moment_rows) == 4
    assert moment_rows[0][2] == 1.0 and moment_rows[0][3] == 1.0
    assert cdf_rows[-1][2] >= 0.999
    assert summary["sup_gap_numeric_vs_mc"] < 0.05


def test_elemental_matrix_rows(rng):
    x = rng.normal(size=(5, 2))
    columns, summary = pipelines.elemental_matrix_rows(x)
    assert list(columns) == ["set_indices", "weight"]
    assert len(columns["set_indices"]) == len(columns["weight"]) == 10
    assert summary["cauchy_binet_sum"] == pytest.approx(1.0, abs=1e-10)
    assert columns["set_indices"][0] == "1 2"


def test_elemental_simulation_report_minimal_rows():
    columns, summary = pipelines.elemental_simulation_report(
        2, 50, 3, n_matrices=5, seed=4
    )
    assert list(columns) == ["draw_index", "weight"]
    assert list(columns["draw_index"]) == [0, 1, 2, 3, 4]
    assert all(w == pytest.approx(1.0, abs=1e-12) for w in columns["weight"])
    # one unit-size family: expected subset-sum is C(l-c, k-c) = C(1, 1)
    assert summary["cauchy_binet_expected"] == 1.0
    assert summary["ks_vs_product_n2_1"] is None  # all weights at the boundary
    assert summary["ks_vs_product_n2_0"] is None


def test_elemental_simulation_report_ks_keys():
    columns, summary = pipelines.elemental_simulation_report(
        2, 50, 7, n_matrices=60, seed=8
    )
    assert len(columns["draw_index"]) == len(columns["weight"]) == 60
    assert summary["cauchy_binet_sum_first_matrix"] == pytest.approx(
        summary["cauchy_binet_expected"], abs=1e-9
    )
    assert 0.0 < summary["ks_vs_product_n2_5"] < 1.0
    assert 0.0 < summary["ks_vs_product_n2_4"] < 1.0


@pytest.mark.parametrize("mode", ["sampled-sets", "all"])
@pytest.mark.parametrize("n_matrices", [0, 5])
def test_elemental_simulation_report_draws_each_design_once(monkeypatch, mode, n_matrices):
    draws = []
    sample = elemental.mvt_sample_rows

    def spy(p, n_rows, seeds):
        draws.append(seeds)
        return sample(p, n_rows, seeds)

    monkeypatch.setattr(elemental, "mvt_sample_rows", spy)
    _, summary = pipelines.elemental_simulation_report(2, 50, 7, n_matrices, seed=9, mode=mode)
    monkeypatch.undo()
    # one draw of designs 0..max(n_matrices, 1) - 1; matrix 0 carries the weight-sum check
    assert len(draws) == 1
    assert np.array_equal(draws[0], derive_seed(9, 2 * np.arange(max(n_matrices, 1))))
    first = elemental.simulated_design(MvtParams(2, 50.0), 7, 9, 0)
    expected = float(sum(elemental.all_weights(first, set_size=3)[1]))
    assert summary["cauchy_binet_sum_first_matrix"] == expected
    assert summary["n_weights"] == n_matrices * (35 if mode == "all" else 1)
