import math

import numpy as np
import pytest

from ewdist import pipelines
from ewdist.errors import RegimeError


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


def test_gof_table_rows_shape_and_determinism():
    grid = [(3, 2, 50), (11, 10, 50)]
    rows = pipelines.gof_table_rows(grid, n=100, replications=3, seed=5)
    assert len(rows) == 6
    assert rows == pipelines.gof_table_rows(grid, n=100, replications=3, seed=5)
    for m1, m2, nu, n, rep, ks, ks_id, ad, ad_id in rows:
        assert n == 100 and 0 <= rep < 3
        assert 0.0 <= ks <= 1.0
        assert isinstance(ks_id, bool) and isinstance(ad_id, bool)


def test_figure_pairs_as_printed():
    assert len(pipelines.FIGURE_PAIRS) == 8
    assert pipelines.FIGURE_PAIRS.count((2, 1)) == 2


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


def test_w_beta_gap_runs():
    gap = pipelines.w_beta_gap(3, 2, 50, 2000, seed=6)
    assert 0.0 < gap < 0.2
