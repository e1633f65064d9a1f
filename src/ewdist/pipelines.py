"""Reproduction pipelines behind the CLI commands.

Pure functions: they take parameters and a seed and return tables ready
for serialization, as an ordered {header: 1-D array or list} mapping of
columns plus a summary dict (`gof_table_rows` returns row tuples).  All
replication loops derive child seeds by index, so each row depends only on
its seed and parameters.  `gof_table_rows` builds each grid row's laws
once, draws its replications into two (replications x n) arrays and tests
them with one row-wise KS and one row-wise AD call.
"""

from __future__ import annotations

import numpy as np

from . import approx, elemental, goftests, product
from .dist import FParams, MvtParams, _w_draws, beta_cdf, beta_sample, w_sample
from .errors import DomainError, RegimeError
from .rng import derive_seed
from .specfun import _validate_count

__all__ = [
    "DEFAULT_GOF_GRID",
    "FIGURE_PAIRS",
    "compare_cdf_rows",
    "gof_table_rows",
    "omega_rows",
    "elemental_matrix_rows",
    "elemental_simulation_report",
    "w_beta_gap",
]

# the 30 (m1, m2, nu) combinations of the reported test table
DEFAULT_GOF_GRID = (
    (3, 2, 50), (3, 2, 150),
    (7, 2, 50), (7, 2, 150),
    (17, 2, 50), (17, 2, 150),
    (6, 5, 50), (6, 5, 150),
    (10, 5, 50), (10, 5, 150),
    (20, 5, 50), (20, 5, 150),
    (11, 10, 50), (11, 10, 150),
    (15, 10, 50), (15, 10, 150),
    (25, 10, 50), (25, 10, 150),
    (16, 15, 50), (16, 15, 150),
    (20, 15, 50), (20, 15, 150),
    (30, 15, 50), (30, 15, 150),
    (26, 25, 50), (26, 25, 150),
    (30, 25, 50), (30, 25, 150),
    (40, 25, 50), (40, 25, 150),
)

# the eight CDF-comparison panels at nu = 50; (2, 1) appears twice as printed
FIGURE_PAIRS = ((1, 1), (2, 1), (2, 1), (3, 2), (11, 5), (12, 5), (11, 10), (12, 10))


def _require_approx_regime(m1, m2, nu):
    if not (m2 <= m1 < nu):
        raise RegimeError(
            f"approximation regime requires m2 <= m1 < nu, got m1={m1}, m2={m2}, nu={nu}"
        )


def w_beta_gap(m1, m2, nu, n, seed) -> float:
    """Exact sup gap between the W sample's ECDF and the proposed Beta CDF."""
    _require_approx_regime(m1, m2, nu)
    shape = approx.approx_shape(m2)
    sample = w_sample(m1, m2, nu, n, seed)
    return goftests.ks_one_sample(sample, lambda x: beta_cdf(x, shape)).statistic


def compare_cdf_rows(m1, m2, nu, n, grid_points, seed):
    """Columns w, ecdf_w, beta_cdf, abs_gap on a uniform w grid, plus md."""
    _require_approx_regime(m1, m2, nu)
    if grid_points < 1:
        raise DomainError("grid_points must be positive")
    shape = approx.approx_shape(m2)
    sample = np.sort(w_sample(m1, m2, nu, n, seed))
    emp = goftests.EmpiricalCdf(sample)
    grid = np.linspace(0.0, 1.0, grid_points + 1)
    bcdf = np.asarray(beta_cdf(grid, shape))
    ecdf_vals = goftests.ecdf_eval(emp, grid)
    gaps = np.abs(ecdf_vals - bcdf)
    columns = {"w": grid, "ecdf_w": ecdf_vals, "beta_cdf": bcdf, "abs_gap": gaps}
    return columns, {"md": float(gaps.max())}


def gof_table_rows(grid, n, replications, seed):
    """One row per grid entry per replication, two-sample mode.

    Row: (m1, m2, nu, n, rep, ks, ks_identical, ad, ad_identical).
    Replication rep of grid row i draws W from derive_seed(s, 0) and the
    Beta sample from derive_seed(s, 1), s = derive_seed(derive_seed(seed, i), rep).
    The replications of a grid row are tested in one KS and one AD call at
    the kernels' default level, alpha = 0.01.
    """
    grid = [tuple(map(float, row)) for row in grid]
    for m1, m2, nu in grid:
        _require_approx_regime(m1, m2, nu)
    replications = int(replications)
    if replications < 0:
        raise DomainError(f"replications must be nonnegative, got {replications}")
    n = _validate_count("sample size", n)
    if replications == 0:
        return []

    rows = []
    for row_idx, (m1, m2, nu) in enumerate(grid):
        p1, p2, shape = FParams(m1, nu), FParams(m2, nu), approx.approx_shape(m2)
        row_seed = derive_seed(seed, row_idx)
        w, ref = [], []
        for rep in range(replications):
            rep_seed = derive_seed(row_seed, rep)
            w.append(_w_draws(p1, p2, n, derive_seed(rep_seed, 0)))
            ref.append(beta_sample(shape, n, derive_seed(rep_seed, 1)))
        w, ref = np.stack(w), np.stack(ref)
        ks = goftests.ks_two_sample_rows(w, ref)
        ad = goftests.ad_two_sample_rows(w, ref)
        rows += [
            (m1, m2, nu, n, rep, k.statistic, k.identical, a.statistic, a.identical)
            for rep, (k, a) in enumerate(zip(ks, ad))
        ]
    return rows


def omega_rows(rho, n2, n, grid_points, seed):
    """CDF comparison grid and moment table for the product law.

    Columns row_type, x, analytic, empirical.  Grid rows: ("cdf", omega,
    numeric cdf, Monte Carlo ecdf), then moment rows: ("moment", k, closed
    form, Monte Carlo mean of Omega^k) for k = 0..3.
    """
    spec = product.ProductSpec(rho, n2)
    draws = np.sort(product.omega_sample(spec, n, seed))
    emp = goftests.EmpiricalCdf(draws)
    grid = np.linspace(1e-8, 1.0 - 1e-8, grid_points)
    cdf_num = np.asarray(product.omega_cdf_numeric(spec, grid))
    ecdf_mc = goftests.ecdf_eval(emp, grid)
    orders = range(4)
    columns = {
        "row_type": ["cdf"] * grid.size + ["moment"] * len(orders),
        "x": np.concatenate([grid, np.array(orders, dtype=float)]),
        "analytic": np.concatenate([cdf_num, [product.omega_moment(spec, k) for k in orders]]),
        "empirical": np.concatenate([ecdf_mc, [float(np.mean(draws**k)) for k in orders]]),
    }
    gap = goftests.ks_one_sample(draws, lambda x: product.omega_cdf_numeric(spec, x))
    return columns, {"sup_gap_numeric_vs_mc": float(gap.statistic)}


def elemental_matrix_rows(matrix):
    """Columns set_indices, weight of a provided design matrix plus the weight sum."""
    weights = elemental.all_weights(matrix)
    columns = {
        "set_indices": [" ".join(str(i) for i in ew.indices) for ew in weights],
        "weight": [ew.weight for ew in weights],
    }
    total = float(sum(columns["weight"]))
    return columns, {"cauchy_binet_sum": total, "cauchy_binet_expected": 1.0}


def elemental_simulation_report(rho, nu, l, n_matrices, seed, mode="sampled-sets",
                                intercept=False):
    """Columns draw_index, weight of simulated t-model weights, plus product-law KS.

    The product-law comparison is reported for both factor-count
    conventions (l - rho and l - rho - 1); neither is asserted.
    """
    params = MvtParams(dim=int(rho), dof=float(nu), scale=np.eye(int(rho)))
    weights = elemental.simulate_weight_distribution(
        params, int(l), int(n_matrices), seed, mode=mode, intercept=intercept
    )

    # weight-sum check on the first generated matrix
    first = elemental.simulated_design(params, int(l), seed, 0, intercept)
    cols = first.shape[1]
    k = int(rho) + 1
    cb_sum = float(sum(ew.weight for ew in elemental.all_weights(first, set_size=k)))

    summary = {
        "cauchy_binet_sum_first_matrix": cb_sum,
        "cauchy_binet_expected": elemental.expected_weight_sum(int(l), cols, k),
        "n_weights": weights.size,
    }
    eligible = weights[(weights > 0.0) & (weights < 1.0)]
    for n2 in (int(l) - int(rho), int(l) - int(rho) - 1):
        key = f"ks_vs_product_n2_{n2}"
        if n2 >= 1 and eligible.size:
            spec = product.ProductSpec(int(rho), n2)
            res = goftests.ks_one_sample(
                eligible, lambda x, sp=spec: product.omega_cdf_numeric(sp, x)
            )
            summary[key] = float(res.statistic)
        else:
            summary[key] = None
    return {"draw_index": np.arange(weights.size), "weight": weights}, summary
