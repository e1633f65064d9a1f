"""Reproduction pipelines behind the CLI commands.

Pure functions: they take parameters and a seed and return tables ready
for serialization, as an ordered {header: 1-D array or list} mapping of
columns plus a summary dict.  All replication loops derive child seeds by
index, so each row depends only on its seed and parameters.
`gof_table_rows` derives every seed of the table in a few array calls,
draws each grid row's replications into two (replications x n) arrays,
sorts the pooled rows once and reads both the KS and the AD columns from
that sort.  A table of at least `_FORK_DRAWS` W draws runs its grid rows
in forked worker processes (`rng._fork_map`): the seeds are all derived
before any worker starts and each grid row is a function of its own
seeds, so no column depends on the worker count.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from . import approx, elemental, goftests, product, rng
from .dist import MvtParams, beta_cdf, beta_sample, w_sample
from .errors import RegimeError
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

# Fewest W draws (grid rows x replications x n) for which gof_table_rows runs
# its grid rows in forked workers.  Median cli.main time of `ew gof-table
# --format json` (30 rows, n = 200), serial vs always forked, in three rounds of
# 11 alternating fresh-process pairs on 2 CPUs: 45-52 vs 77-104 ms at 1
# replication, 60-66 vs 70-109 at 5, 67-108 vs 80-96 at 10, 115-129 vs 98-103 at
# 15 and 123-146 vs 101-124 at 20.  So the fork pays from 10-15 replications on;
# with more CPUs (more workers) the break-even may lie elsewhere.
_FORK_DRAWS = 90_000

# the columns of the gof-table, one row per grid row per replication
_GOF_COLUMNS = ("m1", "m2", "nu", "n", "rep", "ks", "ks_identical", "ad", "ad_identical")

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
    grid_points = _validate_count("grid_points", grid_points)
    shape = approx.approx_shape(m2)
    sample = np.sort(w_sample(m1, m2, nu, n, seed))
    emp = goftests.EmpiricalCdf(sample)
    grid = np.linspace(0.0, 1.0, grid_points + 1)
    bcdf = np.asarray(beta_cdf(grid, shape))
    ecdf_vals = goftests.ecdf_eval(emp, grid)
    gaps = np.abs(ecdf_vals - bcdf)
    columns = {"w": grid, "ecdf_w": ecdf_vals, "beta_cdf": bcdf, "abs_gap": gaps}
    return columns, {"md": float(gaps.max())}


def _gof_grid_row(item) -> list:
    """The `_GOF_COLUMNS` of one grid row: draw its replications, then test them.

    `item` is ((m1, m2, nu), n, w_seeds, ref_seeds), one seed per replication.
    """
    (m1, m2, nu), n, w_seeds, ref_seeds = item
    w = w_sample(m1, m2, nu, n, w_seeds)
    ref = beta_sample(approx.approx_shape(m2), n, ref_seeds)
    return [*(np.full(len(w), v) for v in (m1, m2, nu, n)), np.arange(len(w)),
            *goftests.two_sample_rows(w, ref)]


def gof_table_rows(grid, n, replications, seed):
    """Columns `_GOF_COLUMNS`, one row per grid entry per replication, two-sample mode.

    Replication rep of grid row i draws W from derive_seed(s, 0) and the
    Beta sample from derive_seed(s, 1), s = derive_seed(derive_seed(seed, i), rep).
    The seeds of the whole table are derived by array calls, each grid row's
    replications drawn as two (replications x n) arrays and tested in one KS
    and AD pass at alpha = 0.01.  A table of at least `_FORK_DRAWS` W draws
    runs its grid rows in forked worker processes; every row is a function
    of its own seeds, and the columns are joined in grid order.
    """
    grid = [tuple(map(float, row)) for row in grid]
    for m1, m2, nu in grid:
        _require_approx_regime(m1, m2, nu)
    replications = _validate_count("replications", replications, least=0)
    n = _validate_count("sample size", n)
    if replications == 0:
        return {name: [] for name in _GOF_COLUMNS}, {}

    rep_seeds = derive_seed(derive_seed(seed, np.arange(len(grid)))[:, None],
                            np.arange(replications))
    w_seeds, ref_seeds = derive_seed(rep_seeds, 0), derive_seed(rep_seeds, 1)
    items = [(row, n, w, ref) for row, w, ref in zip(grid, w_seeds, ref_seeds)]
    serial = len(grid) * replications * n < _FORK_DRAWS
    with (nullcontext(map(_gof_grid_row, items)) if serial
          else rng._fork_map(_gof_grid_row, items)) as parts:
        return dict(zip(_GOF_COLUMNS, map(np.concatenate, zip(*parts)))), {}


def omega_rows(rho, n2, n, grid_points, seed):
    """CDF comparison grid and moment table for the product law.

    Columns row_type, x, analytic, empirical.  Grid rows: ("cdf", omega,
    numeric cdf, Monte Carlo ecdf), then moment rows: ("moment", k, closed
    form, Monte Carlo mean of Omega^k) for k = 0..3.
    """
    spec = product.ProductSpec(rho, n2)
    grid_points = _validate_count("grid_points", grid_points)
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
    subsets, weights = elemental.all_weights(matrix)
    rows = "\n".join([" ".join(["%d"] * subsets.shape[1])] * len(subsets)) % tuple(
        subsets.ravel().tolist())
    columns = {"set_indices": rows.split("\n"), "weight": weights}
    return columns, {"cauchy_binet_sum": float(sum(weights)), "cauchy_binet_expected": 1.0}


def elemental_simulation_report(rho, nu, l, n_matrices, seed, mode="sampled-sets",
                                intercept=False):
    """Columns draw_index, weight of simulated t-model weights, plus product-law KS.

    The rows are standard rho-variate t(nu) draws: no scale matrix changes a
    weight.  The product-law comparison is reported for both factor-count
    conventions (l - rho and l - rho - 1); neither is asserted.
    """
    p = MvtParams(dim=rho, dof=float(nu))
    rho = p.dim
    stack, weights = elemental._simulate(p, l, n_matrices, seed, mode, intercept,
                                         max(n_matrices, 1))

    # weight-sum check on matrix 0, drawn even when no weights are asked for;
    # None past the enumeration cap
    k, cb_sum = rho + 1, None
    if math.comb(l, k) <= elemental.ENUMERATION_CAP:
        cb_sum = float(sum(elemental.all_weights(stack[0], set_size=k)[1]))

    summary = {
        "cauchy_binet_sum_first_matrix": cb_sum,
        "cauchy_binet_expected": elemental.expected_weight_sum(l, stack.shape[2], k),
        "n_weights": weights.size,
    }
    eligible = weights[(weights > 0.0) & (weights < 1.0)]
    for n2 in (l - rho, l - rho - 1):
        key = f"ks_vs_product_n2_{n2}"
        if n2 >= 1 and eligible.size:
            spec = product.ProductSpec(rho, n2)
            res = goftests.ks_one_sample(
                eligible, lambda x, sp=spec: product.omega_cdf_numeric(sp, x)
            )
            summary[key] = float(res.statistic)
        else:
            summary[key] = None
    return {"draw_index": np.arange(weights.size), "weight": weights}, summary
