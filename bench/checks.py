"""Output checks for every benchmark invocation.

Each check reads one `ew` output file and returns a `Check`: the list of
problems found (an invocation with any problem counts as failed) and the
largest relative error of the values compared with an independent oracle
(0.0 when the command has none). The oracles are mpmath, scipy.stats and
numpy.linalg; none of them calls ewdist.

The relative error is reported, not gated, where its size is a known
property of the program rather than a defect of the run: the certificate
extrema are allowed CERT_EXTREMA_RTOL, which the marginal tail error at
(30, 25, 50, 50) stays within (about 5% at w = 0.01).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import jsonschema
import mpmath as mp
import numpy as np
from scipy import stats

from workloads import CERTIFY_SETTINGS

ORACLE_PATH = Path(__file__).resolve().parent / "data" / "certify_oracle.json"

CONST_RTOL = 1e-10         # closed-form constants and moments
CERT_EXTREMA_RTOL = 0.1    # marginal-ratio extrema from scalar quad
CDF_RTOL = 1e-10           # Beta CDF column against scipy.stats.beta
# slogdet weights against det(X_E)^2 / det(X'X). The weights are shares of a
# total of 1, so an absolute floor applies: a near-singular subset's weight
# of 1e-13 carries a relative error near cond(X_E)^2 * eps from the Gram
# matrix, which is reported in relerr but is not an error of the share.
WEIGHT_RTOL = 1e-9
WEIGHT_ATOL = 1e-15
WEIGHT_SUM_RTOL = 1e-10    # Cauchy-Binet sums
MC_SIGMAS = 6.0            # Monte Carlo moments against their standard error


@dataclass
class Check:
    errors: list = field(default_factory=list)
    relerr: float = 0.0

    def expect(self, ok, message):
        if not ok:
            self.errors.append(message)

    def compare(self, name, value, reference, rtol):
        """Record |value - reference| / |reference| and fail it above rtol."""
        value, reference = float(value), float(reference)
        if reference == 0.0:
            err = 0.0 if value == 0.0 else math.inf
        else:
            err = abs(value - reference) / abs(reference)
        if not err <= rtol:  # also catches NaN
            self.errors.append(f"{name}: {value!r} vs oracle {reference!r} (relerr {err:.3g} > {rtol:g})")
        if math.isfinite(err):
            self.relerr = max(self.relerr, err)


def _relerr_array(values, reference) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    err = np.abs(values - reference)
    nonzero = reference != 0.0
    err[nonzero] /= np.abs(reference[nonzero])
    err[~nonzero & (values != 0.0)] = np.inf
    return err


def _compare_arrays(check, name, values, reference, rtol, atol=0.0):
    """Record the worst relative error; fail values off by more than rtol * |ref| + atol."""
    err = _relerr_array(values, reference)
    if err.size == 0:
        return
    worst = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
    diff = np.abs(np.asarray(values, dtype=float) - np.asarray(reference, dtype=float))
    bad = ~(diff <= rtol * np.abs(np.asarray(reference, dtype=float)) + atol)
    if bad.any():
        check.errors.append(
            f"{name}: {int(bad.sum())} of {err.size} values off; worst at {worst}: "
            f"{float(np.asarray(values).flat[worst])!r} vs {float(np.asarray(reference).flat[worst])!r}"
        )
    finite = err[np.isfinite(err)]
    if finite.size:
        check.relerr = max(check.relerr, float(finite.max()))


class Checker:
    """Runs the check named by an invocation; holds the schemas and the oracle."""

    def __init__(self, schema_dir: Path):
        self.schemas = {
            name: json.loads((schema_dir / f"{name}.schema.json").read_text())
            for name in ("certify-bounds", "table-output")
        }
        oracle = json.loads(ORACLE_PATH.read_text())
        self.cert_oracle = {(tuple(e["setting"]), e["n_w"]): e for e in oracle["entries"]}

    def run(self, inv, path: Path) -> Check:
        check = Check()
        try:
            getattr(self, f"_{inv.check}")(check, path, inv.params)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            check.errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return check

    def _schema(self, check, payload, name):
        try:
            jsonschema.validate(payload, self.schemas[name], cls=jsonschema.Draft202012Validator)
        except jsonschema.ValidationError as exc:
            check.errors.append(f"schema {name}: {exc.message} at {list(exc.absolute_path)}")

    # -- certify ---------------------------------------------------------

    def _certify(self, check, path, params):
        report = json.loads(path.read_text(encoding="ascii"))
        self._schema(check, report, "certify-bounds")
        setting = tuple(params["setting"])
        check.expect(setting in CERTIFY_SETTINGS, f"unexpected setting {setting}")
        n_w = int(params["grid"].lower().split("x")[1])
        check.expect(report["grid"]["n_w"] == n_w, "grid n_w differs from the request")
        check.expect(report["a1"] >= 1.0 and report["a1_ge_1"] is True, "a1 < 1")
        check.expect(report["joint"]["ok"] is True, "joint sandwich violated")
        check.expect(report["marginal"]["scaled_sandwich_ok"] is True, "scaled marginal sandwich violated")
        ref = self.cert_oracle[(setting, n_w)]
        check.compare("a1", report["a1"], ref["a1"], CONST_RTOL)
        check.compare("a2", report["a2"], ref["a2"], CONST_RTOL)
        for key in ("plain_lower_ratio_min", "upper_ratio_max", "scaled_lower_ratio_min"):
            check.compare(f"marginal.{key}", report["marginal"][key], ref[key], CERT_EXTREMA_RTOL)

    # -- replicate -------------------------------------------------------

    def _gof_table(self, check, path, params):
        payload = json.loads(path.read_text(encoding="ascii"))
        self._schema(check, payload, "table-output")
        n, reps = params["n"], params["replications"]
        rows = payload["rows"]
        check.expect(payload["columns"] == ["m1", "m2", "nu", "n", "rep", "ks", "ks_identical",
                                            "ad", "ad_identical"], "unexpected columns")
        check.expect(len(rows) == 30 * reps, f"{len(rows)} rows, expected {30 * reps}")
        check.expect(all(r[3] == n for r in rows), "a row has the wrong n")
        check.expect([r[4] for r in rows] == list(range(reps)) * 30, "replication indices out of order")
        ks = np.array([r[5] for r in rows], dtype=float)
        # both samples have n points, so the KS distance is a multiple of 1/n
        check.expect(bool(np.all((ks >= 0) & (ks <= 1))), "KS statistic outside [0, 1]")
        check.expect(bool(np.allclose(ks * n, np.round(ks * n), rtol=0, atol=1e-9)),
                     "KS statistic is not a multiple of 1/n")
        check.expect(all(isinstance(r[6], bool) and isinstance(r[8], bool) for r in rows),
                     "decision columns are not booleans")
        check.expect(all(math.isfinite(r[7]) for r in rows), "AD statistic not finite")

    def _elemental_generate(self, check, path, params):
        body, summary = _read_table(path, ("draw_index", "weight"))
        rho, l, n_matrices = params["rho"], params["l"], params["n_matrices"]
        k = rho + 1
        per_matrix = math.comb(l, k) if params["mode"] == "all" else 1
        weights = np.array([float(r[1]) for r in body])
        check.expect(len(body) == n_matrices * per_matrix,
                     f"{len(body)} weights, expected {n_matrices * per_matrix}")
        check.expect([int(r[0]) for r in body] == list(range(len(body))), "draw_index out of order")
        check.expect(bool(np.all((weights >= 0) & (weights <= 1))), "weight outside [0, 1]")
        # Cauchy-Binet: over all k-subsets of an l x rho matrix the weights sum to C(l-rho, k-rho)
        expected = float(math.comb(l - rho, k - rho))
        check.compare("cauchy_binet_expected", summary["cauchy_binet_expected"], expected, 0.0)
        check.compare("cauchy_binet_sum_first_matrix", summary["cauchy_binet_sum_first_matrix"],
                      expected, WEIGHT_SUM_RTOL)
        check.expect(int(float(summary["n_weights"])) == len(body), "n_weights differs from the rows")
        if params["mode"] == "all" and weights.size == n_matrices * per_matrix:
            sums = weights.reshape(n_matrices, per_matrix).sum(axis=1)
            _compare_arrays(check, "per-matrix weight sum", sums, np.full(n_matrices, expected),
                            WEIGHT_SUM_RTOL)
        for key, value in summary.items():
            if key.startswith("ks_vs_product"):
                check.expect(0.0 <= float(value) <= 1.0, f"{key} outside [0, 1]")

    def _elemental_matrix(self, check, path, params):
        body, summary = _read_table(path, ("set_indices", "weight"))
        x = np.loadtxt(params["matrix"], delimiter=",", ndmin=2)
        l, c = x.shape
        subsets = np.array(list(combinations(range(l), c)))
        check.expect([r[0] for r in body] == [" ".join(str(i + 1) for i in s) for s in subsets],
                     "subsets missing or out of lexicographic order")
        if len(body) == len(subsets):
            # |X_E'X_E| = det(X_E)^2 for a square X_E, one stacked determinant
            ref = np.linalg.det(x[subsets]) ** 2 / np.linalg.det(x.T @ x)
            _compare_arrays(check, "weights", [float(r[1]) for r in body], ref, WEIGHT_RTOL, WEIGHT_ATOL)
        check.compare("cauchy_binet_expected", summary["cauchy_binet_expected"], 1.0, 0.0)
        check.compare("cauchy_binet_sum", summary["cauchy_binet_sum"], 1.0, WEIGHT_SUM_RTOL)

    # -- bulk ------------------------------------------------------------

    def _simulate_w(self, check, path, params):
        with open(path, encoding="ascii", newline="") as fh:
            check.expect(fh.readline() == "index,w\r\n", "unexpected header")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        check.expect(data.shape == (params["n"], 2), f"shape {data.shape}, expected ({params['n']}, 2)")
        check.expect(bool(np.array_equal(data[:, 0], np.arange(data.shape[0]))), "index column broken")
        check.expect(bool(np.all((data[:, 1] > 0) & (data[:, 1] < 1))), "draw outside (0, 1)")

    def _compare_cdf(self, check, path, params):
        body, summary = _read_table(path, ("w", "ecdf_w", "beta_cdf", "abs_gap"))
        w, ecdf_w, bcdf, gap = np.array(body, dtype=float).T
        n, m2 = params["n"], params["m2"]
        check.expect(bool(np.array_equal(w, np.linspace(0.0, 1.0, params["grid_points"] + 1))),
                     "w grid differs from linspace(0, 1, grid_points + 1)")
        ref = stats.beta.cdf(w, (m2 + 0.5) / 2.0, m2 / 2.0)
        _compare_arrays(check, "beta_cdf", bcdf, ref, CDF_RTOL)
        check.expect(bool(np.array_equal(gap, np.abs(ecdf_w - bcdf))), "abs_gap != |ecdf_w - beta_cdf|")
        check.compare("md", summary["md"], gap.max(), 0.0)
        # the same seed and flags as simulate-w, so its sample gives this ECDF exactly
        sample = np.sort(np.loadtxt(params["sample"], delimiter=",", skiprows=1, usecols=1))
        check.expect(sample.size == n, "simulate-w sample has the wrong size")
        expected = np.searchsorted(sample, w, side="right") / sample.size
        check.expect(bool(np.array_equal(ecdf_w, expected)), "ecdf_w disagrees with the simulate-w sample")

    def _omega(self, check, path, params):
        body, summary = _read_table(path, ("row_type", "x", "analytic", "empirical"), ("cdf", "moment"))
        cdf = np.array([r[1:] for r in body if r[0] == "cdf"], dtype=float)
        moments = [r[1:] for r in body if r[0] == "moment"]
        n = params["n"]
        check.expect(cdf.shape == (params["grid_points"], 3), f"cdf rows {cdf.shape}")
        check.expect(bool(np.all(np.diff(cdf[:, 1]) >= 0) and np.all((cdf[:, 1:] >= 0) & (cdf[:, 1:] <= 1))),
                     "CDF columns not monotone in [0, 1]")
        check.expect(bool(np.allclose(cdf[:, 2] * n, np.round(cdf[:, 2] * n), rtol=0, atol=1e-6)),
                     "ECDF column is not a multiple of 1/n")
        check.expect([float(m[0]) for m in moments] == [0.0, 1.0, 2.0, 3.0], "moment orders")
        a, b = mp.mpf(params["rho"] + 0.5) / 2, mp.mpf(params["rho"]) / 2
        with mp.workdps(30):
            exact = lambda k: (mp.beta(a + k, b) / mp.beta(a, b)) ** params["n2"]  # noqa: E731
            for k_str, analytic, empirical in moments:
                k = int(float(k_str))
                check.compare(f"moment {k}", analytic, exact(k), CONST_RTOL)
                sd = math.sqrt(max(float(exact(2 * k) - exact(k) ** 2), 0.0) / n)
                check.expect(abs(float(empirical) - float(exact(k))) <= MC_SIGMAS * sd + 1e-15,
                             f"Monte Carlo moment {k} is more than {MC_SIGMAS:g} standard errors off")
        check.expect(0.0 <= float(summary["sup_gap_numeric_vs_mc"]) <= 1.0, "sup gap outside [0, 1]")


def _read_table(path, header, body_tags=()):
    """Body rows and the trailing `key,value` summary rows of an `ew` CSV.

    A body row starts with a number (or one of `body_tags`); a summary key
    starts with a letter.
    """
    with open(path, encoding="ascii", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header:
        raise ValueError(f"header {rows[:1]} != {list(header)}")
    body, summary = [], {}
    for row in rows[1:]:
        if row[0][:1].isdigit() or row[0] in body_tags:
            body.append(row)
        else:
            summary[row[0]] = row[1]
    return body, summary
