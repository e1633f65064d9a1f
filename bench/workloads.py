"""The benchmark's workloads: which `ew` invocations each one runs.

Every workload is a fixed list of CLI invocations run one after another,
each in a fresh interpreter. The seed only changes the inputs (the `--seed`
passed to the commands and the design matrix handed to `elemental
--matrix`), never the amount of work.

- certify: `certify-bounds` at the default 200x99 grid for the five
  certificate settings. Scalar `quad` in `approx` and `ln_beta` in
  `specfun` do nearly all the work; `rng`, `dist`, `goftests`,
  `elemental`, `product` and CSV output do none.
- replicate: thousands of small calls with EW_THREADS unset (the gof-table
  study at 100 replications and three elemental runs). Per-call overhead
  dominates and both thread pools are bypassed.
- bulk: a few calls on 1e6-element arrays with EW_THREADS=2. Sampler
  throughput through the chunk thread pool, large sorts, the product-law
  FFT grid, a 1e6-point one-sample KS and CSV serialization dominate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("certify", "replicate", "bulk")

# approx.CERTIFICATE_SETTINGS, kept here so the oracle does not import the program
CERTIFY_SETTINGS = (
    (3.0, 2.0, 50.0, 50.0),
    (2.5, 2.0, 50.0, 50.0),
    (11.0, 10.0, 150.0, 150.0),
    (6.0, 5.0, 50.0, 50.0),
    (30.0, 25.0, 50.0, 50.0),
)
# w-grid sizes the checked-in mpmath oracle covers: the CLI default and the tiny scale
ORACLE_GRIDS = (99, 3)

# The full sizes are the ones named in the benchmark's definition; the tiny
# scale keeps every command and check but shrinks the work, for self-tests.
SIZES = {
    "full": {
        "cert_grid": "200x99", "gof_reps": 100, "gen_matrices": 2000, "all_matrices": 500,
        "matrix_rows": 40, "bulk_n": 1_000_000,
    },
    "tiny": {
        "cert_grid": "10x3", "gof_reps": 2, "gen_matrices": 20, "all_matrices": 5,
        "matrix_rows": 8, "bulk_n": 20_000,
    },
}


@dataclass(frozen=True)
class Invocation:
    """One `ew` command: its arguments, output file and what to check."""

    name: str
    argv: tuple
    out: str
    check: str
    params: dict = field(default_factory=dict)


def command_seed(seed: int, index: int) -> int:
    """Seed handed to the `index`-th command; a function of the run seed only."""
    digest = hashlib.sha256(f"ewdist-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def design_matrix(seed: int, rows: int) -> np.ndarray:
    """Standard-normal rows x 3 design matrix for `elemental --matrix`."""
    return np.random.default_rng([seed, 0x454C]).standard_normal((rows, 3))


def write_design_csv(path: Path, matrix: np.ndarray) -> None:
    lines = (",".join(repr(float(v)) for v in row) for row in matrix)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def environment(workload: str) -> dict:
    """EW_THREADS per workload; None means unset."""
    return {"EW_THREADS": "2" if workload == "bulk" else None}


def build(workload: str, seed: int, workdir: Path, scale: str = "full") -> list[Invocation]:
    """Invocations of `workload`, with any input files written into `workdir`."""
    size = SIZES[scale]

    def out(name):
        return str(workdir / name)

    if workload == "certify":
        invs = []
        for i, (m1, m2, nu1, nu2) in enumerate(CERTIFY_SETTINGS):
            name = f"certify-{m1:g}-{m2:g}-{nu1:g}-{nu2:g}"
            argv = ("certify-bounds", "--m1", repr(m1), "--m2", repr(m2), "--nu1", repr(nu1),
                    "--nu2", repr(nu2), "--grid", size["cert_grid"],
                    "--seed", str(command_seed(seed, i)), "--out", out(name + ".json"))
            invs.append(Invocation(name, argv, out(name + ".json"), "certify",
                                   {"setting": (m1, m2, nu1, nu2), "grid": size["cert_grid"]}))
        return invs
    if workload == "replicate":
        matrix_path = workdir / "design.csv"
        write_design_csv(matrix_path, design_matrix(seed, size["matrix_rows"]))
        gen = ("elemental", "--generate", "--rho", "2", "--nu", "50", "--l", "7")
        return [
            Invocation("gof-table",
                       ("gof-table", "--replications", str(size["gof_reps"]), "--format", "json",
                        "--seed", str(command_seed(seed, 0)), "--out", out("gof.json")),
                       out("gof.json"), "gof_table", {"replications": size["gof_reps"], "n": 200}),
            Invocation("elemental-sampled",
                       gen + ("--n-matrices", str(size["gen_matrices"]),
                              "--seed", str(command_seed(seed, 1)), "--out", out("sampled.csv")),
                       out("sampled.csv"), "elemental_generate",
                       {"rho": 2, "l": 7, "n_matrices": size["gen_matrices"], "mode": "sampled-sets"}),
            Invocation("elemental-all",
                       gen + ("--mode", "all", "--n-matrices", str(size["all_matrices"]),
                              "--seed", str(command_seed(seed, 2)), "--out", out("all.csv")),
                       out("all.csv"), "elemental_generate",
                       {"rho": 2, "l": 7, "n_matrices": size["all_matrices"], "mode": "all"}),
            Invocation("elemental-matrix",
                       ("elemental", "--matrix", str(matrix_path),
                        "--seed", str(command_seed(seed, 3)), "--out", out("matrix.csv")),
                       out("matrix.csv"), "elemental_matrix", {"matrix": str(matrix_path)}),
        ]
    if workload == "bulk":
        n = size["bulk_n"]
        # simulate-w and compare-cdf share a seed so their samples can be cross-checked
        w_args = ("--m1", "12", "--m2", "10", "--nu", "50", "--n", str(n),
                  "--seed", str(command_seed(seed, 0)))
        return [
            Invocation("simulate-w", ("simulate-w",) + w_args + ("--out", out("w.csv")),
                       out("w.csv"), "simulate_w", {"n": n}),
            Invocation("compare-cdf", ("compare-cdf",) + w_args + ("--out", out("cmp.csv")),
                       out("cmp.csv"), "compare_cdf",
                       {"m2": 10.0, "n": n, "grid_points": 200, "sample": out("w.csv")}),
            Invocation("omega",
                       ("omega", "--rho", "2", "--n2", "3", "--n", str(n),
                        "--seed", str(command_seed(seed, 1)), "--out", out("omega.csv")),
                       out("omega.csv"), "omega", {"rho": 2, "n2": 3, "n": n, "grid_points": 500}),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
