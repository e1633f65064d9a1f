"""Print a digest line for every README example and benchmark-workload command.

    python tests/output_digests.py

Runs each command in a fresh interpreter on the `src/` beside this
directory, at pinned seeds, in its own empty temporary directory, and
prints one line per command:

    name exit=CODE FILE=SHA256 ... stdout=SHA256 stderr=SHA256

with one FILE=SHA256 for each file the command left, by name.  Paths on
the command line are relative, so a path a command embeds in its output
(the gnuplot script) is the same in every run.  Two trees write the same
bytes, exit codes, stdout and stderr included, exactly when their runs of
this script print the same lines.  The workload commands are those of
`bench/workloads.py` at its full sizes, written out here with fixed seeds.
The parser's texts are checked too: the top-level and every command's
`--help` (on stdout, at COLUMNS=80) and two usage errors (on stderr), and
so are four sampler inputs that exit 4: 0/0 F draws in `simulate-w`,
`compare-cdf` and a forked `gof-table`, and `omega` draws underflowing to 0,
and so is the input layer: `--config` files that set an `elemental --generate`
and that name `help`, and `elemental --matrix` on a gzip file and on a
missing one.  Each command's input files are written in its directory.
Not collected by pytest.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
MAIN = "import sys; from ewdist.cli import main; sys.exit(main(sys.argv[1:]))"
W_ARGS = ["--m1", "12", "--m2", "10", "--nu", "50", "--n", "1000000", "--seed", "103"]
GENERATE = ["elemental", "--generate", "--rho", "2", "--nu", "50", "--l", "7"]
CERTIFY_SETTINGS = [("3", "2", "50", "50"), ("2.5", "2", "50", "50"), ("11", "10", "150", "150"),
                    ("6", "5", "50", "50"), ("30", "25", "50", "50")]

COMMANDS = [
    # README examples, including its exit-4 one
    ("readme-compare-cdf", "compare-cdf --m1 12 --m2 10 --nu 50 --n 10000 --seed 1 --out cmp.csv"
                           " --gnuplot-script cmp.gp".split()),
    ("readme-gof-table",
     "gof-table --replications 5 --seed 1 --out table.json --format json".split()),
    ("readme-omega", "omega --rho 2 --n2 3 --n 1000000 --seed 1 --out omega.csv".split()),
    ("readme-elemental", GENERATE + "--n-matrices 2000 --seed 1 --out weights.csv".split()),
    ("readme-certify-bounds",
     "certify-bounds --m1 3 --m2 2 --nu1 50 --nu2 50 --out cert.json".split()),
    ("readme-certify-exit4",
     "certify-bounds --m1 300 --m2 2 --nu1 1000 --nu2 1000 --out cert.json".split()),
    # workload certify
    *((f"certify-{m1}-{m2}-{nu1}-{nu2}",
       ["certify-bounds", "--m1", m1, "--m2", m2, "--nu1", nu1, "--nu2", nu2, "--grid", "200x99",
        "--seed", str(11 + i), "--out", "cert.json"])
      for i, (m1, m2, nu1, nu2) in enumerate(CERTIFY_SETTINGS)),
    # workload replicate
    ("gof-table", "gof-table --replications 100 --format json --seed 101 --out gof.json".split()),
    ("elemental-sampled", GENERATE + "--n-matrices 2000 --seed 102 --out sampled.csv".split()),
    ("elemental-all", GENERATE + "--mode all --n-matrices 500 --seed 103 --out all.csv".split()),
    ("elemental-matrix", "elemental --matrix design.csv --seed 104 --out matrix.csv".split()),
    # workload bulk
    ("simulate-w", ["simulate-w", *W_ARGS, "--out", "w.csv"]),
    ("compare-cdf", ["compare-cdf", *W_ARGS, "--out", "cmp.csv"]),
    ("omega", "omega --rho 2 --n2 3 --n 1000000 --seed 105 --out omega.csv".split()),
    # exit 4 from the samplers: 0/0 F draws (the gof-table in forked workers, at or above
    # _FORK_DRAWS, when two CPUs are available), and Omega draws that underflow to 0
    ("exit4-simulate-w",
     "simulate-w --m1 0.001 --m2 0.001 --nu 0.001 --n 1000 --seed 1 --out w.csv".split()),
    ("exit4-compare-cdf",
     "compare-cdf --m1 0.002 --m2 0.001 --nu 0.003 --n 1000 --seed 1 --out cmp.csv".split()),
    ("exit4-gof-table",
     "gof-table --grid grid.csv --replications 1000 --seed 1 --out gof.csv".split()),
    ("exit4-omega", "omega --rho 2 --n2 1000 --n 1000 --seed 1 --out omega.csv".split()),
    # the parser: help texts and usage errors
    ("help", ["--help"]),
    *((f"help-{command}", [command, "--help"]) for command in (
        "simulate-w", "compare-cdf", "gof-table", "omega", "elemental", "certify-bounds")),
    ("usage-unknown-command", "bogus --out x.csv".split()),
    ("usage-unknown-flag",
     "certify-bounds --m1 3 --m2 2 --nu1 50 --nu2 50 --out cert.json --bogus 1".split()),
    # the input layer: config files and the design-matrix reader
    ("config-elemental", GENERATE + "--config generate.cfg --seed 106 --out generate.csv".split()),
    ("config-help",
     "compare-cdf --m1 3 --m2 2 --nu 50 --n 100 --config help.cfg --out cmp.csv".split()),
    ("matrix-gzip", "elemental --matrix design.csv.gz --seed 104 --out matrix.csv".split()),
    ("matrix-missing", "elemental --matrix absent.csv --seed 104 --out matrix.csv".split()),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(name: str, argv: list, workdir: Path) -> str:
    """Run one command in `workdir`, which holds only its inputs, and return its digest line."""
    inputs = set(os.listdir(workdir))
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}  # the help's line width
    proc = subprocess.run([sys.executable, "-c", MAIN, *argv], cwd=workdir, env=env,
                          capture_output=True)
    files = sorted(set(os.listdir(workdir)) - inputs)
    digests = [f"{f}={sha256((workdir / f).read_bytes())}" for f in files]
    return " ".join([name, f"exit={proc.returncode}", *digests,
                     f"stdout={sha256(proc.stdout)}", f"stderr={sha256(proc.stderr)}"])


def input_files() -> dict:
    """{name: bytes} of each input file that a command may name."""
    matrix = np.random.default_rng(20261020).standard_normal((40, 3))  # 40 rows of 3 columns
    design = "".join(",".join(map(repr, row.tolist())) + "\n" for row in matrix).encode()
    return {
        "design.csv": design,
        "design.csv.gz": gzip.compress(design, mtime=0),
        # two rows of 1000 x 200 draws, each forked if CPUs allow
        "grid.csv": b"m1,m2,nu\n" + b"0.002,0.001,0.003\n" * 2,
        "generate.cfg": b"intercept=yes\nn-matrices=50\n",
        "help.cfg": b"help=1\n",
    }


def main() -> int:
    files = input_files()
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS:
            workdir = Path(tmp) / name
            workdir.mkdir()
            for file in set(files) & set(argv):
                (workdir / file).write_bytes(files[file])
            print(run(name, argv, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
