import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ewdist
from ewdist import cli, dist, pipelines
from ewdist.cli import build_parser, main, schema_text


def run_cli(args):
    return main([str(a) for a in args])


def run_python(args, **kwargs):
    """A fresh interpreter that imports the ewdist under test, whatever PYTHONPATH says."""
    path = [str(Path(ewdist.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def test_compare_cdf_file_contract(tmp_path):
    out = tmp_path / "cmp.csv"
    code = run_cli(
        ["compare-cdf", "--m1", 1, "--m2", 1, "--nu", 50, "--n", 10000,
         "--grid-points", 120, "--seed", 3, "--out", out]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "w,ecdf_w,beta_cdf,abs_gap"
    assert len(lines) == 1 + 121 + 1  # header + grid rows + md line
    assert lines[-1].startswith("md,")
    for line in lines[1:-1]:
        w, e, b, gap = (float(v) for v in line.split(","))
        assert gap == pytest.approx(abs(e - b), abs=1e-15)


def test_compare_cdf_regime_violation_exits_2(tmp_path, capsys):
    code = run_cli(
        ["compare-cdf", "--m1", 2, "--m2", 3, "--nu", 50, "--out", tmp_path / "x.csv"]
    )
    assert code == 2
    assert "regime" in capsys.readouterr().err


def test_byte_identical_reruns_and_thread_independence(tmp_path, monkeypatch):
    runs = {}
    for tag, cpus in (("a", 1), ("b", 4), ("c", 1)):
        monkeypatch.setattr("ewdist.rng._available_cpus", lambda: cpus)
        out = tmp_path / f"{tag}.csv"
        assert run_cli(
            ["simulate-w", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 100000,
             "--seed", 11, "--out", out]
        ) == 0
        runs[tag] = out.read_bytes()
    assert runs["a"] == runs["b"] == runs["c"]


def test_numeric_failure_exits_4_with_diagnostics(tmp_path, monkeypatch, capsys):
    from ewdist import pipelines
    from ewdist.errors import NumericError

    def fail(*args, **kwargs):
        raise NumericError("x", w=0.5)

    monkeypatch.setattr(pipelines, "compare_cdf_rows", fail)
    code = run_cli(
        ["compare-cdf", "--m1", 3, "--m2", 2, "--nu", 50, "--out", tmp_path / "x.csv"]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "numeric failure: x" in err
    assert "w=0.5" in err


def test_certify_bounds_numeric_failure_exits_4_with_diagnostics(tmp_path, monkeypatch, capsys):
    from ewdist import approx

    monkeypatch.setattr(
        approx, "_log_joint", lambda u, w, s, log_k0: np.full(np.shape(u * w), np.nan)
    )
    code = run_cli(
        ["certify-bounds", "--m1", 3, "--m2", 2, "--nu1", 50, "--nu2", 50,
         "--out", tmp_path / "cert.json"]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "numeric failure" in err
    for key in ("setting", "step", "tail_bound", "w"):
        assert f"ew:   {key}=" in err


def test_cli_import_leaves_scipy_integrate_out():
    code = "import sys, ewdist.cli; sys.exit('scipy.integrate' in sys.modules)"
    assert run_python(["-c", code]).returncode == 0


def test_gof_table_default_grid_and_json_schema(tmp_path):
    out = tmp_path / "gof.json"
    code = run_cli(
        ["gof-table", "--replications", 1, "--n", 60, "--seed", 2,
         "--out", out, "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, json.loads(schema_text("table-output.schema.json")))
    assert len(payload["rows"]) == 30
    assert payload["columns"][:3] == ["m1", "m2", "nu"]


def test_gof_table_grid_file_and_malformed_line(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("m1,m2,nu\n3,2,50\n7,2,150\n")
    out = tmp_path / "gof.csv"
    assert run_cli(
        ["gof-table", "--grid", grid, "--n", 50, "--replications", 2,
         "--seed", 1, "--out", out]
    ) == 0
    assert len(out.read_text().splitlines()) == 1 + 4

    bad = tmp_path / "bad.csv"
    bad.write_text("m1,m2,nu\n3,2,50\noops,2,50\n")
    assert run_cli(["gof-table", "--grid", bad, "--out", tmp_path / "y.csv"]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--n", 1], "at least 4 pooled values"),
    (["--replications", -3], "nonnegative"),
    (["--replications", 0, "--n", -5], "sample size must be a positive integer"),
])
def test_gof_table_bad_sizes_exit_2(tmp_path, capsys, args, message):
    out = tmp_path / "g.csv"
    assert run_cli(["gof-table", *args, "--seed", 1, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_omega_command_rows(tmp_path):
    out = tmp_path / "om.csv"
    assert run_cli(
        ["omega", "--rho", 2, "--n2", 3, "--n", 5000, "--grid-points", 40,
         "--seed", 5, "--out", out]
    ) == 0
    lines = out.read_text().splitlines()
    moments = [l for l in lines if l.startswith("moment,")]
    assert len(moments) == 4
    k0 = moments[0].split(",")
    assert float(k0[2]) == 1.0 and float(k0[3]) == 1.0


def test_elemental_matrix_mode(tmp_path):
    mat = tmp_path / "m.csv"
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(5, 2))
    mat.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    out = tmp_path / "ew.csv"
    assert run_cli(["elemental", "--matrix", mat, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "set_indices,weight"
    assert len([l for l in lines if l[0].isdigit()]) == 10
    sums = [l for l in lines if l.startswith("cauchy_binet_sum,")]
    assert float(sums[0].split(",")[1]) == pytest.approx(1.0, abs=1e-10)


def test_elemental_rank_deficient_exits_2(tmp_path, capsys):
    mat = tmp_path / "bad.csv"
    mat.write_text("1.0,2.0\n2.0,4.0\n3.0,6.0\n")
    assert run_cli(["elemental", "--matrix", mat, "--out", tmp_path / "o.csv"]) == 2
    assert "rank" in capsys.readouterr().err


def test_elemental_generate_mode(tmp_path):
    out = tmp_path / "gen.csv"
    assert run_cli(
        ["elemental", "--generate", "--rho", 2, "--nu", 50, "--l", 3,
         "--n-matrices", 8, "--seed", 7, "--out", out]
    ) == 0
    lines = out.read_text().splitlines()
    weights = [float(l.split(",")[1]) for l in lines if l[0].isdigit()]
    assert weights == [pytest.approx(1.0, abs=1e-12)] * 8


def test_elemental_requires_a_source(tmp_path):
    assert run_cli(["elemental", "--out", tmp_path / "o.csv"]) == 2


def test_missing_matrix_file_exits_3(tmp_path):
    assert run_cli(
        ["elemental", "--matrix", tmp_path / "absent.csv", "--out", tmp_path / "o.csv"]
    ) == 3


def test_unwritable_output_exits_3(tmp_path):
    assert run_cli(
        ["simulate-w", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 10,
         "--seed", 0, "--out", tmp_path / "no_dir" / "x.csv"]
    ) == 3


def test_certify_bounds_json_schema_and_content(tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli(
        ["certify-bounds", "--m1", 3, "--m2", 2, "--nu1", 50, "--nu2", 50,
         "--grid", "50x33", "--seed", 1, "--out", out]
    ) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, json.loads(schema_text("certify-bounds.schema.json")))
    assert report["a1_ge_1"] is True
    assert report["joint"]["upper_ratio_max"] <= 1.0 + 1e-9
    assert report["marginal"]["scaled_sandwich_ok"] is True


def test_certify_bounds_rejects_csv_and_bad_regime(tmp_path, capsys):
    assert run_cli(
        ["certify-bounds", "--m1", 3, "--m2", 2, "--nu1", 50, "--nu2", 50,
         "--out", tmp_path / "c.json", "--format", "csv"]
    ) == 2
    assert run_cli(
        ["certify-bounds", "--m1", 1, "--m2", 1, "--nu1", 50, "--nu2", 50,
         "--out", tmp_path / "c.json"]
    ) == 2
    assert "regime" in capsys.readouterr().err


def test_gnuplot_companion_script(tmp_path):
    out = tmp_path / "cmp.csv"
    gp = tmp_path / "cmp.gp"
    assert run_cli(
        ["compare-cdf", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 500,
         "--grid-points", 20, "--seed", 0, "--out", out, "--gnuplot-script", gp]
    ) == 0
    text = gp.read_text()
    assert str(out) in text and "plot" in text


def test_config_file_presets_and_flag_override(tmp_path):
    cfg = tmp_path / "ew.cfg"
    cfg.write_text("# defaults\nn=40\ngrid-points=10\nunknown_key=ignored\n")
    out1 = tmp_path / "c1.csv"
    assert run_cli(
        ["compare-cdf", "--config", cfg, "--m1", 3, "--m2", 2, "--nu", 50,
         "--seed", 1, "--out", out1]
    ) == 0
    assert len(out1.read_text().splitlines()) == 1 + 11 + 1
    out2 = tmp_path / "c2.csv"
    assert run_cli(
        ["compare-cdf", "--config", cfg, "--m1", 3, "--m2", 2, "--nu", 50,
         "--seed", 1, "--grid-points", 5, "--out", out2]
    ) == 0
    assert len(out2.read_text().splitlines()) == 1 + 6 + 1


def test_config_equals_form(tmp_path):
    cfg = tmp_path / "ew.cfg"
    cfg.write_text("grid-points=7\n")
    out = tmp_path / "c.csv"
    assert run_cli(
        ["compare-cdf", f"--config={cfg}", "--m1", 3, "--m2", 2, "--nu", 50,
         "--n", 200, "--seed", 1, "--out", out]
    ) == 0
    assert len(out.read_text().splitlines()) == 1 + 8 + 1


def test_bad_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    assert run_cli(
        ["compare-cdf", "--config", cfg, "--m1", 3, "--m2", 2, "--nu", 50,
         "--out", tmp_path / "o.csv"]
    ) == 2
    assert "key=value" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path):
    assert run_cli(
        ["simulate-w", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 10,
         "--seed", -1, "--out", tmp_path / "o.csv"]
    ) == 2


def test_console_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = run_python(
        ["-m", "ewdist.cli", "simulate-w", "--m1", "3", "--m2", "2",
         "--nu", "50", "--n", "10", "--seed", "1", "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert out.exists()


# Reference table writers: the row-at-a-time `csv.writer` + per-cell format
# and the per-cell JSON payload that the columnar writer must reproduce byte
# for byte.
def ref_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def ref_json_cell(value):
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def ref_csv_bytes(header, rows, summary):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([ref_fmt(v) for v in row])
    for k, v in (summary or {}).items():
        writer.writerow([ref_fmt(c) for c in (k, v) + ("",) * max(0, len(header) - 2)])
    return buf.getvalue().encode("ascii")


def ref_json_bytes(argv, command, header, rows, summary):
    args = build_parser()[0].parse_args(argv)
    parameters = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "func", "out", "format", "config", "gnuplot_script")
        and v is not None
    }
    payload = {
        "command": command,
        "parameters": {k: ref_json_cell(v) for k, v in parameters.items()},
        "columns": list(header),
        "rows": [[ref_json_cell(v) for v in row] for row in rows],
        "summary": {k: ref_json_cell(v) for k, v in (summary or {}).items()},
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode("ascii")


def from_columns(header):
    def rows_of(result):
        columns, summary = result
        return [tuple(r) for r in zip(*(columns[h] for h in header))], summary
    return rows_of


GOF_HEADER = ("m1", "m2", "nu", "n", "rep", "ks", "ks_identical", "ad", "ad_identical")
GEN = ["elemental", "--generate", "--rho", 2, "--nu", 50, "--l", 7, "--seed", 13]

# (argv, source of the table, header, table -> (rows, summary), block rows or None)
TABLE_CASES = {
    "simulate-w": (
        ["simulate-w", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 300, "--seed", 7],
        (dist, "w_sample"), ("index", "w"),
        lambda sample: ([(i, float(v)) for i, v in enumerate(sample)], None), None,
    ),
    "simulate-w-blocks": (
        ["simulate-w", "--m1", 12, "--m2", 10, "--nu", 50, "--n", 1000, "--seed", 8],
        (dist, "w_sample"), ("index", "w"),
        lambda sample: ([(i, float(v)) for i, v in enumerate(sample)], None), 64,
    ),
    "compare-cdf": (
        ["compare-cdf", "--m1", 12, "--m2", 10, "--nu", 50, "--n", 2000,
         "--grid-points", 50, "--seed", 4],
        (pipelines, "compare_cdf_rows"), ("w", "ecdf_w", "beta_cdf", "abs_gap"),
        None, None,
    ),
    "omega": (
        ["omega", "--rho", 2, "--n2", 3, "--n", 2000, "--grid-points", 30, "--seed", 5],
        (pipelines, "omega_rows"), ("row_type", "x", "analytic", "empirical"), None, None,
    ),
    "gof-table": (
        ["gof-table", "--n", 60, "--seed", 9],
        (pipelines, "gof_table_rows"), GOF_HEADER, lambda rows: (rows, None), None,
    ),
    "gof-table-empty": (
        ["gof-table", "--replications", 0, "--seed", 9],
        (pipelines, "gof_table_rows"), GOF_HEADER, lambda rows: (rows, None), None,
    ),
    "elemental-matrix": (
        ["elemental", "--matrix", "{matrix}"],
        (pipelines, "elemental_matrix_rows"), ("set_indices", "weight"), None, None,
    ),
    "elemental-sampled": (
        GEN + ["--n-matrices", 40, "--intercept"],
        (pipelines, "elemental_simulation_report"), ("draw_index", "weight"), None, None,
    ),
    "elemental-all": (
        GEN + ["--n-matrices", 3, "--mode", "all"],
        (pipelines, "elemental_simulation_report"), ("draw_index", "weight"), None, None,
    ),
    "elemental-empty": (
        GEN + ["--n-matrices", 0],
        (pipelines, "elemental_simulation_report"), ("draw_index", "weight"), None, None,
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_table_bytes_match_reference_writer(case, fmt, tmp_path, monkeypatch):
    argv, (module, name), header, to_rows, block = TABLE_CASES[case]
    to_rows = to_rows or from_columns(header)
    matrix = tmp_path / "m.csv"
    matrix.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                for row in np.random.default_rng(3).normal(size=(9, 3))))
    out = tmp_path / f"out.{fmt}"
    argv = [str(a).format(matrix=matrix) for a in argv] + ["--out", str(out), "--format", fmt]
    captured = []
    real = getattr(module, name)

    def spy(*a, **k):
        captured.append(real(*a, **k))
        return captured[-1]

    monkeypatch.setattr(module, name, spy)
    if block:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block)

    assert main(argv) == 0
    assert len(captured) == 1
    rows, summary = to_rows(captured[0])
    if case.endswith("-empty"):
        assert rows == []
    if fmt == "csv":
        expected = ref_csv_bytes(header, rows, summary)
    else:
        expected = ref_json_bytes(argv, argv[0], header, rows, summary)
    assert out.read_bytes() == expected


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
def test_csv_writer_refuses_cells_that_need_quoting(char, tmp_path):
    with pytest.raises(ValueError, match="quoting"):
        cli._write_csv(tmp_path / "x.csv", {"a": ["1 2", f"3{char}4"], "b": [0.5, 0.25]})
