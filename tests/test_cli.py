import argparse
import csv
import errno
import io
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ewdist
from ewdist import cli, dist, pipelines, rng
from ewdist.cli import build_parser, main


def schema(name):
    """A JSON schema shipped with the package."""
    return json.loads(resources.files("ewdist.schemas").joinpath(name).read_text())


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
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4096)  # 24 full blocks, so the writer forks too
    runs = {}
    for tag, cpus in (("a", 1), ("b", 2), ("c", 4), ("d", 1)):
        monkeypatch.setattr("ewdist.rng._available_cpus", lambda: cpus)
        out = tmp_path / f"{tag}.csv"
        assert run_cli(
            ["simulate-w", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 100000,
             "--seed", 11, "--out", out]
        ) == 0
        runs[tag] = out.read_bytes()
    assert runs["a"] == runs["b"] == runs["c"] == runs["d"]


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


def test_cli_import_leaves_scipy_fft_and_multiprocessing_out():
    code = ("import sys, ewdist.cli; "
            "print(sorted({'scipy.fft', 'multiprocessing'} & set(sys.modules)))")
    proc = run_python(["-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_gof_table_default_grid_and_json_schema(tmp_path):
    out = tmp_path / "gof.json"
    code = run_cli(
        ["gof-table", "--replications", 1, "--n", 60, "--seed", 2,
         "--out", out, "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schema("table-output.schema.json"))
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


@pytest.mark.parametrize("argv, prefix, text", [
    (["gof-table", "--grid"], "ew: grid file {} is not UTF-8 text: ", b"m1,m2,nu\n3,2,\xff50\n"),
    (["compare-cdf", "--m1", 3, "--m2", 2, "--nu", 50, "--config"],
     "ew: config {} is not UTF-8 text: ", b"grid-points=\xff\xfe\n"),
    (["elemental", "--matrix"], "ew: design matrix CSV {} is not UTF-8 text: ", b"1,2\n3,\xff4\n"),
], ids=["grid", "config", "matrix"])
def test_input_file_that_is_not_utf8_exits_2(tmp_path, capsys, argv, prefix, text):
    path, out = tmp_path / "input", tmp_path / "out.csv"
    path.write_bytes(text)
    assert run_cli([*argv, path, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix.format(path))
    assert "can't decode byte 0xff" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("argv, text", [
    (["compare-cdf", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 100, "--config"], "grid-points=7\n"),
    (["gof-table", "--n", 30, "--grid"], "m1,m2,nu\n3,2,50\n"),
    (["elemental", "--matrix"], "1,2\n3,4\n5,7\n"),
], ids=["config", "grid", "matrix"])
def test_input_file_with_a_byte_order_mark_reads_as_without(tmp_path, argv, text):
    outs = []
    for bom in (b"", "\ufeff".encode()):
        path, out = tmp_path / f"input{len(bom)}", tmp_path / f"out{len(bom)}.csv"
        path.write_bytes(bom + text.encode())
        assert run_cli([*argv, path, "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize("points", [-2, 0])
def test_omega_nonpositive_grid_points_exit_2(tmp_path, capsys, points):
    out = tmp_path / "om.csv"
    assert run_cli(
        ["omega", "--rho", 2, "--n2", 3, "--n", 1000, "--grid-points", points, "--out", out]
    ) == 2
    assert f"grid_points must be a positive integer, got {points}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sampled_sets_past_the_enumeration_cap_reports_no_weight_sum(tmp_path, monkeypatch,
                                                                    capsys, fmt):
    from ewdist import elemental
    monkeypatch.setattr(elemental, "ENUMERATION_CAP", 34)  # C(7, 3) = 35
    gen = ["elemental", "--generate", "--rho", 2, "--nu", 50, "--l", 7, "--n-matrices", 4,
           "--format", fmt]
    out = tmp_path / f"gen.{fmt}"
    assert run_cli([*gen, "--out", out]) == 0
    if fmt == "json":
        summary = json.loads(out.read_text())["summary"]
        assert summary["cauchy_binet_sum_first_matrix"] is None
        assert summary["n_weights"] == 4
    else:
        lines = out.read_text().splitlines()
        assert "cauchy_binet_sum_first_matrix,None" in lines
        assert "n_weights,4" in lines
    assert run_cli([*gen, "--mode", "all", "--out", tmp_path / f"all.{fmt}"]) == 2
    assert "C(7,3) = 35 subsets exceeds the cap 34" in capsys.readouterr().err
    assert not (tmp_path / f"all.{fmt}").exists()


@pytest.mark.parametrize("mode", ["sampled-sets", "all"])
def test_elemental_negative_n_matrices_exits_2(tmp_path, capsys, mode):
    out = tmp_path / "gen.csv"
    assert run_cli(
        ["elemental", "--generate", "--rho", 2, "--nu", 50, "--l", 7,
         "--n-matrices", -3, "--mode", mode, "--out", out]
    ) == 2
    assert "n_matrices must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("nu", ["0", "-1", "nan", "inf"])
def test_elemental_bad_nu_names_the_flag(tmp_path, capsys, nu):
    # MvtParams calls its field dof, but the message names the --nu flag
    out = tmp_path / "gen.csv"
    assert run_cli(["elemental", "--generate", "--rho", 2, "--nu", nu, "--l", 7, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"ew: nu must be strictly positive and finite, got {float(nu)}" in err
    assert "dof" not in err
    assert not out.exists()


def _address_space_cap():
    # a regression that draws the designs before failing stops at 3 GiB
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("args, message", [
    (["--rho", "-1", "--l", "7"], "rho must be a positive integer, got -1"),
    (["--rho", "2", "--l", "5000000", "--n-matrices", "1"], "subsets exceeds 2**63"),
    (["--rho", str(10**14), "--l", "7"], "need l >= dim+1 rows, got l=7"),
    (["--rho", str(10**14), "--l", str(10**14 + 1)], "float64 design exceeds 2**63 bytes"),
])
def test_elemental_generate_bad_sizes_exit_2(tmp_path, args, message):
    out = tmp_path / "gen.csv"
    proc = run_python(
        ["-m", "ewdist.cli", "elemental", "--generate", "--nu", "50", *args, "--out", str(out)],
        capture_output=True, text=True, preexec_fn=_address_space_cap,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_elemental_requires_a_source(tmp_path):
    assert run_cli(["elemental", "--out", tmp_path / "o.csv"]) == 2


def test_missing_matrix_file_exits_3(tmp_path):
    assert run_cli(
        ["elemental", "--matrix", tmp_path / "absent.csv", "--out", tmp_path / "o.csv"]
    ) == 3


@pytest.mark.parametrize("text", ["", "# a comment only\n\n"], ids=["empty", "comment-only"])
def test_matrix_file_without_rows_exits_2_with_one_message(tmp_path, text):
    matrix, out = tmp_path / "m.csv", tmp_path / "o.csv"
    matrix.write_text(text)
    proc = run_python(["-m", "ewdist.cli", "elemental", "--matrix", str(matrix), "--out", str(out)],
                      capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"ew: design matrix CSV {matrix} holds no rows\n"
    assert not out.exists()


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
    jsonschema.validate(report, schema("certify-bounds.schema.json"))
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


def test_gnuplot_script_doubles_quotes_in_the_table_path(tmp_path):
    out, gp = tmp_path / "it's.csv", tmp_path / "cmp.gp"
    assert run_cli(["compare-cdf", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 100,
                    "--grid-points", 5, "--out", out, "--gnuplot-script", gp]) == 0
    quoted = str(out).replace("'", "''")
    assert gp.read_text().count(f"  '{quoted}' every ::1::6 using 1:") == 2


@pytest.mark.parametrize("command", ["compare-cdf", "omega"])
def test_gnuplot_script_of_a_json_table_exits_2_and_writes_nothing(tmp_path, capsys, command):
    argv = {"compare-cdf": ["--m1", 3, "--m2", 2, "--nu", 50], "omega": ["--rho", 2, "--n2", 3]}
    assert run_cli([command, *argv[command], "--n", 100, "--format", "json",
                    "--out", tmp_path / "t.json", "--gnuplot-script", tmp_path / "t.gp"]) == 2
    assert "--gnuplot-script" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["compare-cdf", "omega"])
@pytest.mark.parametrize("spelling", ["same", "relative", "dot", "symlink", "hardlink"])
def test_gnuplot_script_naming_the_table_exits_2_and_writes_nothing(tmp_path, monkeypatch,
                                                                    capsys, command, spelling):
    argv = {"compare-cdf": ["--m1", 3, "--m2", 2, "--nu", 50], "omega": ["--rho", 2, "--n2", 3]}
    (tmp_path / "d").mkdir()
    (tmp_path / "l").symlink_to("d")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "d" / "t.csv"
    if spelling == "hardlink":  # an existing table and a second name for it
        out.write_text("w,ecdf_w\n")
        os.link(out, tmp_path / "d" / "t2.csv")
    before = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()}
    script = {"same": out, "relative": "d/t.csv", "dot": f"{tmp_path}/d/./t.csv",
              "symlink": tmp_path / "l" / "t.csv", "hardlink": tmp_path / "d" / "t2.csv"}[spelling]
    assert run_cli([command, *argv[command], "--n", 100, "--out", out,
                    "--gnuplot-script", script]) == 2
    assert capsys.readouterr().err == f"ew: --gnuplot-script and --out name the same file {out}\n"
    assert {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()} == before


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
        return [tuple(r) for r in zip(*(np.asarray(columns[h]).tolist() for h in header))], summary
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
        (pipelines, "gof_table_rows"), GOF_HEADER, None, None,
    ),
    "gof-table-empty": (
        ["gof-table", "--replications", 0, "--seed", 9],
        (pipelines, "gof_table_rows"), GOF_HEADER, None, None,
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


def table_args(out, fmt):
    """The arguments `cli._emit_table` reads, for a table of command "t" with seed 1."""
    return argparse.Namespace(command="t", format=fmt, out=out, seed=1)


JSON_TABLES = {
    "empty": {"i": np.arange(0), "x": [], "s": []},
    "bools-and-ints": {"flag": np.array([True, False, True]), "i": [0, -3, 2**62],
                       "u": np.arange(3, dtype=np.uint64)},
    "floats": {"x": np.array([-0.0, 5e-324, 1e-05, 1e300, 0.1, -0.5]),
               "y": [0.0, -1e-4, 2.5, 1.0, 123456.789, 7.0]},
    "strings": {"s": ['say "hi"', "back\\slash", "naïve ω €", "tab\t,comma"], "w": np.ones(4)},
    "blocks": {"i": np.arange(10), "x": np.linspace(-1.0, 1.0, 10), "s": list("abcdefghij")},
}


@pytest.mark.parametrize("name", sorted(JSON_TABLES))
def test_json_rows_match_json_dumps(name, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)  # "blocks" spans four blocks
    columns, out = JSON_TABLES[name], tmp_path / "t.json"
    cli._emit_table(table_args(out, "json"), columns, {"md": 0.125, "n": None})
    rows = [list(row) for row in zip(*(np.asarray(c).tolist() for c in columns.values()))]
    payload = {"command": "t", "parameters": {"seed": 1}, "columns": list(columns),
               "rows": rows, "summary": {"md": 0.125, "n": None}}
    want = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert out.read_text(encoding="ascii") == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_json_rows_refuse_non_finite_floats_as_json_dumps(bad, tmp_path):
    out = tmp_path / "t.json"
    with pytest.raises(ValueError) as ours:
        cli._emit_table(table_args(out, "json"), {"x": np.array([0.5, bad])})
    with pytest.raises(ValueError) as ref:
        json.dumps([[0.5], [bad]], indent=2, allow_nan=False)
    assert str(ours.value) == str(ref.value)
    assert not out.exists()


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
def test_csv_writer_refuses_cells_that_need_quoting(char, tmp_path):
    out = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="quoting"):
        cli._emit_table(table_args(out, "csv"), {"a": ["1 2", f"3{char}4"], "b": [0.5, 0.25]})
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("lengths", [(3, 4), (4, 3), (3, 3, 7)])
def test_table_columns_of_unequal_length_raise_and_leave_no_file(lengths, fmt, tmp_path,
                                                                  monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)  # a longer column reaches into a later block
    out = tmp_path / f"t.{fmt}"
    columns = {name: np.arange(n) for name, n in zip("abc", lengths)}
    with pytest.raises(ValueError, match="table columns must have one length"):
        cli._emit_table(table_args(out, fmt), columns)
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_csv_body_formatted_in_workers_matches_reference_writer(fmt, tmp_path, monkeypatch,
                                                                capsys):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 64)  # 1,000 rows: 15 full blocks and a partial one
    floats = np.random.default_rng(6).normal(size=1000) * 10.0 ** np.arange(-10, 10).repeat(50)
    floats[[0, 100, 500, 640]] = [-0.0, 1e-05, 1e16, 5e-324]
    if fmt == "csv":  # JSON refuses non-finite floats; see below
        floats[[998, 999]] = [np.inf, np.nan]
    columns = {
        "i": np.arange(1000), "x": floats, "flag": np.arange(1000) % 3 == 0,
        "s": [f"{i} {i + 1}" for i in range(1000)],
    }
    summary = {"md": 0.125, "n": 1000}
    rows = list(zip(*(np.asarray(col).tolist() for col in columns.values())))
    if fmt == "csv":
        expected = ref_csv_bytes(list(columns), rows, summary)
    else:
        expected = (json.dumps({"command": "t", "parameters": {"seed": 1},
                                "columns": list(columns), "rows": rows, "summary": summary},
                               indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
    out = tmp_path / f"body.{fmt}"
    for cpus in (1, 2, 4):
        monkeypatch.setattr("ewdist.rng._available_cpus", lambda: cpus)
        cli._emit_table(table_args(out, fmt), columns, summary)
        assert out.read_bytes() == expected, cpus
        assert multiprocessing.active_children() == []

    # a worker's error in a later block reaches the parent with its type and message, and
    # the file the parent had opened is removed
    monkeypatch.setattr("ewdist.rng._available_cpus", lambda: 2)
    if fmt == "csv":
        columns["s"][-1], match = "999,1000", "quoting"
    else:
        columns["x"][-1], match = np.nan, "Out of range float values are not JSON compliant"
    with pytest.raises(ValueError, match=match):
        cli._emit_table(table_args(out, fmt), columns, summary)
    assert not out.exists()
    assert multiprocessing.active_children() == []

    def no_memory(values, as_json=False):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(cli, "_column_slots", no_memory)
    argv = ["simulate-w", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 1000, "--format", fmt,
            "--out", out]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "ew: out of memory: Unable to allocate 1.00 TiB\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


def _uniform(n, seed=2024):
    return np.random.default_rng(seed).random(n)


def _short_decimal_neighbours():
    short = np.arange(1, 10**5) / 10**5
    return np.concatenate([np.nextafter(short, 0), short, np.nextafter(short, 1)])


def _near_rounding_bounds(count=20_000):
    """Pairs of adjacent doubles in [1e-4, 1) whose shared rounding bound (their
    midpoint) lies within one part in 5**a of an ulp of a decimal D / 10**a of
    15 or 16 digits: the hardest cases for deciding whether D reads back."""
    gen, out = np.random.default_rng(1), []
    while len(out) < count:
        e10, p, sign = int(gen.integers(-4, 0)), int(gen.integers(15, 17)), int(gen.choice([-1, 1]))
        ex = int(gen.integers(np.floor(e10 * np.log2(10)), np.floor((e10 + 1) * np.log2(10))))
        a = p - 1 - e10
        s, mod = 53 - ex - a, 5**a
        d = (sign * pow(2**s, -1, mod)) % mod
        d += int(gen.integers(10 ** (p - 1) // mod, 10**p // mod)) * mod
        q, rem = divmod(d * 2**s - sign, mod)  # midpoint = q * 2**(ex - 53), D = d
        if rem == 0 and q % 2 and 2**53 <= q < 2**54:
            out += [float((q - 1) // 2) * 2.0 ** (ex - 52), float((q + 1) // 2) * 2.0 ** (ex - 52)]
    return np.array(out)


# Float columns whose cells must be repr's, through the digit kernel or its fallback.
FLOAT_SETS = {
    "w-draws": lambda: dist.w_sample(3, 2, 50, 10**6, 31),
    "uniform-and-negatives": lambda: np.concatenate([_uniform(200_000), -_uniform(200_000)]),
    "1e-8-to-1e20": lambda: 10.0 ** np.random.default_rng(5).uniform(-8, 20, 200_000),
    "rounded-to-1-16-decimals": lambda: np.concatenate(
        [np.round(_uniform(20_000), k) for k in range(1, 17)]),
    "neighbours-of-short-decimals": _short_decimal_neighbours,
    "near-rounding-bounds": _near_rounding_bounds,
    "dyadic-ties": lambda: np.concatenate(  # j / 2**17 .. j / 2**21 hold exact rounding ties
        [(np.random.default_rng(s).integers(1, 2**s, 20_000) | 1) / 2.0**s for s in range(14, 26)]),
    "powers-of-two-and-ten": lambda: np.concatenate(
        [2.0 ** np.arange(-1074, 1024), -(2.0 ** np.arange(-1074, 1024)),
         10.0 ** np.arange(-323, 309)]),
    "edges": lambda: np.array(
        [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), np.nextafter(1, 0), 1.0, -1.0,
         np.nextafter(0.1, 0), np.nextafter(0.01, 0), np.nextafter(0.001, 0), 0.0, -0.0,
         np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]),
}


@pytest.mark.parametrize("name", sorted(FLOAT_SETS))
def test_float_cells_match_repr(name):
    x = FLOAT_SETS[name]()
    assert cli._block_text([x]) == "".join(f"{cell}\r\n" for cell in map(repr, x.tolist()))


@pytest.mark.parametrize("name", ["w-draws", "uniform-and-negatives", "1e-8-to-1e20"])
def test_digit_kernel_decides_nearly_every_cell_in_its_range(name):
    x = FLOAT_SETS[name]()
    x = x[(np.abs(x) >= 1e-4) & (np.abs(x) < 1.0)]
    assert x.size > 10_000
    assert np.count_nonzero(cli._shortest_digits(x)[2]) <= 1e-4 * x.size


def test_repr_fallback_alone_writes_the_same_bytes(tmp_path, monkeypatch):
    argvs = [["simulate-w", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 5000, "--seed", 3],
             ["compare-cdf", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 500, "--seed", 3]]
    kernel = cli._shortest_digits

    def accept_nothing(x):
        code, digits, fallback = kernel(x)
        return code, digits, np.ones_like(fallback)

    for i, argv in enumerate(argvs):
        assert run_cli(argv + ["--out", tmp_path / f"{i}.csv"]) == 0
        monkeypatch.setattr(cli, "_shortest_digits", accept_nothing)
        assert run_cli(argv + ["--out", tmp_path / f"{i}-repr.csv"]) == 0
        monkeypatch.setattr(cli, "_shortest_digits", kernel)
        assert (tmp_path / f"{i}.csv").read_bytes() == (tmp_path / f"{i}-repr.csv").read_bytes()


# A CSV worker killed mid-body (as the kernel's out-of-memory killer would).
KILLED_WORKER_SETUP = r"""
import multiprocessing, os, signal, sys
from concurrent.futures.process import BrokenProcessPool
import numpy as np
from ewdist import cli, rng

parent, real = os.getpid(), cli._column_slots

def killed(values, as_json=False):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(values, as_json)

cli._BLOCK_ROWS, cli._column_slots = 64, killed
rng._available_cpus = lambda: 2
"""

KILLED_WORKER_CHILD = KILLED_WORKER_SETUP + r"""
import argparse
args = argparse.Namespace(command="t", format=sys.argv[1], out=os.devnull)
try:
    cli._emit_table(args, {"x": np.arange(1000.0)})
except BrokenProcessPool:
    print(len(multiprocessing.active_children()))
"""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_killed_csv_worker_fails_the_command_instead_of_hanging(fmt):
    proc = run_python(["-c", KILLED_WORKER_CHILD, fmt], capture_output=True, text=True,
                      timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


KILLED_WORKER_MAIN_CHILD = KILLED_WORKER_SETUP + r"""
out, fmt = sys.argv[1:]
code = cli.main(["simulate-w", "--m1", "3", "--m2", "2", "--nu", "50", "--n", "1000",
                 "--format", fmt, "--out", out])
print(code, len(multiprocessing.active_children()))
"""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_killed_csv_worker_exits_2_and_leaves_no_output(fmt, tmp_path):
    out = tmp_path / f"w.{fmt}"
    proc = run_python(["-c", KILLED_WORKER_MAIN_CHILD, str(out), fmt], capture_output=True,
                      text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "2 0\n"), proc.stderr
    assert proc.stderr.startswith("ew: a worker process was killed, e.g. for lack of memory: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not out.exists()


def _counting_fork_map(monkeypatch):
    """Count the calls of rng._fork_map, which still runs as before."""
    calls, real = [], rng._fork_map

    def counting(func, items):
        calls.append(func.__name__)
        return real(func, items)

    monkeypatch.setattr(rng, "_fork_map", counting)
    return calls


def test_gof_table_rows_in_workers_are_byte_identical(tmp_path, monkeypatch):
    calls = _counting_fork_map(monkeypatch)
    # 30 grid rows x 15 replications x 200 = 90,000 draws: the smallest table that forks
    argv = ["gof-table", "--replications", 15, "--seed", 12345]
    outs = {}
    for fmt in ("csv", "json"):
        for cpus in (1, 2, 4):
            monkeypatch.setattr(rng, "_available_cpus", lambda: cpus)
            out = tmp_path / f"{cpus}.{fmt}"
            assert run_cli(argv + ["--format", fmt, "--out", out]) == 0
            outs[fmt, cpus] = out.read_bytes()
            assert multiprocessing.active_children() == []
        assert outs[fmt, 1] == outs[fmt, 2] == outs[fmt, 4]
    assert calls == ["_gof_grid_row"] * 6
    # the in-process path writes the same bytes
    monkeypatch.setattr(pipelines, "_FORK_DRAWS", 10**9)
    assert run_cli(argv + ["--format", "csv", "--out", tmp_path / "serial.csv"]) == 0
    assert (tmp_path / "serial.csv").read_bytes() == outs["csv", 2]
    assert len(calls) == 6


def test_gof_table_below_the_fork_threshold_starts_no_pool(tmp_path, monkeypatch):
    calls = _counting_fork_map(monkeypatch)
    monkeypatch.setattr(rng, "_available_cpus", lambda: 2)
    for reps in (1, 5, 14):  # the README example runs 5; 14 x 30 x 200 = 84,000 draws
        assert run_cli(["gof-table", "--replications", reps, "--out", tmp_path / "t.csv"]) == 0
    assert calls == []


def test_gof_table_worker_error_exits_2_with_its_message(tmp_path, monkeypatch, capsys):
    calls = _counting_fork_map(monkeypatch)
    monkeypatch.setattr(pipelines, "_FORK_DRAWS", 0)
    monkeypatch.setattr(rng, "_available_cpus", lambda: 2)
    out = tmp_path / "t.csv"
    assert run_cli(["gof-table", "--n", 1, "--replications", 3, "--out", out]) == 2
    assert capsys.readouterr().err == "ew: the AD variance needs at least 4 pooled values, got 2\n"
    assert calls == ["_gof_grid_row"]
    assert not out.exists()
    assert multiprocessing.active_children() == []


KILLED_GOF_WORKER_CHILD = r"""
import multiprocessing, os, signal, sys
from ewdist import cli, goftests, pipelines, rng

parent, real = os.getpid(), goftests._pooled_rows

def killed(a, b):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(a, b)

goftests._pooled_rows, pipelines._FORK_DRAWS = killed, 0
rng._available_cpus = lambda: 2
code = cli.main(["gof-table", "--replications", "2", "--out", sys.argv[1]])
print(code, len(multiprocessing.active_children()))
"""


def test_killed_gof_worker_exits_2_and_leaves_no_output(tmp_path):
    out = tmp_path / "t.csv"
    proc = run_python(["-c", KILLED_GOF_WORKER_CHILD, str(out)], capture_output=True, text=True,
                      timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "2 0\n"), proc.stderr
    assert proc.stderr.startswith("ew: a worker process was killed, e.g. for lack of memory: ")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--m1", "1e308", "--m2", "2", "--nu", "50"],
                                   ["--m1", "3", "--m2", "2", "--nu", "1e308"]])
def test_simulate_w_near_float_max_writes_finite_weights(tmp_path, capsys, flags):
    out = tmp_path / "w.csv"
    assert run_cli(["simulate-w", *flags, "--n", 100, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    w = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]])
    assert w.size == 100 and np.isfinite(w).all() and ((w >= 0.0) & (w <= 1.0)).all()


def test_certify_bounds_past_the_float_range_exits_4_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "cert.json"
    argv = ["certify-bounds", "--m1", 300, "--m2", 2, "--nu1", 1000, "--nu2", 1000, "--out", out]
    assert run_cli(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "ew: numeric failure: constant a1 overflows a float"
    assert err[1].startswith("ew:   log_a1=797.343") and err[2].startswith("ew:   setting=")
    assert not out.exists()


def test_simulate_w_refuses_non_finite_draws(tmp_path, capsys):
    out = tmp_path / "w.csv"
    argv = ["simulate-w", "--m1", 3, "--m2", 2, "--nu", 0.001, "--n", 100, "--seed", 1,
            "--out", out]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(argv) == 4
    assert caught == []
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "ew: numeric failure: 65 of 100 W draws are not finite",
        "ew:   m1=3.0", "ew:   m2=2.0", "ew:   nonfinite=65", "ew:   nu=0.001",
    ]


@pytest.mark.parametrize("mode", ["sampled-sets", "all"])
@pytest.mark.parametrize("nu, bad", [("0.01", 1), ("1e-300", 35)])
def test_elemental_refuses_non_finite_t_draws(tmp_path, capsys, mode, nu, bad):
    # a tiny nu makes chi2 draws 0, and the t rows inf
    out = tmp_path / "gen.csv"
    argv = ["elemental", "--generate", "--rho", 2, "--nu", nu, "--l", 7, "--n-matrices", 5,
            "--mode", mode, "--seed", 1, "--out", out]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(argv) == 4
    assert caught == []
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"ew: numeric failure: {bad} of 35 t draws are not finite",
        "ew:   l=7", f"ew:   nonfinite={bad}", f"ew:   nu={float(nu)}", "ew:   rho=2",
    ]


def test_elemental_matrix_with_inf_exits_2(tmp_path, capsys):
    mat = tmp_path / "inf.csv"
    mat.write_text("1.0,2.0\ninf,4.0\n3.0,7.0\n")
    out = tmp_path / "o.csv"
    assert run_cli(["elemental", "--matrix", mat, "--out", out]) == 2
    assert capsys.readouterr().err == "ew: design matrix contains non-finite entries\n"
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_csv_write_failing_at_close_removes_the_file_but_not_a_symlink(tmp_path, monkeypatch,
                                                                         capsys, fmt):
    real_open = open

    def full_disk_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        close = fh.close

        def close_on_full_disk():  # the last buffer's flush fails, as on a full disk
            close()
            raise OSError(errno.ENOSPC, "No space left on device")

        fh.close = close_on_full_disk
        return fh

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    out = tmp_path / "w.csv"
    argv = ["simulate-w", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 100, "--format", fmt,
            "--out", out]
    assert run_cli(argv) == 3
    assert capsys.readouterr().err == "ew: i/o failure: [Errno 28] No space left on device\n"
    assert not out.exists()
    # a symlinked --out (such as /dev/stdout) is left alone
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "target.csv")
    assert run_cli(argv[:-1] + [link]) == 3
    assert link.is_symlink() and (tmp_path / "target.csv").exists()


def _file_size_cap():
    resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))


@pytest.mark.parametrize("argv", [
    ["simulate-w", "--m1", "3", "--m2", "2", "--nu", "50", "--n", "1000", "--format", "json"],
    ["certify-bounds", "--m1", "3", "--m2", "2", "--nu1", "50", "--nu2", "50"],
    ["simulate-w", "--m1", "3", "--m2", "2", "--nu", "50", "--n", "1000"],
], ids=["json-table", "certificate", "csv-table"])
def test_write_past_the_file_size_limit_exits_3_and_leaves_no_file(tmp_path, argv):
    # Python ignores SIGXFSZ, so a write past RLIMIT_FSIZE raises EFBIG rather than killing it
    proc = run_python(["-m", "ewdist.cli", *argv, "--out", str(tmp_path / "out")],
                      capture_output=True, text=True, preexec_fn=_file_size_cap)
    assert (proc.returncode, proc.stderr) == (3, "ew: i/o failure: [Errno 27] File too large\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["résultat.csv", os.fsdecode(b"r\xe9sultat.csv")],
                         ids=["utf8", "undecodable"])
def test_gnuplot_script_holds_a_non_ascii_table_path_as_given(tmp_path, name):
    argv = ["compare-cdf", "--m1", 3, "--m2", 2, "--nu", 50, "--n", 100, "--seed", 1]
    out, gp = tmp_path / name, tmp_path / "plot.gp"
    assert run_cli(argv + ["--out", out, "--gnuplot-script", gp]) == 0
    assert b"  '" + os.fsencode(out) + b"' every ::1::" in gp.read_bytes()
    assert run_cli(argv + ["--out", tmp_path / "ascii.csv"]) == 0
    assert out.read_bytes() == (tmp_path / "ascii.csv").read_bytes()


@pytest.mark.parametrize("command", ["compare-cdf", "omega"])
def test_unwritable_gnuplot_script_exits_3_and_leaves_no_file(tmp_path, capsys, command):
    argv = {"compare-cdf": ["--m1", 3, "--m2", 2, "--nu", 50], "omega": ["--rho", 2, "--n2", 3]}
    gp = tmp_path / "no_dir" / "plot.gp"
    assert run_cli([command, *argv[command], "--n", 100, "--out", tmp_path / "t.csv",
                    "--gnuplot-script", gp]) == 3
    assert capsys.readouterr().err.startswith("ew: i/o failure: [Errno 2] No such file")
    assert list(tmp_path.iterdir()) == []


# The degenerate-input sweep: each numeric flag of each command and --seed,
# one at a time, at each of these values; the other flags stay small.
SWEEP_BASES = {
    "simulate-w": ["--m1", "3", "--m2", "2", "--nu", "50", "--n", "100"],
    "compare-cdf": ["--m1", "3", "--m2", "2", "--nu", "50", "--n", "100", "--grid-points", "10"],
    "gof-table": ["--n", "20", "--replications", "1"],
    "omega": ["--rho", "2", "--n2", "3", "--n", "100", "--grid-points", "10"],
    "elemental": ["--generate", "--rho", "2", "--nu", "50", "--l", "7", "--n-matrices", "5"],
    "certify-bounds": ["--m1", "3", "--m2", "2", "--nu1", "50", "--nu2", "50"],
}
SWEEP_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "abc", "2.5", str(2**70), str(10**14))

# Runs the argv lists read from stdin through cli.main in one process, each
# in its own temporary directory (which replaces "<tmp>" in the argv), and
# prints the cases that break the contract, as JSON: a non-zero exit must
# leave no file at all.
SWEEP_CHILD = r"""
import contextlib, io, json, sys, tempfile, traceback
from pathlib import Path
from ewdist import cli, rng

def run(argv, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            traceback.print_exc()
    return code, err.getvalue()

broken = []
with tempfile.TemporaryDirectory() as tmp:
    for i, argv in enumerate(json.load(sys.stdin)):
        case = Path(tmp) / str(i)
        case.mkdir()
        argv, out = [t.replace("<tmp>", str(case)) for t in argv], case / "out"
        code, err = run(argv, out)
        if code not in (0, 2, 3, 4) or "Traceback" in err or (code and any(case.iterdir())):
            broken.append([argv, code, err[-400:]])
        elif code == 0:
            first = out.read_bytes()
            for cpus in (1, 4):
                rng._available_cpus = lambda cpus=cpus: cpus
                if run(argv, out)[0] != 0 or out.read_bytes() != first:
                    broken.append([argv, f"bytes differ at {cpus} workers", ""])
print(json.dumps(broken))
"""


def sweep_cases():
    for command, base in SWEEP_BASES.items():
        argv = [command, *base, "--seed", "1"]
        # every output file is checked, but the script path is never swept
        script = (["--gnuplot-script", "<tmp>/plot.gp"] if command in ("compare-cdf", "omega")
                  else [])
        for flag in [t for t in argv if t.startswith("--") and t != "--generate"]:
            at = argv.index(flag) + 1
            for value in SWEEP_VALUES:
                yield argv[:at] + [value] + argv[at + 1:] + script


def test_degenerate_input_sweep_keeps_the_exit_contract():
    cases = list(sweep_cases())
    assert len(cases) == 290
    proc = run_python(
        ["-c", SWEEP_CHILD], input=json.dumps(cases), capture_output=True, text=True,
        preexec_fn=_address_space_cap,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
