"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q bench/selftest.py

They run each workload at the tiny scale, corrupt outputs to show that
the checks raise the failure count, check the self-time arithmetic on a
synthetic span tree, and run the benchmark where the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    # root [0, 100] has a child a [10, 30] and a pool-thread child b [20, 50]
    # that overlaps it; a has a child c [12, 20]
    spans = [
        {"id": 1, "parent": 0, "start": 0, "end": 100},
        {"id": 2, "parent": 1, "start": 10, "end": 30},
        {"id": 3, "parent": 1, "start": 20, "end": 50},
        {"id": 4, "parent": 2, "start": 12, "end": 20},
    ]
    assert tracer.self_times(spans) == {1: 60, 2: 12, 3: 30, 4: 8}


def test_wrapper_cost_is_taken_off_each_parent_once_per_direct_child():
    spans = [
        {"id": 1, "parent": 0, "start": 0, "end": 100},
        {"id": 2, "parent": 1, "start": 10, "end": 30},
        {"id": 3, "parent": 1, "start": 40, "end": 50},
        {"id": 4, "parent": 2, "start": 12, "end": 20},
    ]
    # root: 100 - 30 covered - 2 x 5; a: 20 - 8 - 1 x 5; leaves keep theirs;
    # a parent never goes below 0
    assert tracer.self_times(spans, wrapper_ns=5) == {1: 60, 2: 7, 3: 10, 4: 8}
    assert tracer.self_times(spans, wrapper_ns=50)[1] == 0
    records = [dict(s, inv="0:a", name=f"m.f{s['id']}", items=1) for s in spans]
    records.append({"inv": "0:a", "wrapper_ns": 5})
    functions, counters = tracer.aggregate(records)
    assert functions["m.f1"]["self_s"] == pytest.approx(60e-9)
    assert counters["trace.correction_s"] == pytest.approx(15e-9)


def test_calibration_measures_a_positive_wrapper_cost():
    t = tracer.Tracer("cal")
    assert 0 < t.calibrate(calls=500, batches=3) < 1e6
    assert t.wrapper_ns > 0 and t.spans == []


def test_aggregate_groups_spans_by_invocation():
    records = [
        {"inv": "0:a", "id": 1, "name": "m.f", "start": 0, "end": 10, "parent": 0, "items": 3},
        {"inv": "0:a", "id": 2, "name": "m.g", "start": 2, "end": 6, "parent": 1, "items": 1},
        # same ids in another invocation must not become children of the first
        {"inv": "0:b", "id": 1, "name": "m.f", "start": 0, "end": 5, "parent": 0, "items": 2},
        {"inv": "0:a", "counter": "approx.quad.neval", "value": 21},
        {"inv": "0:b", "counter": "approx.quad.neval", "value": 42},
    ]
    functions, counters = tracer.aggregate(records)
    assert functions["m.f"] == {"calls": 2, "items": 5, "self_s": 11e-9}
    assert functions["m.g"]["self_s"] == pytest.approx(4e-9)
    assert counters == {"approx.quad.neval": 63, "trace.correction_s": 0.0}


def test_importtime_is_read_between_the_import_marks():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "ewdist-bench: import start",
        "import time:        50 |        400 |     scipy.integrate",
        "import time:        10 |        900 |   ewdist.approx",
        "import time:        20 |       1000 | ewdist",
        "import time:         5 |         30 | ewdist.cli",
        "ewdist-bench: import end",
        "import time:         1 |          1 | tracer",
    ])
    assert run.parse_importtime(stderr) == {"total_s": 1030e-6, "scipy_integrate_s": 400e-6}


def test_certificate_settings_match_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    from ewdist.approx import CERTIFICATE_SETTINGS

    assert workloads.CERTIFY_SETTINGS == CERTIFICATE_SETTINGS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced(workload):
    result = run.run(workload, seed=3, seconds=0, trace=0, scale="tiny")
    assert result["failed"] == 0, run.report(result)
    assert result["passes"]["untraced"] == run.MIN_PASSES
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def test_smoke_traced_reports_every_layer():
    result = run.run("bulk", seed=4, seconds=0, trace=1, scale="tiny")
    assert result["failed"] == 0, run.report(result)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["cli.main.self_s"][0] > 0
    assert metrics["dist.w_sample.items"][0] == 2 * workloads.SIZES["tiny"]["bulk_n"]
    assert metrics["dist.bytes_drawn"][0] == 8 * metrics["dist.w_sample.items"][0]
    layers = {name.split(".")[0] for name in result["functions"]}
    assert {"cli", "pipelines", "dist", "rng", "goftests", "product", "specfun"} <= layers


def _corrupt(name, pass_index, edit):
    def hook(inv, index):
        if inv.name == name and index in pass_index:
            path = Path(inv.out)
            path.write_bytes(edit(path.read_bytes()))
    return hook


def test_flipped_byte_in_a_later_pass_counts_as_failed():
    flip = lambda data: data[:100] + bytes([data[100] ^ 0x01]) + data[101:]  # noqa: E731
    result = run.run("replicate", seed=5, seconds=0, trace=0, scale="tiny",
                     after_invocation=_corrupt("gof-table", {1}, flip))
    failed = [r for r in result["invocations"] if r["errors"]]
    assert [(r["name"], r["pass"]) for r in failed] == [("gof-table", 1)]
    assert "differ" in failed[0]["errors"][0]
    assert result["fail_ratio"] == 1 / result["attempted"]


def test_wrong_weight_fails_the_oracle_check():
    def wrong_weight(data):
        lines = data.split(b"\r\n")
        key, weight = lines[1].split(b",")
        lines[1] = key + b"," + repr(float(weight) * 1.001).encode()
        return b"\r\n".join(lines)

    result = run.run("replicate", seed=6, seconds=0, trace=0, scale="tiny",
                     after_invocation=_corrupt("elemental-matrix", {0, 1}, wrong_weight))
    failed = [r for r in result["invocations"] if r["errors"]]
    assert {r["name"] for r in failed} == {"elemental-matrix"}
    assert len(failed) == run.MIN_PASSES
    assert any("weights" in e for e in failed[0]["errors"])
    assert result["fail_ratio"] > 0


def test_certificate_violation_fails_the_check():
    def break_joint(data):
        report = json.loads(data)
        report["joint"]["ok"] = False
        return json.dumps(report).encode()

    result = run.run("certify", seed=7, seconds=0, trace=0, scale="tiny",
                     after_invocation=_corrupt("certify-6-5-50-50", {0, 1}, break_joint))
    failed = {r["name"] for r in result["invocations"] if r["errors"]}
    assert failed == {"certify-6-5-50-50"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
