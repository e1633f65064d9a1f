"""Run one ewdist benchmark workload, check its outputs and print its metrics.

    python3 bench/run.py --workload {certify,replicate,bulk} --seed N --seconds S --trace {0,1}

Run from anywhere; the program is taken from `src/` beside this
directory. The workload's invocations (see workloads.py) run one after
another, each in a fresh interpreter through invoke.py, and the whole
list (a pass) is repeated as often as fits in S seconds, at least twice.
Outputs of the first pass are checked against oracles (checks.py); every
later pass must reproduce them byte for byte.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported as
medians over passes. With --trace 1 passes alternate untraced and traced;
the traced ones wrap every layer's public functions (tracer.py) and run
under `python -X importtime`, and the per-layer metrics of BENCHMARK.json
come from their spans. The last line of standard output is one JSON
object {correct, attempted, failed, metrics}; the lines before it list
every metric with its unit, the provenance and the failures. Spans go to
.bench_out/spans-<workload>.jsonl (the latest traced run only) and the full result to
.bench_out/result-<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MIN_PASSES = 2
# the run must end within 180 s; no pass starts that could cross this
RUN_LIMIT_S = 170.0
SAMPLERS = ("dist.w_sample", "dist.beta_sample", "dist.mvt_sample_rows")


class Runner:
    """Runs a workload's invocations through invoke.py and keeps their records."""

    def __init__(self, workload, seed, scale, workdir, spans_path, deadline, after_invocation=None):
        import workloads

        self.workdir = workdir
        self.spans_path = spans_path
        self.deadline = deadline
        self.after_invocation = after_invocation
        self.invocations = workloads.build(workload, seed, workdir, scale)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for key, value in workloads.environment(workload).items():
            if value is None:
                self.env.pop(key, None)
            else:
                self.env[key] = value
        self.records = []

    def _invoke(self, argv, record, traced, inv_id=None):
        cmd = [sys.executable]
        if traced:
            cmd += ["-X", "importtime"]
        cmd += [str(BENCH / "invoke.py"), "--src", str(SRC), "--record", str(record)]
        if traced:
            cmd += ["--spans", str(self.spans_path), "--inv", inv_id]
        cmd += ["--", *argv]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            _, stderr = proc.communicate()
            return None, f"timed out; {stderr[-300:]}", time.perf_counter() - start
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not record.exists():
            return None, f"invoke.py exited {proc.returncode}: {stderr.strip()[-500:]}", wall
        return json.loads(record.read_text()), stderr, wall

    def warm_up(self):
        """Import the program once, untimed: compiles bytecode and proves it is there."""
        record = self.workdir / "warmup.json"
        rec, err, _ = self._invoke([], record, traced=False)
        if rec is None:
            raise SystemExit(f"run.py: cannot import ewdist from {SRC}: {err}")
        return rec

    def run_pass(self, index, traced):
        out = []
        for inv in self.invocations:
            Path(inv.out).unlink(missing_ok=True)
            record = self.workdir / f"record-{inv.name}.json"
            record.unlink(missing_ok=True)
            rec, stderr, wall = self._invoke(inv.argv, record, traced, f"{index}:{inv.name}")
            entry = {"name": inv.name, "pass": index, "traced": traced, "wall_s": wall, "errors": []}
            if rec is None:
                entry["errors"].append(stderr)
            else:
                entry.update(rec)
                if rec["rc"] != 0:
                    entry["errors"].append(f"exit code {rec['rc']}: {stderr.strip()[-300:]}")
                if traced:
                    entry["importtime"] = parse_importtime(stderr)
            if self.after_invocation is not None:
                self.after_invocation(inv, index)
            path = Path(inv.out)
            if path.exists():
                entry["bytes"] = path.stat().st_size
                entry["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
            else:
                entry["errors"].append("no output file")
            out.append(entry)
            self.records.append(entry)
            if rec is None and "timed out" in stderr:
                break
        return out


def parse_importtime(stderr: str) -> dict:
    """Seconds of `import ewdist.cli` from `-X importtime` lines between invoke.py's marks.

    total: cumulative time of the top-level imports; scipy_integrate: the
    cumulative time of `scipy.integrate`, 0 when it is not imported there.
    """
    inside, total_us, integrate_us = False, 0, 0
    for line in stderr.splitlines():
        if line.startswith("ewdist-bench: import"):
            inside = line.endswith("start")
            continue
        if not inside or not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2][1:]
        if not name.startswith(" "):
            total_us += cumulative
        if name.strip() == "scipy.integrate":
            integrate_us = cumulative
    return {"total_s": total_us / 1e6, "scipy_integrate_s": integrate_us / 1e6}


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(workload, seed, runner, warm):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "generator": warm.get("generator"),
        "chunk_size": warm.get("chunk_size"),
        "ew_threads": runner.env.get("EW_THREADS"),
        "workload": workload,
        "seed": seed,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(records, passes):
    """Samples of each end-to-end metric: one per complete untraced pass, one per import."""
    untraced = [r for r in records if not r["traced"] and "import_s" in r]
    walls, runs = [], []
    for index in passes:
        rows = [r for r in records if r["pass"] == index]
        walls.append(sum(r["wall_s"] for r in rows))
        runs.append(sum(r.get("main_s", 0.0) for r in rows))
    imports = [r["import_s"] for r in untraced]
    return {
        "wall_s": walls,
        "run_s": runs,
        "setup_s": imports,
        "peak_rss_mb": [max(r["maxrss_kib"] for r in untraced) / 1024.0],
    }


def layer_metrics(names, traced_passes, run_s_untraced, max_relerr):
    """Per-layer metric values (medians over the traced passes) and the last pass's spans by function."""
    import tracer

    per_pass = []
    for records, spans in traced_passes:
        functions, counters = tracer.aggregate(spans)
        values = {name: _layer_value(name, functions, counters, records)
                  for name in names if name not in ("trace.overhead_s", "check.max_relerr")}
        values["trace.overhead_s"] = sum(r.get("main_s", 0.0) for r in records) - run_s_untraced
        per_pass.append(values)
    metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    metrics["check.max_relerr"] = max_relerr
    return metrics, functions


def _layer_value(name, functions, counters, records):
    if name.startswith("import."):
        key = name.split(".", 1)[1]
        return statistics.median(r["importtime"][key] for r in records if "importtime" in r)
    if name.endswith(".hit_ratio"):
        base = name[: -len(".hit_ratio")]
        hits, misses = counters.get(f"{base}.hits", 0), counters.get(f"{base}.misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0
    if name == "dist.bytes_drawn":
        return 8 * sum(functions.get(f, {}).get("items", 0) for f in SAMPLERS)
    if name == "cli.bytes_out":
        return sum(r.get("bytes", 0) for r in records)
    if name in ("approx.quad.neval", "trace.correction_s"):
        return counters.get(name, 0)
    function, stat = name.rsplit(".", 1)
    return functions.get(function, {}).get(stat, 0)


def read_spans(path):
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def run(workload, seed, seconds, trace, scale="full", after_invocation=None):
    """Run one workload; return the result dict (see the module docstring).

    `scale="tiny"` shrinks every command (workloads.SIZES), for the self-tests.

    `after_invocation(inv, pass_index)`, if given, runs after each command
    and before its output is hashed and checked; the self-tests use it to
    corrupt outputs.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / f"spans-{workload}.jsonl"  # a traced certify run writes ~50 MB; keep one
    spans_out.unlink(missing_ok=True)
    try:
        return _run(spec, workload, seed, seconds, trace, scale, after_invocation,
                    workdir, spans_out, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(spec, workload, seed, seconds, trace, scale, after_invocation, workdir, spans_out,
         deadline):
    from checks import Checker

    checker = Checker(SRC / "ewdist" / "schemas")
    spans_pass = workdir / "spans.jsonl"
    runner = Runner(workload, seed, scale, workdir, spans_pass, deadline, after_invocation)
    warm = runner.warm_up()

    first_sha, first_check = {}, {}
    traced_passes, untraced_idx, traced_idx = [], [], []
    index = 0
    last_pass_s = 0.0
    measure_start = time.monotonic()
    while True:
        # a pass runs only if it should end within --seconds (the first
        # MIN_PASSES always run) and cannot cross the run's deadline
        now = time.monotonic()
        fits = now + last_pass_s <= measure_start + seconds
        if (index >= MIN_PASSES and not fits) or now + last_pass_s > deadline:
            break
        traced = bool(trace) and index % 2 == 1
        t0 = time.monotonic()
        spans_pass.unlink(missing_ok=True)
        entries = runner.run_pass(index, traced)
        if index == 0:
            for inv, entry in zip(runner.invocations, entries):
                if "sha256" in entry:
                    first_sha[inv.name] = entry["sha256"]
                    first_check[inv.name] = checker.run(inv, Path(inv.out))
        for entry in entries:
            check = first_check.get(entry["name"])
            if entry.get("sha256") is None:
                continue
            if entry["sha256"] != first_sha.get(entry["name"]):
                entry["errors"].append("output bytes differ from the first pass with this seed")
            elif check is not None:
                entry["errors"].extend(check.errors)
        complete = len(entries) == len(runner.invocations)
        if traced:
            if complete:
                traced_passes.append((entries, read_spans(spans_pass)))
                with open(spans_out, "a", encoding="utf-8") as fh, open(spans_pass, encoding="utf-8") as src:
                    shutil.copyfileobj(src, fh)
                traced_idx.append(index)
        elif complete:
            untraced_idx.append(index)
        last_pass_s = time.monotonic() - t0
        index += 1
        if not complete:
            break

    records = runner.records
    attempted = len(records)
    failed = sum(1 for r in records if r["errors"])
    max_relerr = max((c.relerr for c in first_check.values()), default=0.0)
    samples = end_to_end(records, untraced_idx) if untraced_idx else {}
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": {"untraced": len(untraced_idx), "traced": len(traced_idx)},
        "provenance": dict(provenance(workload, seed, runner, warm), outputs_sha256=first_sha),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "max_relerr": max_relerr,
        "invocations": records,
        "samples": samples,
    }
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        if traced_passes and samples:
            run_s = statistics.median(samples["run_s"])
            metrics, functions = layer_metrics(names, traced_passes, run_s, max_relerr)
            result["functions"] = functions
            result["metrics"] = {m["name"]: (metrics[m["name"]], m["unit"]) for m in spec["per_layer"]}
    elif samples:
        result["metrics"] = {m["name"]: (statistics.median(samples[m["name"]]), m["unit"])
                             for m in spec["end_to_end"]}
    return result


def report(result) -> list[str]:
    """Human-readable lines: every metric with its unit, provenance, failures."""
    lines = [
        f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
        f"passes={result['passes']}",
        f"fail_ratio {result['fail_ratio']:.6g} ratio ({result['failed']} of {result['attempted']} invocations)",
        f"max_relerr {result['max_relerr']:.6g} ratio (worst output value against its oracle)",
    ]
    for name, samples in result["samples"].items():
        if result["trace"] == 0 and len(samples) > 1:
            q1, q3 = quartiles(samples)
            lines.append(f"  {name} samples n={len(samples)} q1={q1:.6g} q3={q3:.6g}")
    for name, (value, unit) in result.get("metrics", {}).items():
        lines.append(f"{name} {value:.6g} {unit}")
    for fn, stats in sorted(result.get("functions", {}).items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  span {fn}: calls={stats['calls']} items={stats['items']} self_s={stats['self_s']:.6g}")
    lines.append("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for r in result["invocations"]:
        for err in r["errors"]:
            lines.append(f"FAILED pass {r['pass']} {r['name']}: {err}")
    return lines


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running command is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "ewdist" / "cli.py").is_file():
        print(f"run.py: no program at {SRC / 'ewdist'}; run from a full checkout", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for line in report(result):
        print(line)
    if "metrics" not in result:
        print("run.py: no complete pass; no metrics", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
