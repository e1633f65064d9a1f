"""Run the Tier-1 suite and write its verdict as JSON.

    python tests/tier1_verdict.py [--json PATH]

Runs `pytest -q --continue-on-collection-errors` on this directory and
writes {"outcomes": {outcome: [node ids]}, "unexpected": [...], "ok": bool,
"wall_s": seconds, "slowest": [[node id, seconds]], "src_lines": count,
"src_lines_by_module": {path: count}} to PATH (default tier1_verdict.json),
where wall_s is the wall time of the pytest run, slowest the ten slowest
test calls by the duration of their call phase, src_lines_by_module the
line count of each src/ewdist/*.py, as `wc -l` counts them, and src_lines
their sum.  Outcomes are passed,
failed, error (setup, teardown or collection), skipped, xfailed and
xpassed.  Exits 0 only when the failures are exactly the two by-design
ones (c2b and c3), nothing errors, and nothing is skipped, xfailed or
xpassed, so that a new failure cannot hide behind them.  Not collected:
the name has no `test_` prefix.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import pytest

BY_DESIGN_FAILURES = (
    "tests/test_acceptance.py::test_c2b_table_anomaly_ordering",
    "tests/test_acceptance.py::test_c3_marginal_sandwich_certificate",
)
OUTCOMES = ("passed", "failed", "error", "skipped", "xfailed", "xpassed")


class Outcomes:
    """pytest plugin: node ids by outcome, and the seconds of each call phase."""

    def __init__(self):
        self.ids = {outcome: [] for outcome in OUTCOMES}
        self.call_s = []

    def pytest_collectreport(self, report):
        if report.failed:
            self.ids["error"].append(report.nodeid)

    def pytest_runtest_logreport(self, report):
        if report.when == "call":
            self.call_s.append([report.nodeid, round(report.duration, 3)])
        if hasattr(report, "wasxfail"):
            outcome = "xfailed" if report.skipped else "xpassed"
        elif report.when == "call" or report.skipped:
            outcome = report.outcome
        elif report.failed:
            outcome = "error"
        else:
            return  # a passing setup or teardown
        self.ids[outcome].append(report.nodeid)


def verdict(ids: dict) -> list[str]:
    """What breaks the Tier-1 contract, one line each; empty when it holds."""
    unexpected = [f"failed: {i}" for i in ids["failed"] if i not in BY_DESIGN_FAILURES]
    unexpected += [f"did not fail (by design it does): {i}" for i in BY_DESIGN_FAILURES
                   if i not in ids["failed"]]
    unexpected += [f"{outcome}: {i}" for outcome in ("error", "skipped", "xfailed", "xpassed")
                   for i in ids[outcome]]
    return unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default="tier1_verdict.json", help="verdict file to write")
    args = parser.parse_args(argv)
    plugin = Outcomes()
    tests = Path(__file__).resolve().parent
    start = time.perf_counter()
    pytest.main(["-q", "--continue-on-collection-errors", str(tests)], plugins=[plugin])
    wall_s = time.perf_counter() - start
    by_module = {p.relative_to(tests.parent).as_posix(): p.read_bytes().count(b"\n")
                 for p in sorted((tests.parent / "src/ewdist").glob("*.py"))}
    unexpected = verdict(plugin.ids)
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump({"outcomes": plugin.ids, "unexpected": unexpected, "ok": not unexpected,
                   "wall_s": round(wall_s, 3),
                   "slowest": sorted(plugin.call_s, key=lambda c: -c[1])[:10],
                   "src_lines": sum(by_module.values()),
                   "src_lines_by_module": by_module}, fh, indent=2)
        fh.write("\n")
    for line in unexpected:
        print(f"tier1: {line}", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
