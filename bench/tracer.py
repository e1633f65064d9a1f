"""Spans around the public functions of the ewdist modules, from outside `src/`.

`Tracer.install` replaces every public function of the layer modules (every
function defined there whose name has no leading underscore) with
a wrapper that records a span (id, name, start, end, parent, items). The
wrapper is installed in every ewdist namespace that holds the function,
so a function imported by name elsewhere (`ln_beta` into `approx`,
`dist` and `product`) is traced at each call site. Spans stay in memory
and are written as JSON lines when the invocation ends.

`self_times` and `aggregate` turn spans back into per-function
`calls`, `items` and `self_s` (span time minus the time its child spans
cover). Part of each wrapper's own work (finding the parent, recording
the span, counting items) runs outside the child's timed window and so
inside its parent's; `Tracer.calibrate` measures that cost per call on an
empty function, and `self_times` takes it off the parent once per direct
child.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time

LAYERS = ("specfun", "rng", "dist", "approx", "product", "elemental", "goftests", "pipelines", "cli")


def count_items(result) -> int:
    """Work items in a traced function's result: draws, points, subsets or sample sizes."""
    if hasattr(result, "statistic") and hasattr(result, "n"):  # goftests.GofResult
        return int(result.n) + int(result.n2 or 0)
    size = getattr(result, "size", None)
    if isinstance(size, int):  # numpy array
        return size
    if isinstance(result, list):
        return len(result)
    return 1


class Tracer:
    """In-memory span recorder for one CLI invocation."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, items)
        self.counters = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self.wrapper_ns = 0.0  # per-call wrapper cost outside the span, from calibrate()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """fn wrapped so that each call records one span named `name`."""
        spans, ids, main_stack = self.spans, self._ids, self._main_stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread starts with an empty stack: its caller is the
            # span the main thread has open
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, 0))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, name, start, end, parent, count_items(result)))
            return result

        return traced

    def calibrate(self, calls: int = 4000, batches: int = 5) -> float:
        """Per-call wrapper time that falls outside the span, in ns; median over batches.

        Times `calls` calls of a wrapped empty function, less an empty loop
        of as many steps and less the spans those calls recorded.
        """
        def empty():
            return 0.0

        traced = self.wrap("trace.calibration", empty)
        clock = time.perf_counter_ns
        costs = []
        for _ in range(batches):
            t0 = clock()
            for _ in range(calls):
                pass
            t1 = clock()
            for _ in range(calls):
                traced()
            t2 = clock()
            inside = sum(end - start for _, _, start, end, _, _ in self.spans)
            self.spans.clear()
            costs.append(((t2 - t1) - (t1 - t0) - inside) / calls)
        self.wrapper_ns = max(0.0, statistics.median(costs))
        return self.wrapper_ns

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def install(self) -> list[str]:
        """Wrap every public (not underscored) function defined in a layer module.

        Returns the span names.
        """
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"ewdist.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    originals[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        self._count_quad_evaluations()
        for name, module in list(sys.modules.items()):
            if name != "ewdist" and not name.startswith("ewdist."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        return sorted(f"{fn.__module__.split('.')[-1]}.{fn.__name__}" for fn, _ in originals.values())

    def _count_quad_evaluations(self) -> None:
        """Count integrand evaluations of every `quad` call made from `approx`."""
        approx = sys.modules["ewdist.approx"]
        quad = getattr(approx, "quad", None)
        if quad is None:
            return

        @functools.wraps(quad)
        def counted(*args, **kwargs):
            res = quad(*args, **kwargs)
            if kwargs.get("full_output") and len(res) >= 3 and "neval" in res[2]:
                self.count("approx.quad.neval", int(res[2]["neval"]))
            return res

        approx.quad = counted

    def read_caches(self) -> None:
        """Hits and misses of the program's lru_caches, read after the command."""
        for counter, module, attr in (
            ("approx.u_tail_cutoff", "ewdist.approx", "_u_tail_cutoff_cached"),
            ("product.log_grid", "ewdist.product", "_log_grid"),
        ):
            cached = getattr(sys.modules.get(module), attr, None)
            info = getattr(cached, "cache_info", None)
            if info is not None:
                stats = info()
                self.count(f"{counter}.hits", stats.hits)
                self.count(f"{counter}.misses", stats.misses)

    def write(self, path) -> None:
        """Append this invocation's spans and counters to `path` as JSON lines."""
        inv = self.invocation
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"inv": inv, "wrapper_ns": self.wrapper_ns}) + "\n")
            for sid, name, start, end, parent, items in self.spans:
                fh.write(json.dumps({"inv": inv, "id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "items": items}) + "\n")
            for name, value in sorted(self.counters.items()):
                fh.write(json.dumps({"inv": inv, "counter": name, "value": value}) + "\n")


def self_times(spans, wrapper_ns: float = 0.0) -> dict:
    """Self time in ns of each span: its duration minus the union of its children.

    Each direct child also costs its parent `wrapper_ns` of tracer work
    outside the child's span; that is taken off too, down to 0. `spans`
    are dicts with id, start, end and parent; ids are unique per
    invocation, so callers group spans by invocation first.
    """
    return _self_times(spans, wrapper_ns)[0]


def _self_times(spans, wrapper_ns):
    """`self_times` and the total wrapper time it took off, in ns."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out, removed = {}, 0.0
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        own = (s["end"] - s["start"]) - covered
        charged = min(own, wrapper_ns * len(children.get(s["id"], ())))
        out[s["id"]] = own - charged
        removed += charged
    return out, removed


def aggregate(records) -> tuple[dict, dict]:
    """Per-function {calls, items, self_s} and summed counters from JSON-line records.

    The counter `trace.correction_s` is the wrapper time taken off parents'
    self times (see `self_times`).
    """
    by_inv, counters, wrapper_ns = {}, {}, {}
    for r in records:
        if "counter" in r:
            counters[r["counter"]] = counters.get(r["counter"], 0) + r["value"]
        elif "wrapper_ns" in r:
            wrapper_ns[r["inv"]] = r["wrapper_ns"]
        else:
            by_inv.setdefault(r["inv"], []).append(r)
    functions = {}
    removed = 0.0
    for inv, spans in by_inv.items():
        selfs, charged = _self_times(spans, wrapper_ns.get(inv, 0.0))
        removed += charged
        for s in spans:
            f = functions.setdefault(s["name"], {"calls": 0, "items": 0, "self_s": 0.0})
            f["calls"] += 1
            f["items"] += s["items"]
            f["self_s"] += selfs[s["id"]] / 1e9
    counters["trace.correction_s"] = removed / 1e9
    return functions, counters
