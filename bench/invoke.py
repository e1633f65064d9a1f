"""Run one `ew` command in this fresh interpreter and record what it cost.

    python3 bench/invoke.py --src SRC --record REC.json [--spans SPANS.jsonl --inv ID] -- [ARGV...]

Times `import ewdist.cli` (the set-up a CLI user pays on every command)
and then `ewdist.cli.main(ARGV)`, and writes a JSON record with both
times, the command's exit code and the process's peak RSS. With
`--spans`, the tracer's per-call cost is calibrated and the public
functions of every layer are wrapped first (see tracer.py) and the spans are appended to SPANS.jsonl once the command
has returned. Only the standard library is imported before the timed
import, so numpy and scipy count towards it.
"""

import json
import resource
import sys
import time
from pathlib import Path

IMPORT_MARK = "ewdist-bench: import"


def _parse(argv):
    opts, rest = {}, list(argv)
    while rest and rest[0] != "--":
        key = rest.pop(0)
        if not key.startswith("--") or not rest:
            raise SystemExit(f"invoke: bad option {key!r}")
        opts[key[2:]] = rest.pop(0)
    if not rest or "src" not in opts or "record" not in opts:
        raise SystemExit("invoke: usage: --src SRC --record PATH [--spans PATH --inv ID] -- ARGV...")
    return opts, rest[1:]


def main():
    opts, argv = _parse(sys.argv[1:])
    src = Path(opts["src"]).resolve()
    sys.path.insert(0, str(src))

    print(f"{IMPORT_MARK} start", file=sys.stderr, flush=True)
    t0 = time.perf_counter()
    import ewdist.cli
    t1 = time.perf_counter()
    print(f"{IMPORT_MARK} end", file=sys.stderr, flush=True)

    origin = Path(ewdist.cli.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"invoke: ewdist was imported from {origin}, not from {src}")

    tracer = None
    if "spans" in opts:
        from tracer import Tracer

        tracer = Tracer(opts.get("inv", "0"))
        tracer.calibrate()
        tracer.install()

    # with no ARGV the script only imports: the runner's warm-up and presence check
    t2 = time.perf_counter()
    rc = ewdist.cli.main(argv) if argv else None
    t3 = time.perf_counter()

    if tracer is not None:
        tracer.read_caches()
        tracer.write(opts["spans"])
    record = {
        "import_s": t1 - t0,
        "main_s": t3 - t2,
        "rc": rc,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "generator": getattr(ewdist.rng, "GENERATOR_NAME", None),
        "chunk_size": getattr(ewdist.rng, "CHUNK_SIZE", None),
    }
    Path(opts["record"]).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
