"""Command-line surface: reproduce the simulation study as CSV/JSON.

    ew <command> [flags] --seed U64 --out PATH [--format csv|json]

Commands: simulate-w, compare-cdf, gof-table, omega, elemental,
certify-bounds.  Exit codes: 0 success, 2 usage or domain error (an input
file that is not UTF-8 or holds no rows, and a --gnuplot-script that names
the --out file, included), a size too large to allocate or a killed worker
process, 3 I/O failure, 4 numeric non-convergence, non-finite W or t draws
or an upper envelope constant a1 beyond the float range.  Input files may
start with a UTF-8 byte-order mark.
A command writes all its files, the table or report and then any gnuplot
script, as UTF-8 in one call; if anything fails, every regular, non-symlink
file it opened is removed.  A config file of key=value lines can pre-set
any flag of the invoked command; explicit flags override it.
Outputs are byte-identical for identical (flags, seed), whatever the
number of worker threads or processes.  On exit 4 the error's diagnostics
follow the message on stderr as sorted key=value pairs.

Tables are ordered {header: column} mappings.  CSV output formats each
column once per block of rows: floats as their shortest round-trip repr,
integers in decimal, booleans as true/false, strings as given, by one `%`
format per block.  Floats with 1e-4 <= |x| < 1 take repr's digits from an
exact vectorized kernel, other floats and doubtful cells from `repr`.  No
cell is ever quoted; a string cell that would need quoting (a comma, a double
quote, CR or LF) raises ValueError instead.  Summary values follow the body
as key,value rows.  JSON output is the `json.dumps(indent=2, sort_keys=True)`
text of {command, parameters, columns, rows, summary}; its rows are made
from the same column blocks, strings escaped as `json` escapes them.  In
either format a body of at least four full 65,536-row blocks is formatted
in forked worker processes, one per available CPU up to the number of
blocks; the parent writes the blocks in order, so the bytes never depend
on the worker count.  `gof-table` may also run its grid rows in forked
workers (see `pipelines.gof_table_rows`); both pools are `rng._fork_map`,
and a worker's error or death reaches `main` like any other, as exit 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from concurrent.futures import BrokenExecutor
from contextlib import nullcontext
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import approx, dist, pipelines, rng
from .elemental import load_design_csv
from .errors import ConfigError, DomainError, EwdistError, NumericError

__all__ = ["main", "build_parser"]


_BLOCK_ROWS = 1 << 16
# Fork from this many full blocks on, in either format.  Median cli.main of `ew simulate-w`, serial
# vs forked, on 2 CPUs only, at 2, 3, 4 and 8 blocks: CSV 80 vs 94 ms, 147 vs 141, 181 vs 156 and
# 420 vs 268; JSON 95 vs 125, 142 vs 151, 183 vs 182 and 340 vs 293.
_FORK_BLOCKS = 4
_NEEDS_QUOTING = re.compile(r'[,"\r\n]')
_FLOAT_PREFIXES = np.array([s + "0." + "0" * z for s in ("", "-") for z in range(4)], dtype=object)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _unquoted(cells):
    """The cells as given; ValueError if one would need CSV quoting."""
    if _NEEDS_QUOTING.search("".join(cells)):
        cell = next(cell for cell in cells if _NEEDS_QUOTING.search(cell))
        raise ValueError(f"CSV cell {cell!r} would need quoting")
    return cells


def _shortest_digits(x):
    """(code, digits, fallback): where not `fallback`, `_FLOAT_PREFIXES[code]`
    (sign, "0." and -E-1 zeros) + `str(digits)` is `repr(x)`, the shortest
    decimal that reads back as the float64 x, the nearest if several (Steele &
    White 1990; Gay 1990).  For 1e-4 <= |x| < 1, E = floor(log10|x|) and
    |x| * 10**(16 - E) = hi + lo exactly, in [10**16, 10**17).  The digits
    are those of the first p in 15, 16, 17 whose nearest p-digit decimal is
    within half an ulp of x (at 15 at most one is, at 17 one always is),
    trailing zeros stripped.  (A power of two, whose rounding interval is
    asymmetric, is an exact decimal of at most 10 digits here.)  Left to repr:
    other x, and cells within 1e-6 of a rounding tie or of that bound.
    """
    ax = np.abs(x)
    fallback = ~((ax >= 1e-4) & (ax < 1.0))
    ax = np.where(fallback, 0.5, ax)
    # E exactly, as each double 1e-3, 1e-2, 1e-1 lies above its power of ten; so
    # no x rounds to 10**(E + 1) either, and the digits never carry into an 18th
    e = np.searchsorted([1e-3, 1e-2, 1e-1], ax, side="right") - 4
    scale = np.array([1e20, 1e19, 1e18, 1e17])[e + 4]
    # Dekker's (1971) exact product, each factor split in halves as Veltkamp's
    hi, ca, cb = ax * scale, 134217729.0 * ax, 134217729.0 * scale
    ah, bh = ca - (ca - ax), cb - (cb - scale)
    lo = ((ah * bh - hi) + ah * (scale - bh) + (ax - ah) * bh) + (ax - ah) * (scale - bh)
    bound = 0.5 * np.spacing(ax) * scale
    n, digits, undecided = hi.astype(np.int64), np.zeros(x.shape, np.int64), ~fallback
    for q in (100, 10, 1):  # 10**(17 - p)
        a, r = np.divmod(n, q)
        t = (r + lo) / q  # hi + lo = (a + t) * q
        d = np.floor(t + 0.5)
        off = np.abs(d - t)
        ok = undecided & (off * q < bound)
        fallback |= undecided & (np.abs(off * q - bound) < 1e-6 * bound) | ok & (off > 0.5 - 1e-6)
        digits = np.where(ok, (a + d.astype(np.int64)) * q, digits)
        undecided &= ~ok
    for s in (16, 8, 4, 2, 1):
        digits = np.where(digits % 10**s == 0, digits // 10**s, digits)
    return (x < 0) * 4 - 1 - e, digits, fallback


def _column_slots(values, as_json=False):
    """The `%` conversion of a column block and slot lists giving each cell `_fmt`'s text;
    with `as_json`, strings as `json.dumps` writes them and its ValueError for nan or inf."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind == "f":
        if as_json and not np.isfinite(arr).all():
            json.dumps(arr.tolist(), indent=2, allow_nan=False)
        code, digits, fallback = _shortest_digits(np.asarray(arr, dtype=float))
        prefixes, digits = _FLOAT_PREFIXES[code].tolist(), digits.tolist()
        for i in np.flatnonzero(fallback).tolist():
            prefixes[i], digits[i] = repr(float(arr[i])), ""
        return "%s%s", [prefixes, digits]
    if kind in "iu":
        return "%d", [arr.tolist()]
    if kind == "b":
        return "%s", [["true" if v else "false" for v in arr.tolist()]]
    if kind == "U":
        return "%s", [list(map(encode_basestring_ascii, arr.tolist())) if as_json
                      else _unquoted(arr.tolist())]
    raise TypeError(f"cannot write a column of dtype {arr.dtype} as CSV")


def _block_text(block, as_json=False) -> str:
    """CSV text of a block of rows, given as one slice per column, by one `%` format; with
    `as_json`, the rows as `json.dumps(indent=2)` writes them in a top-level key, joined
    by ",\n", with no separator before the first row or after the last."""
    conversions, slot_lists = zip(*(_column_slots(col, True) for col in block) if as_json
                                  else map(_column_slots, block))
    slots = [slot for lists in slot_lists for slot in lists]
    cells = [None] * (len(slots[0]) * len(slots))
    for i, slot in enumerate(slots):
        cells[i::len(slots)] = slot
    row, sep = (("    [\n      " + ",\n      ".join(conversions) + "\n    ]", ",\n") if as_json
                else (",".join(conversions) + "\r\n", ""))
    return sep.join([row] * len(slots[0])) % tuple(cells)


def _write(outputs):
    """Write each (path, pieces) in turn as UTF-8, surrogate escapes as their bytes.  If
    anything raises, each regular file opened is removed; not /dev/stdout or a symlink."""
    opened = []
    try:
        for path, pieces in outputs:
            with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
                opened.append(path)
                fh.writelines(pieces)
    except BaseException:
        for path in opened:
            if os.path.isfile(path) and not os.path.islink(path):
                os.remove(path)
        raise


def _emit_table(args, columns, summary=None, others=()):
    """Write an ordered {header: 1-D array or list} table and its summary, then `others`,
    by one `_write` call.  The body is formatted `_BLOCK_ROWS` rows at a time, each column
    once per block; from `_FORK_BLOCKS` full blocks on, in forked workers, which start
    before any file is opened.  The blocks are written in order.
    """
    summary, as_json = summary or {}, args.format == "json"
    lengths = {len(col) for col in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"table columns must have one length, got {sorted(lengths)}")
    n_rows = lengths.pop()
    if as_json:
        parameters = {k: v for k, v in vars(args).items() if v is not None and k not in
                      ("command", "func", "out", "format", "config", "gnuplot_script")}
        text = json.dumps({"command": args.command, "parameters": parameters,
                           "columns": list(columns), "rows": [], "summary": summary},
                          indent=2, sort_keys=True, allow_nan=False) + "\n"
        head, tail = text.split('\n  "rows": []')
        # the rows in place of the empty list, indented as json.dumps indents them
        head, tail = (head + '\n  "rows": [\n', "\n  ]" + tail) if n_rows else (text, "")
        head, sep, tail = [head], ",\n", [tail]
    else:
        pad = ("",) * max(0, len(columns) - 2)
        head, sep = [",".join(_unquoted(list(columns))) + "\r\n"], ""
        tail = (",".join(_unquoted(list(map(_fmt, (k, v) + pad)))) + "\r\n"
                for k, v in summary.items())
    blocks = ([col[start:start + _BLOCK_ROWS] for col in columns.values()]
              for start in range(0, n_rows, _BLOCK_ROWS))
    block_text = partial(_block_text, as_json=as_json)
    serial = n_rows < _FORK_BLOCKS * _BLOCK_ROWS  # too little text to repay the fork
    with (nullcontext(map(block_text, blocks)) if serial
          else rng._fork_map(block_text, blocks)) as body:
        body = chain.from_iterable(zip(chain([""], repeat(sep)), body))  # blocks joined by sep
        _write([(args.out, chain(head, body, tail)), *others])


def _gnuplot(args, n_rows, title, ycols):
    """The --gnuplot-script output, if one is asked for, as a list of (path, pieces)."""
    out, title = args.out.replace("'", "''"), title.replace("'", "''")  # '' is ' in '...'
    plots = ", \\\n".join(f"  '{out}' every ::1::{n_rows} using {x}:{y} with {style}"
                          f" title '{name}'" for x, y, style, name in ycols)
    script = (f"set datafile separator ','\nset key left top\nset title '{title}'\n"
              f"set xrange [0:1]\nplot \\\n{plots}\n")
    return [(args.gnuplot_script, [script])] if args.gnuplot_script else []


def _cmd_simulate_w(args):
    sample = dist.w_sample(args.m1, args.m2, args.nu, args.n, args.seed)
    _emit_table(args, {"index": np.arange(sample.size), "w": sample})


def _cmd_compare_cdf(args):
    columns, summary = pipelines.compare_cdf_rows(args.m1, args.m2, args.nu, args.n,
                                                  args.grid_points, args.seed)
    _emit_table(args, columns, summary, _gnuplot(
        args, len(columns["w"]), f"W vs proposed Beta (m1={args.m1} m2={args.m2} nu={args.nu})",
        [(1, 2, "steps", "ECDF of W"), (1, 3, "lines", "proposed Beta CDF")],
    ))


def _read_grid_file(path):
    rows = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(list(fh))
    except UnicodeDecodeError as exc:
        raise DomainError(f"grid file {path} is not UTF-8 text: {exc}") from None
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["m1", "m2", "nu"]:
        raise DomainError(f"grid file {path}: expected header 'm1,m2,nu'")
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            m1, m2, nu = (float(c) for c in row)
        except (ValueError, TypeError):
            raise DomainError(f"grid file {path}: malformed row at line {lineno}: {row!r}")
        rows.append((m1, m2, nu))
    if not rows:
        raise DomainError(f"grid file {path} contains no parameter rows")
    return rows


def _cmd_gof_table(args):
    grid = _read_grid_file(args.grid) if args.grid else pipelines.DEFAULT_GOF_GRID
    _emit_table(args, *pipelines.gof_table_rows(grid, args.n, args.replications, args.seed))


def _cmd_omega(args):
    columns, summary = pipelines.omega_rows(args.rho, args.n2, args.n, args.grid_points, args.seed)
    _emit_table(args, columns, summary, _gnuplot(
        args, columns["row_type"].count("cdf"), f"product law (rho={args.rho} n2={args.n2})",
        [(2, 3, "lines", "numeric CDF"), (2, 4, "steps", "Monte Carlo ECDF")],
    ))


def _cmd_elemental(args):
    if args.matrix and args.generate:
        raise DomainError("pass either --matrix or --generate, not both")
    if args.matrix:
        columns, summary = pipelines.elemental_matrix_rows(load_design_csv(args.matrix))
    elif args.generate:
        for name in ("rho", "nu", "l"):
            if getattr(args, name) is None:
                raise DomainError(f"--generate requires --{name}")
        columns, summary = pipelines.elemental_simulation_report(
            args.rho, args.nu, args.l, args.n_matrices, args.seed,
            mode=args.mode, intercept=args.intercept,
        )
    else:
        raise DomainError("elemental needs --matrix PATH or --generate")
    _emit_table(args, columns, summary)


def _parse_grid_spec(spec: str):
    try:
        n_u, n_w = (int(p) for p in spec.lower().split("x"))
    except ValueError:
        raise DomainError(f"grid spec must look like '200x99', got {spec!r}")
    if n_u < 2 or n_w < 2:
        raise DomainError("grid spec dimensions must be at least 2")
    return n_u, n_w


def _cmd_certify_bounds(args):
    if args.format == "csv":
        raise DomainError("certify-bounds emits a JSON report; use --format json")
    n_u, n_w = _parse_grid_spec(args.grid)
    setting = approx.RatioSetting(args.m1, args.m2, args.nu1, args.nu2)
    report = approx.certify_bounds(setting, n_u=n_u, n_w=n_w)
    _write([(args.out, [json.dumps({**report, "command": args.command, "seed": args.seed},
                                   indent=2, sort_keys=True, allow_nan=False) + "\n"])])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ew",
        description="Beta approximation of F-variate ratios and elemental weight laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--config", default=None, help="key=value file pre-setting flags")
        p.set_defaults(func=func)
        return p

    p = add("simulate-w", _cmd_simulate_w, help="draws of W = Y1/(Y1+Y2)")
    p.add_argument("--m1", type=float, required=True)
    p.add_argument("--m2", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--n", type=int, default=10000)

    p = add("compare-cdf", _cmd_compare_cdf, help="ECDF of W vs the proposed Beta CDF")
    p.add_argument("--m1", type=float, required=True)
    p.add_argument("--m2", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--gnuplot-script", default=None, help="also write a gnuplot script here")

    p = add("gof-table", _cmd_gof_table, help="KS/AD table over a parameter grid")
    p.add_argument("--grid", default=None, help="CSV grid file with header m1,m2,nu")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--replications", type=int, default=1)

    p = add("omega", _cmd_omega, help="product-law CDF grid and moment table")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--grid-points", type=int, default=500)
    p.add_argument("--gnuplot-script", default=None)

    p = add("elemental", _cmd_elemental, help="elemental weights of a matrix, or simulated")
    p.add_argument("--matrix", default=None, help="headerless CSV design matrix")
    p.add_argument("--generate", action="store_true", help="simulate t-distributed matrices")
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--n-matrices", type=int, default=1000)
    p.add_argument("--mode", choices=("all", "sampled-sets"), default="sampled-sets")
    p.add_argument("--intercept", action="store_true", help="prepend a constant column")

    p = add("certify-bounds", _cmd_certify_bounds, help="measure the envelope bounds")
    p.add_argument("--m1", type=float, required=True)
    p.add_argument("--m2", type=float, required=True)
    p.add_argument("--nu1", type=float, required=True)
    p.add_argument("--nu2", type=float, required=True)
    p.add_argument("--grid", default="200x99", help="log-u x uniform-w grid, e.g. 200x99")
    p.set_defaults(format="json")

    return parser, sub.choices


def _load_config_pairs(path):
    pairs = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config {path}: line {lineno} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _inject_config(argv, commands):
    """Expand --config into flag tokens placed before the explicit flags."""
    path, rest, tokens = None, [], iter(argv)
    for token in tokens:
        if token == "--config":
            path = next(tokens, None)
            if path is None:
                raise ConfigError("--config requires a path")
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
        else:
            rest.append(token)
    if path is None:
        return argv
    if not rest or rest[0] not in commands:
        return rest  # let argparse report the usage error
    actions = commands[rest[0]]._option_string_actions
    preset = []
    for key, value in _load_config_pairs(path):
        opt = "--" + key.replace("_", "-").lstrip("-")
        action = actions.get(opt)  # keys for other commands are allowed and ignored
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() in ("1", "true", "yes", "on"):
                preset.append(opt)
        elif action is not None:
            preset += [opt, value]
    return rest[:1] + preset + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        args = parser.parse_args(_inject_config(argv, commands))
        rng._key_array("seed", args.seed)
        script = getattr(args, "gnuplot_script", None)
        if script and args.format == "json":
            raise DomainError("--gnuplot-script plots the CSV table; it cannot read --format json")
        both_exist = script and os.path.exists(script) and os.path.exists(args.out)
        if script and (os.path.realpath(script) == os.path.realpath(args.out)
                       or both_exist and os.path.samefile(script, args.out)):  # a hard link
            raise DomainError(f"--gnuplot-script and --out name the same file {args.out}")
        args.func(args)
        return 0
    except NumericError as exc:
        print(f"ew: numeric failure: {exc}", file=sys.stderr)
        for key, value in sorted(exc.diagnostics.items()):
            print(f"ew:   {key}={value}", file=sys.stderr)
        return 4
    except EwdistError as exc:
        print(f"ew: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"ew: out of memory: {exc}", file=sys.stderr)
        return 2
    except BrokenExecutor as exc:
        print(f"ew: a worker process was killed, e.g. for lack of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ew: i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
