"""Command-line surface for current status estimation.

Four subcommands: ``estimate`` evaluates fitted curves on a grid and
writes a CSV, ``bandwidth`` runs the smoothed-bootstrap constant
selection and writes JSON, ``simulate`` runs a replication study at a
point, and ``reproduce-table1`` assembles the bandwidth-constant table
for the built-in simulation truth.

Input CSV (UTF-8): header ``t,delta``, one observation per row, a line
starting with ``#`` is a comment, rows in any order.  Numeric output is
decimal with nine significant digits so repeated runs diff cleanly.
Exit codes: 0 ok, 2 input or parse error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .bandwidth import (
    BootstrapConfig,
    _replicate,
    _true_value,
    amse_optimal_c,
    bootstrap_bandwidth,
    mc_bandwidth,
    rate_exponent,
)
from .errors import DomainError, InputError
from .estimators import _estimate_table
from .kernels import check_bandwidth, triweight
from .mle import build_sample
from .sim import sample_current_status, truth_gamma4_exp3
from .smoothing import _MAX_GRID_NODES, _as_array
from ._threads import replicate_map

_METHODS = ("mle", "naive", "msle", "smle")
_TARGETS = ("F", "f", "lambda")
_TABLE_POINTS = (4.0, 6.5)
# the bandwidth-theory column of each smoothing family; naive shares the
# msle asymptotics
_ORDER = {"naive": "MS", "msle": "MS", "smle": "SM"}
# Ceiling on a simulated sample size (--n; --m is at most --n), checked
# before any draw: an MS or naive replicate peaks near 101 bytes per
# observation, so one replicate at the ceiling stays near 106 MB.
_MAX_SAMPLE_SIZE = 2**20
# Ceiling on a replicate count (--B), checked before any draw:
# replicate_map keeps one row per replicate, 60 values (about 0.6 kB) on
# the default c-grid, so those rows stay near 40 MB at the ceiling.
_MAX_REPLICATES = 2**16
# Ceiling on the MSE curve values a bootstrap selection keeps, one row
# of --c-points values per replicate, checked before any draw: 2**22
# float64 values are 32 MB, and the default 60-point c-grid stays under
# it for every --B up to _MAX_REPLICATES.
_MAX_CURVE_VALUES = 2**22


def _fmt(x) -> str:
    """Nine significant digits, the package-wide output format."""
    return format(float(x), ".9g")


def _round9(obj):
    """Round every float in a JSON-ready structure to nine digits."""
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


_CLEAN_HEADER = b"t,delta\n"
# the bytes a clean file may hold after its header line
_CLEAN_BYTES = b"0123456789.eE+-,\n"
# path suffixes np.loadtxt opens with a decompressor
_PACKED = (".gz", ".bz2", ".xz", ".lzma")


def read_observations(path: str) -> np.ndarray:
    """Parse an observation CSV into an (n, 2) array of (t, delta).

    UTF-8; lines stripped; blank lines and lines that start with ``#``
    skipped; header ``t,delta``; then rows of two stripped fields in
    Python ``float`` syntax, ``t`` finite and >= 0, ``delta`` 0 or 1.

    A clean file (``t,delta`` exactly, then nonblank rows of ``0-9.eE+-,``)
    is parsed by ``np.loadtxt`` from its path, in chunks, or in memory if
    it is a pipe or another non-regular file; other files go through the
    general filter.  Rows that ``np.loadtxt`` refuses, that fail the checks
    or that differ in number from the bytes read (the file changed) are
    read again from those bytes by the per-line loop, which names the
    first bad line and parses ``float``-only syntax (``1_0``).

    Raises
    ------
    InputError
        On unreadable or non-UTF-8 files, a bad header, or a malformed
        row; the message names the offending line.
    """
    try:
        with open(path, "rb") as file:
            regular = stat.S_ISREG(os.fstat(file.fileno()).st_mode)
            data = file.read()
        body = _clean_body(data)
        text = data.decode("utf-8") if body is None else None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if body is None:
        linenos, rows = _filtered_rows(path, text)
    else:
        linenos = range(2, body.count(b"\n") + 2 + (not body.endswith(b"\n")))
        # numpy would decompress a path by its suffix and fetch a URL
        by_path = regular and "://" not in path and os.path.splitext(path)[1] not in _PACKED
        rows = None if by_path else _clean_rows(body)
    if not linenos:
        raise InputError(f"{path}: no data rows")
    source, options = (rows, {}) if rows else (path, {"skiprows": 1, "encoding": "ascii"})
    try:
        obs = np.loadtxt(source, delimiter=",", comments=None, dtype=float, ndmin=2, **options)
    except (OSError, ValueError):
        obs = None
    if obs is not None and obs.shape == (len(linenos), 2):
        t, d = obs[:, 0], obs[:, 1]
        if np.all(np.isfinite(t) & (t >= 0.0) & ((d == 0.0) | (d == 1.0))):
            return obs
    return _parse_rows(path, zip(linenos, rows or _clean_rows(body)))


def _clean_body(data: bytes) -> bytes | None:
    """The bytes after the header of a clean file, or None.  A clean file
    has no carriage return, blank line or comment, so its rows are what
    :func:`_filtered_rows` returns, numbered from line 2."""
    body = data[len(_CLEAN_HEADER) :]
    clean = data.startswith(_CLEAN_HEADER) and body and b"\n\n" not in data
    return body if clean and not body.translate(None, _CLEAN_BYTES) else None


def _clean_rows(body: bytes) -> list[str]:
    """The rows of a clean file's body, split on its newlines."""
    return body.decode("ascii").splitlines()


def _filtered_rows(path: str, text: str) -> tuple[list[int], list[str]]:
    """Line numbers and stripped lines of the data rows of any file:
    blank and ``#`` lines are skipped and the header is checked."""
    lines = [raw.strip() for raw in text.splitlines()]
    kept = [i for i, line in enumerate(lines) if line and line[0] != "#"]
    if not kept:
        raise InputError(f"{path}: empty input, expected header 't,delta'")
    if [f.strip() for f in lines[kept[0]].split(",")] != ["t", "delta"]:
        raise InputError(f"{path}:{kept[0] + 1}: expected header 't,delta'")
    return [i + 1 for i in kept[1:]], [lines[i] for i in kept[1:]]


def _parse_rows(path: str, numbered) -> np.ndarray:
    """Per-line reader of the (line number, stripped line) data rows."""
    rows = []
    for lineno, line in numbered:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise InputError(
                f"{path}:{lineno}: expected two fields, got {len(fields)}"
            )
        try:
            t = float(fields[0])
            d = float(fields[1])
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric row {line!r}") from None
        if not np.isfinite(t) or t < 0.0:
            raise InputError(f"{path}:{lineno}: observation time must be >= 0")
        if d not in (0.0, 1.0):
            raise InputError(f"{path}:{lineno}: delta must be 0 or 1, got {fields[1]}")
        rows.append((t, d))
    return np.array(rows, dtype=float)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _split_list(raw: str, allowed: tuple, what: str) -> list:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise InputError(f"no {what} requested")
    for item in items:
        if item not in allowed:
            raise InputError(f"unknown {what} {item!r}, expected one of {allowed}")
    return list(dict.fromkeys(items))


def _child_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def _explicit_c_grid(args) -> np.ndarray | None:
    given = [args.c_min is not None, args.c_max is not None, args.c_points is not None]
    if not any(given):
        return None
    if not all(given):
        raise InputError("--c-min, --c-max and --c-points must be given together")
    # c-grids and evaluation grids share the smoothing grid's node ceiling,
    # checked before anything of that size is allocated
    if not 1 <= args.c_points <= _MAX_GRID_NODES:
        raise InputError(f"--c-points must be in [1, {_MAX_GRID_NODES}], got {args.c_points}")
    if not (0.0 < args.c_min <= args.c_max):
        raise InputError("need 0 < c-min <= c-max")
    if args.c_max == math.inf:
        raise InputError("--c-max must be finite")
    if args.c_min == args.c_max and args.c_points > 1:
        raise InputError("equal c bounds require --c-points 1")
    return np.geomspace(args.c_min, args.c_max, args.c_points)


def _warn_if_at_edge(what: str, sel, c: float) -> None:
    """One stderr line for a selection whose constant is a c-grid end."""
    if sel.at_edge:
        end = "lower" if c == sel.c_grid[0] else "upper"
        print(
            f"warning: {what}: selected c = {_fmt(c)} is the {end} end of the c-grid "
            f"[{_fmt(sel.c_grid[0])}, {_fmt(sel.c_grid[-1])}]; "
            "the MSE minimum may lie beyond it",
            file=sys.stderr,
        )


def _check_replicates(B: int) -> None:
    if B > _MAX_REPLICATES:
        raise InputError(f"--B must be at most {_MAX_REPLICATES}, got {B}")


def _bootstrap_config(args, what: str) -> BootstrapConfig:
    """The selector's configuration from ``--t --m --B --c0 --seed`` and
    the c-grid flags; ``what`` names the caller when a flag is missing."""
    missing = [
        flag
        for flag, value in (("--t", args.t), ("--m", args.m), ("--B", args.B), ("--c0", args.c0))
        if value is None
    ]
    if missing:
        raise InputError(f"{what} needs {', '.join(missing)}")
    _check_replicates(args.B)
    c_grid = _explicit_c_grid(args)
    if c_grid is not None and args.B * c_grid.size > _MAX_CURVE_VALUES:
        raise InputError(
            f"--B times --c-points must be at most {_MAX_CURVE_VALUES}, "
            f"got {args.B} * {c_grid.size}"
        )
    return BootstrapConfig(
        m=args.m,
        B=args.B,
        c0=args.c0,
        t=args.t,
        seed=args.seed,
        c_grid=c_grid,
    )


def _explicit_h(args, target: str, n: int) -> float | None:
    """h from ``--h``, or ``c n^-alpha`` from ``--c [--alpha]``, checked to
    be positive and finite; None when neither flag is given."""
    if args.h is not None:
        h = float(args.h)
    elif args.c is None:
        return None
    else:
        alpha = args.alpha if args.alpha is not None else rate_exponent(target)
        try:
            scale = n ** (-float(alpha))
        except OverflowError:  # beyond the float range; check_bandwidth reports c * inf
            scale = math.inf
        h = float(args.c) * scale
    check_bandwidth(h)
    return h


# ---------------------------------------------------------------------------
# estimate


def _resolve_h(args, method: str, target: str, sample, kernel, cache: dict) -> tuple[float, list[str]]:
    """Bandwidth for one requested column, plus echo lines."""
    h = _explicit_h(args, target, sample.n)
    if h is not None:
        return h, []
    order = _ORDER[method]
    key = (order, target)
    if key in cache:
        return cache[key], []
    cfg = _bootstrap_config(args, "--select-bootstrap")
    sel = bootstrap_bandwidth(sample, cfg, target, order, kernel)
    cache[key] = sel.h_hat
    note = (
        f"# selected c_hat = {_fmt(sel.c_hat)} for {order},{target} "
        f"(seed = {args.seed})"
    )
    return sel.h_hat, [note]


def cmd_estimate(args) -> int:
    methods = _split_list(args.method, _METHODS, "method")
    targets = _split_list(args.target, _TARGETS, "target")
    kernel = triweight()
    sample = build_sample(read_observations(args.input))

    columns = []
    for method in methods:
        for target in targets:
            if method == "mle" and target != "F":
                raise InputError(
                    "the mle method only provides the distribution; "
                    "request target F or drop mle"
                )
            columns.append((method, target))

    smoothing_cols = [(m, t) for m, t in columns if m != "mle"]
    h_flags = sum(
        (args.h is not None, args.c is not None, bool(args.select_bootstrap))
    )
    if smoothing_cols and h_flags != 1:
        raise InputError(
            "supply exactly one of --h, --c [--alpha], or --select-bootstrap "
            "for smoothing methods"
        )
    if not smoothing_cols and h_flags:
        raise InputError("bandwidth flags apply only to smoothing methods")
    if args.alpha is not None and args.c is None:
        raise InputError("--alpha only makes sense together with --c")
    bootstrap = ("t", "m", "B", "c0", "c_min", "c_max", "c_points")
    stray = [f for f in bootstrap if getattr(args, f) is not None]
    if stray and not args.select_bootstrap:
        flags = ", ".join("--" + f.replace("_", "-") for f in stray)
        raise InputError(f"bootstrap flags {flags} need --select-bootstrap")
    if not 2 <= args.grid_points <= _MAX_GRID_NODES:
        raise InputError(
            f"--grid-points must be in [2, {_MAX_GRID_NODES}], got {args.grid_points}"
        )

    notes = []
    col_h = {}
    selection_cache = {}
    for method, target in smoothing_cols:
        h, extra = _resolve_h(args, method, target, sample, kernel, selection_cache)
        notes.extend(extra)
        col_h[(method, target)] = h
    grid, values, violations = _estimate_table(sample, kernel, columns, col_h, args.grid_points)

    lines = [f"# curstat estimate, input = {args.input}, kernel = triweight"]
    lines.append(f"# n = {sample.n}")
    for (method, target), h in sorted(col_h.items()):
        lines.append(f"# h[{method},{target}] = {_fmt(h)}")
    lines.extend(notes)
    lines.append(",".join(["t"] + [f"{method}_{target}" for method, target in columns]))
    for row in zip(grid, *values):
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(args.output, "\n".join(lines) + "\n")

    if violations:
        for message in violations:
            print(f"domain error: {message}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# bandwidth


def cmd_bandwidth(args) -> int:
    kernel = triweight()
    sample = build_sample(read_observations(args.input))
    cfg = _bootstrap_config(args, "the bandwidth command")
    sel = bootstrap_bandwidth(
        sample, cfg, args.target, _ORDER[args.method], kernel
    )
    _warn_if_at_edge("bandwidth", sel, sel.c_hat)
    payload = {
        "command": "bandwidth",
        "input": args.input,
        "target": args.target,
        "method": args.method,
        "kernel": "triweight",
        "n": sel.n,
        "m": sel.m,
        "B": sel.B,
        "c0": args.c0,
        "t": args.t,
        "seed": sel.seed,
        "pilot_h": sel.pilot_h,
        "pilot_value": sel.pilot_value,
        "c_hat": sel.c_hat,
        "h_hat": sel.h_hat,
        "curve": [[c, m] for c, m in zip(sel.c_grid, sel.mse)],
    }
    _write_text(args.output, json.dumps(_round9(payload), indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    truth = truth_gamma4_exp3()
    kernel = triweight()
    if args.n is None or args.B is None or args.t is None:
        raise InputError("simulate needs --n, --B and --t")
    if args.n < 1 or args.B < 1:
        raise InputError("--n and --B must be >= 1")
    if args.n > _MAX_SAMPLE_SIZE:
        raise InputError(f"--n must be at most {_MAX_SAMPLE_SIZE}, got {args.n}")
    _check_replicates(args.B)
    target = args.target
    method = args.method
    if method == "mle" and target != "F":
        raise InputError("the mle method only provides the distribution")

    h = None if method == "mle" else _explicit_h(args, target, args.n)
    if method != "mle" and h is None:
        raise InputError("simulate needs --h or --c for smoothing methods")

    t_eval = float(args.t)
    # the evaluators' check of t, made before any draw and for mle too
    _as_array(t_eval)
    body = _replicate(
        truth.sample_x, truth.sample_t, args.n, method, target, kernel, [h], t_eval
    )
    values = np.concatenate(replicate_map(body, args.B, args.seed))
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if args.B > 1 else 0.0
    theta0 = _true_value(truth, target, t_eval)
    factor = args.n ** (2.0 * rate_exponent(target))
    norm_mean = factor * (mean - theta0)
    norm_sd = factor * sd

    lines = [
        "# curstat simulate, truth = gamma4-exp3, kernel = triweight",
        f"# n = {args.n}, B = {args.B}, t = {_fmt(t_eval)}, "
        f"method = {method}, target = {target}, seed = {args.seed}",
        f"# theta0 = {_fmt(theta0)}, scaling = n^{{{_fmt(2.0 * rate_exponent(target))}}}",
    ]
    if h is not None:
        lines.append(f"# h = {_fmt(h)}")
    lines.append("replicate,value,mean,sd,norm_mean,norm_sd")
    for i, v in enumerate(values):
        lines.append(f"{i},{_fmt(v)},,,,")
    lines.append(
        "summary,,"
        + ",".join(_fmt(v) for v in (mean, sd, norm_mean, norm_sd))
    )
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# reproduce-table1


def cmd_reproduce_table1(args) -> int:
    truth = truth_gamma4_exp3()
    kernel = triweight()
    if args.n < 1 or args.m < 1 or args.B < 1:
        raise InputError("--n, --m and --B must be >= 1")
    if args.n > _MAX_SAMPLE_SIZE:
        raise InputError(f"--n must be at most {_MAX_SAMPLE_SIZE}, got {args.n}")
    _check_replicates(args.B)
    if args.m > args.n:
        raise InputError(f"--m must not exceed --n, got m={args.m} n={args.n}")
    try:
        pilot_cs = [float(s) for s in args.c0_set.split(",") if s.strip()]
    except ValueError:
        raise InputError(f"bad --c0-set {args.c0_set!r}") from None
    if not pilot_cs or any(c <= 0 for c in pilot_cs):
        raise InputError("--c0-set needs positive values")
    target, method = args.target, _ORDER[args.method]
    alpha = rate_exponent(target)

    sample = sample_current_status(truth, args.n, args.seed).sample

    rows = []
    row_index = 0
    for c0 in pilot_cs:
        cells = []
        for t in _TABLE_POINTS:
            cfg = BootstrapConfig(
                m=args.m,
                B=args.B,
                c0=c0,
                t=t,
                seed=_child_seed(args.seed, row_index),
            )
            sel = bootstrap_bandwidth(sample, cfg, target, method, kernel)
            _warn_if_at_edge(f"bootstrap c0={_fmt(c0)} at t={_fmt(t)}", sel, sel.c_hat)
            cells.extend((sel.c_hat, sel.h_hat))
            row_index += 1
        rows.append((f"bootstrap c0={_fmt(c0)}", cells))
    for label, size in ((f"mc-sim n={args.n}", args.n), (f"mc-sim m={args.m}", args.m)):
        cells = []
        for t in _TABLE_POINTS:
            sel = mc_bandwidth(
                truth,
                size,
                args.B,
                None,
                t,
                target,
                method,
                kernel,
                seed=_child_seed(args.seed, row_index),
            )
            _warn_if_at_edge(f"{label} at t={_fmt(t)}", sel, sel.c_tilde)
            cells.extend((sel.c_tilde, sel.c_tilde * args.n ** (-alpha)))
            row_index += 1
        rows.append((label, cells))
    cells = []
    for t in _TABLE_POINTS:
        c_star = amse_optimal_c(target, method, truth, t, kernel)
        cells.extend((c_star, c_star * args.n ** (-alpha)))
    rows.append(("theory", cells))

    lines = [
        "# bandwidth constants and bandwidths at the reference points",
        f"# truth = gamma4-exp3, target = {target}, method = {args.method}, "
        "kernel = triweight",
        f"# n = {args.n}, m = {args.m}, B = {args.B}, seed = {args.seed}",
        "# bootstrap rows resample one synthetic dataset; mc rows draw fresh samples",
        "row," + ",".join(
            f"c_hat@{_fmt(t)},h_hat@{_fmt(t)}" for t in _TABLE_POINTS
        ),
    ]
    for label, cells in rows:
        lines.append(label + "," + ",".join(_fmt(v) for v in cells))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curstat",
        description="Nonparametric estimation from current status data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, input_file: bool):
        if input_file:
            p.add_argument("--input", required=True, help="observation CSV (t,delta)")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
        p.add_argument("--seed", type=int, default=0)

    def bootstrap_args(p):
        p.add_argument("--t", type=float, help="evaluation point")
        p.add_argument("--m", type=int, help="bootstrap sample size")
        p.add_argument("--B", type=int, help="replicate count")
        p.add_argument("--c0", type=float, help="pilot bandwidth constant")
        p.add_argument("--c-min", type=float, dest="c_min")
        p.add_argument("--c-max", type=float, dest="c_max")
        p.add_argument("--c-points", type=int, dest="c_points")

    p = sub.add_parser("estimate", help="evaluate fitted curves on a grid")
    common(p, input_file=True)
    p.add_argument("--method", default="mle", help="comma-separated subset of "
                   + ",".join(_METHODS))
    p.add_argument("--target", default="F", help="comma-separated subset of "
                   + ",".join(_TARGETS))
    p.add_argument("--h", type=float, help="explicit bandwidth")
    p.add_argument("--c", type=float, help="bandwidth constant, h = c n^-alpha")
    p.add_argument("--alpha", type=float, help="rate exponent for --c")
    p.add_argument("--select-bootstrap", action="store_true",
                   help="pick h by the smoothed bootstrap")
    p.add_argument("--grid-points", type=int, default=401)
    bootstrap_args(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bandwidth", help="smoothed-bootstrap constant selection")
    common(p, input_file=True)
    p.add_argument("--method", default="smle", choices=("msle", "smle"))
    p.add_argument("--target", default="F", choices=_TARGETS)
    bootstrap_args(p)
    p.set_defaults(func=cmd_bandwidth)

    p = sub.add_parser("simulate", help="replication study at a point")
    common(p, input_file=False)
    p.add_argument("--method", default="smle", choices=_METHODS)
    p.add_argument("--target", default="F", choices=_TARGETS)
    p.add_argument("--n", type=int, help="sample size per replicate")
    p.add_argument("--B", type=int, help="replicate count")
    p.add_argument("--t", type=float, help="evaluation point")
    p.add_argument("--h", type=float, help="explicit bandwidth")
    p.add_argument("--c", type=float, help="bandwidth constant, h = c n^-alpha")
    p.add_argument("--alpha", type=float, help="rate exponent for --c")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "reproduce-table1", help="bandwidth-constant table for the built-in truth"
    )
    common(p, input_file=False)
    p.add_argument("--method", default="smle", choices=("msle", "smle"))
    p.add_argument("--target", default="F", choices=_TARGETS)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--m", type=int, default=500)
    p.add_argument("--B", type=int, default=100)
    p.add_argument("--c0-set", dest="c0_set", default="5,10,15,20,25")
    p.set_defaults(func=cmd_reproduce_table1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
