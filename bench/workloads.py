"""The benchmark's workloads: inputs, operations and output checks.

Each workload is a list of CLI operations run once per round, plus a
check of their outputs.  Inputs come from the benchmark's own numpy code
and the seed; the program sees only the generated files and ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ESTIMATE_N = 100_000
# aMSE-optimal SMLE constant for F at t = 4 (the theory row of the table);
# each target gets h = c n^-alpha at its own rate.
PLUGIN_C = 6.467
ALPHA = {"F": 0.2, "f": 1.0 / 7.0, "lambda": 1.0 / 7.0}
# The kept failing operation runs on this input whatever --seed is, so it
# fails in every round of every run (see README, "Kept failure").
FAULT_SEED = 4
TABLE_MSLE_B = 2


@dataclass
class Op:
    label: str
    argv: list[str]
    output: Path


@dataclass
class OpRecord:
    """What the rounds saw of one operation."""

    exit_codes: list[int] = field(default_factory=list)
    stderr: str = ""
    digests: set[str] = field(default_factory=set)
    text: str | None = None


# run(argv, output) -> (exit code, stderr, output text or None); used by
# checks that need one more, untimed, invocation of the program
Runner = Callable[[list[str], Path], tuple[int, str, "str | None"]]


@dataclass
class Plan:
    ops: list[Op]
    check: Callable[[dict[str, OpRecord], Runner], list[str]]


def write_observations(path: Path, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n current status pairs from the built-in law and write the CSV.

    Events are 2 + Gamma(4, 1), inspections Exponential(mean 3); times are
    written with ``repr`` so the program parses the exact floats.
    """
    rng = np.random.default_rng(seed)
    x = 2.0 + rng.gamma(4.0, 1.0, n)
    t = rng.exponential(3.0, n)
    d = (x <= t).astype(np.int64)
    path.write_text("t,delta\n" + "".join(f"{ti!r},{di}\n" for ti, di in zip(t.tolist(), d.tolist())))
    return t, d


def _columns(text: str):
    comments, header, rows = checks.parse_csv(text)
    return comments, dict(zip(header, rows.T))


def _check_echoed_h(comments, h: dict) -> list[str]:
    problems = []
    for line in comments:
        if line.startswith("# h["):
            key, value = line[4:].split("] = ")
            target = key.split(",")[1]
            if checks.mismatch(float(value), h[target]).any():
                problems.append(f"echoed h[{key}] = {value}, expected c n^-alpha = {h[target]!r}")
    return problems


def estimate_1e5(seed: int, workdir: Path) -> Plan:
    n = ESTIMATE_N
    data, fault = workdir / "observations.csv", workdir / "fault.csv"
    obs_t, obs_d = write_observations(data, seed, n)
    write_observations(fault, FAULT_SEED, n)
    plugin = ["--c", repr(PLUGIN_C)]
    full = ["--method", "msle,smle", "--target", "F,f,lambda", *plugin]
    ops = [
        Op("estimate", ["estimate", "--input", str(data), *full], workdir / "estimate.csv"),
        Op(
            "msle-f",
            ["estimate", "--input", str(fault), "--method", "msle", "--target", "f", *plugin],
            workdir / "msle_f.csv",
        ),
    ]
    h = {target: PLUGIN_C * n ** (-alpha) for target, alpha in ALPHA.items()}

    def check(records: dict[str, OpRecord], run: Runner) -> list[str]:
        problems = []
        first = records["estimate"]
        if first.text is not None:
            problems += _check_full(first.text, run, data, obs_t, obs_d, n, h, plugin, workdir)
        kept = records["msle-f"]
        if kept.text is not None:
            problems += _check_kept(kept.text, run, fault, full, workdir)
        return problems

    return Plan(ops, check)


def _check_full(text, run, data, obs_t, obs_d, n, h, plugin, workdir) -> list[str]:
    comments, col = _columns(text)
    t = col["t"]
    problems = _check_echoed_h(comments, h)
    # The lambda columns are f / (1 - F) with F at the density bandwidth,
    # and the step MLE is no column of the full request: one untimed
    # call prints both on the same (untrimmed) grid.
    argv = ["estimate", "--input", str(data), "--method", "mle,msle,smle", "--target", "F",
            *plugin, "--alpha", repr(ALPHA["f"])]
    code, err, side_text = run(argv, workdir / "side.csv")
    if side_text is None:
        return problems + [f"check call {' '.join(argv)} exited {code}: {err.strip()}"]
    _, side = _columns(side_text)
    k = t.size
    if not np.array_equal(side["t"][:k], t):
        return problems + ["grid of the check call does not extend the estimate grid"]
    # Printed times carry nine digits; curves are recomputed on the exact
    # grid the CLI builds, np.linspace(0, T_max + largest h, 401).
    grid = np.linspace(0.0, float(np.max(obs_t)) + h["f"], 401)
    if grid.size != side["t"].size or checks.mismatch(side["t"], grid).any():
        return problems + ["printed grid is not linspace(0, T_max + h, 401)"]
    problems += checks.check_mle(grid, side["mle_F"], obs_t, obs_d)
    problems += checks.check_smle(grid[:k], col["smle_F"], col["smle_f"], obs_t, obs_d, h["F"], h["f"])
    for name, tt, values, slack in (
        ("mle_F", side["t"], side["mle_F"], 0.0),
        ("msle_F", t, col["msle_F"], 0.0),
        ("smle_F", t, col["smle_F"], 1e-12),
        ("msle_F@h_f", side["t"], side["msle_F"], 0.0),
        ("smle_F@h_f", side["t"], side["smle_F"], 1e-12),
    ):
        problems += checks.check_unit_interval(name, tt, values)
        problems += checks.check_nondecreasing(name, tt, values, slack)
    problems += checks.check_nonnegative("smle_f", t, col["smle_f"])
    for fam in ("msle", "smle"):
        problems += checks.check_hazard(
            f"{fam}_lambda", t, col[f"{fam}_lambda"], col[f"{fam}_f"], side[f"{fam}_F"][:k]
        )
    for fam in ("msle", "smle"):
        problems += checks.check_band(f"{fam}_F", t, col[f"{fam}_F"], checks.F0, checks.band_F(n, h["F"]))
        problems += checks.check_band(f"{fam}_f", t, col[f"{fam}_f"], checks.f0, checks.band_f(n, h["f"]))
    problems += checks.check_band("mle_F", side["t"], side["mle_F"], checks.F0, checks.band_mle(n))
    return problems


def _check_kept(text, run, fault, full, workdir) -> list[str]:
    """The kept operation exited 0: its density must be nonnegative and
    match the full request's msle_f on the grid the two share."""
    _, col = _columns(text)
    problems = checks.check_nonnegative("msle_f (kept operation)", col["t"], col["msle_f"])
    code, err, ref_text = run(["estimate", "--input", str(fault), *full], workdir / "fault_full.csv")
    if ref_text is None:
        return problems + [f"full request on the kept operation's input exited {code}: {err.strip()}"]
    _, ref = _columns(ref_text)
    k = ref["t"].size
    if not (np.array_equal(col["t"][:k], ref["t"]) and np.array_equal(col["msle_f"][:k], ref["msle_f"])):
        problems.append("msle_f of the kept operation differs from the full request on the shared grid")
    return problems


def _table(method: str, B: int | None) -> Callable[[int, Path], Plan]:
    def make(seed: int, workdir: Path) -> Plan:
        argv = ["reproduce-table1", "--method", method, "--seed", str(seed)]
        if B is not None:
            argv += ["--B", str(B)]
        expect = {"method": method, "n": 2000, "m": 500, "B": B or 100, "seed": seed}

        def check(records: dict[str, OpRecord], run: Runner) -> list[str]:
            text = records["table"].text
            return checks.check_table(text, expect) if text is not None else []

        return Plan([Op("table", argv, workdir / "table.csv")], check)

    return make


WORKLOADS: dict[str, Callable[[int, Path], Plan]] = {
    "estimate-1e5": estimate_1e5,
    "table-msle": _table("msle", TABLE_MSLE_B),
    "table-smle": _table("smle", None),
}
