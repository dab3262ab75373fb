"""Self-tests of the benchmark: each check passes on real program output at
tiny sizes and rejects a deliberately corrupted copy of it.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curstat import bandwidth, cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

N = 3000


def call(argv, output):
    return run.call_cli(cli.main, argv, output)[:3]


def corrupt(text, column, row, value):
    """Replace one cell of a CLI table, addressed by column name and data row."""
    lines = text.splitlines()
    body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    col = lines[body[0]].split(",").index(column)
    cells = lines[body[1 + row]].split(",")
    cells[col] = value
    lines[body[1 + row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def cell(text, column, row):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return float(lines[1 + row].split(",")[lines[0].split(",").index(column)])


@pytest.fixture(scope="module")
def estimate(tmp_path_factory):
    work = tmp_path_factory.mktemp("estimate")
    data = work / "obs.csv"
    obs_t, obs_d = workloads.write_observations(data, 7, N)
    plugin = ["--c", repr(workloads.PLUGIN_C)]
    argv = ["estimate", "--input", str(data), "--method", "msle,smle", "--target", "F,f,lambda", *plugin]
    code, err, text = call(argv, work / "out.csv")
    assert code == 0, err
    h = {t: workloads.PLUGIN_C * N ** (-a) for t, a in workloads.ALPHA.items()}

    def check(out):
        return workloads._check_full(out, call, data, obs_t, obs_d, N, h, plugin, work)

    return text, check


def test_estimate_output_passes(estimate):
    text, check = estimate
    assert check(text) == []


@pytest.mark.parametrize(
    "column, row, value, expect",
    [
        ("msle_F", 150, "0.999", "msle_F: decreases"),
        ("smle_F", 120, "1.5", "smle_F: outside [0, 1]"),
        ("smle_F", 120, None, "smle_F: differs from the smoothed isotonic MLE"),
        ("smle_f", 30, "-0.001", "smle_f: negative"),
        ("msle_lambda", 100, None, "msle_lambda: is not f / (1 - F)"),
        ("msle_f", 120, "0.9", "msle_f: sup error"),
    ],
)
def test_estimate_corruption_is_rejected(estimate, column, row, value, expect):
    text, check = estimate
    if value is None:  # perturb the seventh significant digit
        value = format(cell(text, column, row) * (1.0 + 1e-7), ".9g")
    problems = check(corrupt(text, column, row, value))
    assert any(p.startswith(expect) for p in problems), problems


def test_echoed_bandwidth_is_checked(estimate):
    text, check = estimate
    bad = text.replace("# h[smle,F] = ", "# h[smle,F] = 1", 1)
    assert any(p.startswith("echoed h[smle,F]") for p in check(bad))


def test_mle_check_rejects_a_moved_jump():
    rng = np.random.default_rng(3)
    obs_t = rng.exponential(3.0, 400)
    obs_d = (2.0 + rng.gamma(4.0, 1.0, 400) <= obs_t).astype(float)
    times, fit = checks.isotonic_mle(obs_t, obs_d)
    grid = np.linspace(0.0, times[-1], 101)
    good = checks.step_at(times, fit, grid)
    assert checks.check_mle(grid, good, obs_t, obs_d) == []
    jump = int(np.flatnonzero(np.diff(good))[0]) + 1
    bad = good.copy()
    bad[jump] = bad[jump - 1]
    assert checks.check_mle(grid, bad, obs_t, obs_d)


def test_kept_operation_checks(tmp_path):
    # an input on which `estimate --method msle --target f` exits 0
    data = tmp_path / "obs.csv"
    workloads.write_observations(data, 1, N)
    full = ["--method", "msle,smle", "--target", "F,f,lambda", "--c", repr(workloads.PLUGIN_C)]
    argv = ["estimate", "--input", str(data), "--method", "msle", "--target", "f", "--c", repr(workloads.PLUGIN_C)]
    code, err, text = call(argv, tmp_path / "kept.csv")
    assert code == 0, err
    assert workloads._check_kept(text, call, data, full, tmp_path) == []
    row = int(np.argmax([cell(text, "msle_f", i) for i in range(100)]))
    problems = workloads._check_kept(corrupt(text, "msle_f", row, "-0.5"), call, data, full, tmp_path)
    assert any("negative" in p for p in problems)
    assert any("differs from the full request" in p for p in problems)


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    out = tmp_path_factory.mktemp("table") / "table.csv"
    argv = ["reproduce-table1", "--method", "smle", "--n", "300", "--m", "60", "--B", "2",
            "--c0-set", "5,10", "--seed", "3"]
    code, err, text = call(argv, out)
    assert code == 0, err
    return text, {"method": "smle", "n": 300, "m": 60, "B": 2, "seed": 3}


def test_table_output_passes(table):
    text, expect = table
    assert checks.check_table(text, expect) == []


def test_table_corruptions_are_rejected(table):
    text, expect = table
    lines = text.splitlines()
    theory = next(i for i, ln in enumerate(lines) if ln.startswith("theory,"))
    cells = lines[theory].split(",")
    cells[1] = format(float(cells[1]) * 1.001, ".9g")
    wrong_theory = "\n".join(lines[:theory] + [",".join(cells)] + lines[theory + 1:])
    assert any(p.startswith("theory row") for p in checks.check_table(wrong_theory, expect))

    boot = next(i for i, ln in enumerate(lines) if ln.startswith("bootstrap c0=5,"))
    cells = lines[boot].split(",")
    cells[1], cells[2] = "60", format(60 * 300 ** -0.2, ".9g")
    off_grid = "\n".join(lines[:boot] + [",".join(cells)] + lines[boot + 1:])
    assert any("outside its grid" in p for p in checks.check_table(off_grid, expect))

    cells = lines[boot].split(",")
    cells[2] = format(float(cells[2]) * 1.01, ".9g")
    wrong_h = "\n".join(lines[:boot] + [",".join(cells)] + lines[boot + 1:])
    assert any("h != c n^-1/5" in p for p in checks.check_table(wrong_h, expect))

    assert checks.check_table(text, {**expect, "seed": 4})


def test_tracer_wraps_lookups_and_restores_them():
    original = bandwidth._SMLE_EVAL["F"]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert bandwidth._SMLE_EVAL["F"] is not original
        with tracer.span(tracing.ROOT):
            cli.main(["reproduce-table1", "--method", "smle", "--n", "200", "--m", "50", "--B", "2",
                      "--c0-set", "5", "--seed", "1", "--output", "-"])
    assert bandwidth._SMLE_EVAL["F"] is original
    summary = tracing.summarize(tracer.spans)
    assert summary[tracing.REPLICATE]["calls"] == 2 * 2 + 4 * 2
    assert summary["estimators.smle_F"]["calls"] > 60
    # replicate bodies on pool threads hang under their replicate_map span
    for name, _s, _e, _tid, parent in tracer.spans:
        if name == tracing.REPLICATE:
            assert tracer.spans[parent][0] == tracing.REPLICATE_MAP
    root = summary[tracing.ROOT]
    assert 0.0 < root["self_s"] < root["total_s"]


def test_self_time_and_group_time():
    spans = [
        ["a", 0.0, 10.0, 1, None],
        ["b", 1.0, 4.0, 1, 0],
        ["b", 3.0, 6.0, 2, 0],  # overlaps its sibling on another thread
        ["c", 4.0, 5.0, 2, 2],
    ]
    summary = tracing.summarize(spans)
    assert summary["a"]["self_s"] == pytest.approx(5.0)
    assert summary["b"]["total_s"] == pytest.approx(6.0)
    assert tracing.group_time(spans, {"b", "c"}) == (pytest.approx(6.0), 2)
