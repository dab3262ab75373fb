"""The package's public surface and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import curstat
from curstat import bandwidth, errors, estimators, kernels, mle, sim, smoothing

MODULES = (errors, kernels, mle, smoothing, estimators, bandwidth, sim)


def test_package_all_is_the_modules_lists():
    assert curstat.__all__ == ["__version__"] + [n for mod in MODULES for n in mod.__all__]
    assert len(set(curstat.__all__)) == len(curstat.__all__)
    assert isinstance(curstat.__version__, str)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(curstat, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports curstat from src/."""
    src = str(Path(curstat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_run_without_scipy_optimize(tmp_path):
    # the PAVA solver is loaded from its extension file, so none of the four
    # commands pays for importing scipy.optimize and scipy.linalg
    code = f"""
import os, sys
import curstat
from curstat.cli import main
from curstat.sim import sample_current_status, truth_gamma4_exp3

gen = sample_current_status(truth_gamma4_exp3(), 80, 3)
inp = os.path.join({str(tmp_path)!r}, "obs.csv")
with open(inp, "w") as f:
    f.write("t,delta\\n")
    f.writelines(f"{{t}},{{int(d)}}\\n" for t, d in zip(gen.raw_times, gen.raw_deltas))
out = os.path.join({str(tmp_path)!r}, "out.csv")
runs = [
    ["estimate", "--input", inp, "--method", "mle,msle,smle", "--target", "F", "--h", "2"],
    ["bandwidth", "--input", inp, "--method", "msle", "--t", "4", "--m", "40", "--B", "2",
     "--c0", "10", "--c-min", "2", "--c-max", "20", "--c-points", "5"],
    ["simulate", "--method", "msle", "--n", "60", "--B", "2", "--t", "4", "--h", "2"],
    ["reproduce-table1", "--method", "smle", "--n", "100", "--m", "40", "--B", "2",
     "--c0-set", "15"],
]
for argv in runs:
    assert main(argv + ["--output", out]) == 0, argv
heavy = (["scipy", "optimize"], ["scipy", "linalg"])
print(sorted(m for m in sys.modules if m.split(".")[:2] in heavy))
"""
    assert _run_fresh(code).strip() == "[]"


def test_scipy_optimize_imported_after_curstat_agrees():
    code = """
import numpy as np
from curstat.mle import _isotonic, pava_blocks

rng = np.random.default_rng(5)
cases = [(rng.normal(size=n), rng.uniform(0.1, 3.0, size=n)) for n in (1, 3, 40, 500)]
before = [(_isotonic(y, w), pava_blocks(y, w)) for y, w in cases]
from scipy.optimize import isotonic_regression

for (y, w), ((x, blocks), (fitted, sizes)) in zip(cases, before):
    want = isotonic_regression(y, weights=w)
    assert x.tobytes() == want.x.tobytes() and blocks.tolist() == want.blocks.tolist()
    x2, blocks2 = _isotonic(y, w)
    assert x2.tobytes() == x.tobytes() and blocks2.tolist() == blocks.tolist()
    fitted2, sizes2 = pava_blocks(y, w)
    assert fitted2.tobytes() == fitted.tobytes() and sizes2.tolist() == sizes.tolist()
print("ok")
"""
    assert _run_fresh(code).strip() == "ok"
