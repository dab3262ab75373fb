"""Properties of ``estimate`` on generated data files.

The flag fuzzes in ``test_cli.py`` draw flags over one fixed input; here
the input itself is drawn: small files with ties, integer times, two
far-apart clusters, times near 1e-6 or 1e6, and indicators that are all
0, all 1, random or a threshold in t.  Every run must end in exit 0, 2
or 3 with only error and warning lines on stderr, and repeat its bytes;
every file it writes must hold the estimators' shape properties.
"""

import contextlib
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curstat import cli
from curstat.bandwidth import rate_exponent
from curstat.cli import _fmt, main
from curstat.estimators import _EVAL, _Fits
from curstat.kernels import triweight
from curstat.mle import build_sample

_TIMES = ("uniform", "ties", "integers", "clusters", "tiny", "huge")
_INDICATORS = ("zeros", "ones", "random", "threshold")


def _draw_times(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if kind == "ties":
        return rng.choice(rng.uniform(0.0, 10.0, int(rng.integers(1, 6))), n)
    if kind == "integers":
        return rng.integers(0, 13, n).astype(float)
    if kind == "clusters":
        return np.where(rng.random(n) < 0.5, 1.0, 1000.0) + rng.uniform(0.0, 1.0, n)
    if kind == "tiny":
        return rng.uniform(0.0, 3e-6, n)
    if kind == "huge":
        return rng.uniform(0.5e6, 1.5e6, n)
    return rng.uniform(0.0, 10.0, n)


def _draw_indicators(kind: str, rng: np.random.Generator, t: np.ndarray) -> np.ndarray:
    if kind == "zeros":
        return np.zeros(t.size)
    if kind == "ones":
        return np.ones(t.size)
    if kind == "threshold":
        return (t > rng.choice(t)).astype(float)
    return (rng.random(t.size) < rng.uniform(0.1, 0.9)).astype(float)


@st.composite
def _requests(draw):
    """One data file and one ``estimate`` request on it."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = _draw_times(draw(st.sampled_from(_TIMES)), rng, n)
    d = _draw_indicators(draw(st.sampled_from(_INDICATORS)), rng, t)
    methods = draw(st.lists(st.sampled_from(cli._METHODS), min_size=1, max_size=4, unique=True))
    targets = draw(st.lists(st.sampled_from(cli._TARGETS), min_size=1, max_size=3, unique=True))
    if "mle" in methods and targets != ["F"]:
        # mle has only target F, and that request is refused up front
        methods.remove("mle")
        if not methods:
            methods, targets = ["mle"], ["F"]
    width = draw(st.sampled_from(["h", "c"]))
    if methods == ["mle"]:
        # a bandwidth flag without a smoothing column is refused up front
        width = value = None
    elif width == "h":
        # a bandwidth on the scale of the times, so large times get a grid
        value = max(float(t.max()), 1.0) * draw(st.floats(0.05, 3.0))
    else:
        value = draw(st.floats(0.5, 30.0))
    return {
        "t": t,
        "d": d,
        "methods": methods,
        "targets": targets,
        "width": (width, value),
        "grid_points": draw(st.integers(2, 120)),
    }


def _run(argv: list, out) -> tuple:
    """Exit code, stderr and output bytes of one run."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv + ["--output", str(out)])
    return rc, err.getvalue(), out.read_bytes() if out.exists() else None


def _column_h(width: tuple, target: str, n: int) -> float:
    flag, value = width
    return value if flag == "h" else value * n ** -rate_exponent(target)


def _in_order(method: str, fits: _Fits, at: np.ndarray) -> np.ndarray:
    """Where ``0 <= g1 <= g`` holds: at the points ``at`` for a naive
    column, at every active grid node for an msle column.  There the ratio
    ``g1 / g`` and its pooled means lie in [0, 1]."""
    sm = fits.sm
    if method == "naive":
        g1, g = sm.eval("g1", at), sm.eval("g", at)
        return (g1 >= 0.0) & (g1 <= g)
    active = sm.g * sm.spacing > 0.0
    g1, g = sm.g1[active], sm.g[active]
    return np.full(at.shape, np.all((g1 >= 0.0) & (g1 <= g)))


def _check_file(req: dict, text: str, stderr: str) -> None:
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    table = np.array([[float(v) for v in row.split(",")] for row in body[1:]]).reshape(-1, len(header))
    cols = dict(zip(header, table.T))
    named = {line.split(": ")[1] for line in stderr.splitlines() if line.startswith("domain error: ")}

    sample = build_sample(np.column_stack([req["t"], req["d"]]))
    col_h = {
        name: _column_h(req["width"], name.split("_")[1], sample.n)
        for name in header[1:]
        if not name.startswith("mle_")
    }
    for name, h in col_h.items():
        method, target = name.split("_")
        assert f"# h[{method},{target}] = {_fmt(h)}" in lines, name
    h_max = max(col_h.values(), default=0.0)
    grid = np.linspace(0.0, float(sample.times[-1]) + h_max, req["grid_points"])[: table.shape[0]]
    assert [_fmt(v) for v in grid] == [row.split(",")[0] for row in body[1:]]
    fits = {}

    for name, col in cols.items():
        if name == "t":
            continue
        nan = np.isnan(col)
        assert not nan.any() or name in named, name
        col, at = col[~nan], grid[~nan]
        method, target = name.split("_")
        if method != "mle":
            fit = fits.setdefault(col_h[name], _Fits(sample, triweight(), col_h[name]))
        if target == "F":
            inside = (col >= 0.0) & (col <= 1.0)
            if method in ("naive", "msle"):
                # a boundary kernel can make g1 negative near t = 0, where
                # these two leave [0, 1]
                inside |= ~_in_order(method, fit, at)
            assert np.all(inside), name
        if name in ("mle_F", "msle_F"):
            assert np.all(np.diff(col) >= 0.0), name
        if name == "smle_F":
            assert np.all(np.diff(col) >= -1e-12), name
        if name == "smle_f":
            assert np.all(col >= 0.0), name
        if target == "lambda":
            # the composition, from the family's own F and f at full precision
            F = np.asarray(_EVAL[method]["F"](*fit.args(method), at))
            f = np.asarray(_EVAL[method]["f"](*fit.args(method), at))
            exact = f / (1.0 - F)
            both = np.isfinite(col) & np.isfinite(exact)
            err = np.abs(col[both] - exact[both])
            assert np.all(err <= 1e-8 * np.abs(exact[both]) + 1e-300), name


@settings(max_examples=200)
@given(req=_requests())
def test_estimate_on_drawn_data_keeps_its_properties(tmp_path_factory, req):
    base = tmp_path_factory.getbasetemp()
    path = base / "data-props.csv"
    rows = "".join(f"{t!r},{int(d)}\n" for t, d in zip(req["t"].tolist(), req["d"]))
    path.write_text("t,delta\n" + rows, encoding="utf-8")
    flag, value = req["width"]
    argv = [
        "estimate", "--input", str(path),
        "--method", ",".join(req["methods"]), "--target", ",".join(req["targets"]),
        "--grid-points", str(req["grid_points"]),
    ] + ([f"--{flag}={value!r}"] if flag else [])
    out = base / "data-props.out"
    first = _run(argv, out)
    assert _run(argv, out) == first
    rc, stderr, written = first
    assert rc in (0, 2, 3)
    for line in stderr.splitlines():
        assert line.startswith(("input error: ", "domain error: ", "warning: ")), line
    if written is not None:
        _check_file(req, written.decode("utf-8"), stderr)
