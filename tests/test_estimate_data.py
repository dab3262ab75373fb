"""Properties of ``estimate`` and ``bandwidth`` on generated data files.

The flag fuzzes in ``test_cli.py`` draw flags over one fixed input; here
the input itself is drawn: small files with ties, integer times, two
far-apart clusters, times near 1e-6 or 1e6, and indicators that are all
0, all 1, random or a threshold in t.  Every run must end in exit 0, 2
or 3 with only error and warning lines on stderr, and repeat its bytes;
every file it writes must hold the estimators' shape properties, or the
selection's.  The table behind ``estimate`` is also called directly, with
no file, on the same drawn data.
"""

import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curstat import cli
from curstat.bandwidth import bootstrap_bandwidth, rate_exponent
from curstat.cli import _fmt, main
from curstat.errors import CurstatError, DomainError
from curstat.estimators import _EVAL, F_CEILING, G_FLOOR, _estimate_table, _Fits, fit_msle
from curstat.kernels import triweight
from curstat.mle import build_sample, fit_mle
from curstat.smoothing import fit_smoothed

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
def _data(draw):
    """The times and indicators of one data file."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = _draw_times(draw(st.sampled_from(_TIMES)), rng, n)
    return t, _draw_indicators(draw(st.sampled_from(_INDICATORS)), rng, t)


@st.composite
def _requests(draw):
    """One data file and one ``estimate`` request on it."""
    t, d = draw(_data())
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


@st.composite
def _selections(draw):
    """One data file and one ``bandwidth`` request on it, its constants
    on the scale of the times."""
    t, d = draw(_data())
    scale = max(float(t.max()), 1.0) / 10.0
    c_min = scale * draw(st.floats(0.5, 30.0))
    flags = {
        "method": draw(st.sampled_from(["msle", "smle"])),
        "target": draw(st.sampled_from(cli._TARGETS)),
        "t": float(t.max()) * draw(st.floats(0.0, 1.2)),
        "m": draw(st.integers(1, 40)),
        "B": draw(st.integers(1, 3)),
        "c0": scale * draw(st.floats(0.5, 30.0)),
        "c-min": c_min,
        "c-max": c_min * draw(st.sampled_from([1.0, 1.5, 10.0, 100.0])),
        "c-points": draw(st.integers(1, 8)),
    }
    return t, d, flags


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


@settings(max_examples=200)
@given(req=_selections())
def test_bandwidth_on_drawn_data_keeps_its_properties(tmp_path_factory, req):
    t, d, flags = req
    base = tmp_path_factory.getbasetemp()
    path = base / "selection-props.csv"
    path.write_text("t,delta\n" + "".join(f"{a!r},{int(b)}\n" for a, b in zip(t.tolist(), d)))
    argv = ["bandwidth", "--input", str(path)] + [f"--{k}={v}" for k, v in flags.items()]
    selections = []

    def spy(*args):
        selections.append(bootstrap_bandwidth(*args))
        return selections[-1]

    out = base / "selection-props.out"
    with mock.patch.object(cli, "bootstrap_bandwidth", spy):
        first = _run(argv, out)
        assert _run(argv, out) == first
    rc, stderr, written = first
    assert rc in (0, 2, 3)
    lines = stderr.splitlines()
    for line in lines:
        assert line.startswith(("input error: ", "domain error: ", "warning: ")), line
    if written is None:
        return
    got = json.loads(written)
    sel = selections[0]
    curve = np.array(got["curve"])
    assert curve.shape == (flags["c-points"], 2)
    assert np.all(curve[:, 1] >= 0.0)
    assert curve[0, 0] <= got["c_hat"] <= curve[-1, 0]
    # the warning line is the at_edge flag, and names the grid end selected
    warned = [line for line in lines if line.startswith("warning: bandwidth: selected c = ")]
    assert len(warned) == sel.at_edge
    if sel.at_edge:
        assert got["c_hat"] in (curve[0, 0], curve[-1, 0])
        assert warned[0].startswith(f"warning: bandwidth: selected c = {_fmt(got['c_hat'])} is the ")
    n = build_sample(np.column_stack([t, d])).n
    assert got["c_hat"] == float(_fmt(sel.c_hat))
    assert got["h_hat"] == float(_fmt(sel.c_hat * n ** -rate_exponent(flags["target"])))


_COLUMNS = [(m, t) for m in cli._METHODS for t in cli._TARGETS if m != "mle" or t == "F"]


@st.composite
def _tables(draw):
    """A drawn sample, columns, bandwidths and grid size for the table."""
    t, d = draw(_data())
    columns = draw(st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=5, unique=True))
    # one or two bandwidths on the scale of the times, shared by the
    # columns; the small ones leave holes in the smoothed density
    hs = draw(st.lists(st.floats(-2.5, 0.5), min_size=1, max_size=2))
    scale = max(float(t.max()), 1.0)
    col_h = {c: scale * 10.0 ** draw(st.sampled_from(hs)) for c in columns if c[0] != "mle"}
    return build_sample(np.column_stack([t, d])), columns, col_h, draw(st.integers(2, 60))


def _evaluator_args(sample, columns, col_h):
    """Each column's evaluator arguments, fitted afresh in the table's
    order: the MLE first, then each column's smoothing and hull."""
    mle = fit_mle(sample) if any(m in ("mle", "smle") for m, _ in columns) else None
    sm, args = {}, []
    for family, target in columns:
        h = col_h.get((family, target))
        if family in ("naive", "msle") and h not in sm:
            sm[h] = fit_smoothed(sample, triweight(), h)
        if family == "msle":
            args.append((fit_msle(sm[h]),))
        else:
            args.append({"mle": (mle,), "naive": (sm.get(h),), "smle": (mle, triweight(), h)}[family])
    return args, sm


def _case(times, deltas, col_h, points):
    sample = build_sample(np.column_stack([times, deltas]).astype(float))
    return sample, list(col_h), {c: h for c, h in col_h.items() if h}, points


# the naive density vanishes before the first cluster and its F reaches 1
# between the clusters: a floor and a ceiling message inside the grid
_GUARDS_TRIP = _case(
    [1.0, 1.1, 1.2, 3.0, 3.1, 3.2, 5.0, 5.1, 5.2, 6.0],
    [0, 0, 0, 1, 1, 1, 0, 0, 0, 1],
    {("naive", "lambda"): 0.5, ("mle", "F"): None, ("msle", "f"): 0.5, ("smle", "lambda"): 0.8},
    101,
)


@settings(max_examples=150)
@given(case=_tables())
@example(case=_GUARDS_TRIP)
def test_estimate_table_trims_and_guards_by_its_rules(case):
    sample, columns, col_h, points = case
    full = np.linspace(0.0, float(sample.times[-1]) + max(col_h.values(), default=0.0), points)
    try:
        args, sm = _evaluator_args(sample, columns, col_h)
    except CurstatError as exc:
        with pytest.raises(type(exc)):
            _estimate_table(sample, triweight(), columns, col_h, points)
        return
    # the density floor of a naive column, and the hazard ceiling of a
    # lambda column where its floor holds, node by node
    floors, safes = [], []
    for (family, target), a in zip(columns, args):
        floor = np.ones(points, dtype=bool)
        if family == "naive":
            floor = np.array([sm[col_h[(family, target)]].eval("g", float(x)) > G_FLOOR for x in full])
        safe = floor.copy()
        if target == "lambda":
            F = np.asarray(_EVAL[family]["F"](*a, full[floor]))
            safe[floor] = 1.0 - F > F_CEILING
        floors.append(floor)
        safes.append(safe)
    kept = np.flatnonzero(np.logical_and.reduce(safes))
    if kept.size == 0:
        with pytest.raises(DomainError, match="no grid node clears"):
            _estimate_table(sample, triweight(), columns, col_h, points)
        return
    end = kept[-1] + 1
    # each column read on its safe nodes in one call, as the smle array
    # route's last bits depend on the rows of its product
    want = []
    for (family, target), a, safe in zip(columns, args, safes):
        try:
            want.append(np.asarray(_EVAL[family][target](*a, full[:end][safe[:end]])))
        except CurstatError as exc:
            with pytest.raises(type(exc)):
                _estimate_table(sample, triweight(), columns, col_h, points)
            return

    grid, values, messages = _estimate_table(sample, triweight(), columns, col_h, points)
    assert grid.tobytes() == full[:end].tobytes()
    expected = []
    for (family, target), floor, safe, col, cells in zip(columns, floors, safes, values, want):
        name = f"{family}_{target}"
        if family == "naive" or target == "lambda":
            assert safe[end - 1], name
        floor, safe = floor[:end], safe[:end]
        if not floor.all():
            expected.append(
                f"{name}: smoothed density is at or below the floor 1e-08 "
                f"at t = {_fmt(grid[~floor][0])}; cells written as nan"
            )
        if not safe[floor].all():
            expected.append(
                f"{name}: 1 - F is at or below the hazard ceiling 1e-06 "
                f"from t = {_fmt(grid[floor & ~safe][0])}; cells written as nan"
            )
        named = any(m.startswith(name + ": ") for m in messages)
        assert np.isnan(col).any() == named, name
        assert np.array_equal(np.isnan(col), ~safe), name
        assert col[safe].tobytes() == cells.tobytes(), name
    assert messages == expected
