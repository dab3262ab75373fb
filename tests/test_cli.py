"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curstat import cli
from curstat.cli import _fmt, main, read_observations
from curstat.errors import InputError
from curstat.estimators import naive_F, naive_f, smle_F, smle_f
from curstat.kernels import triweight
from curstat.mle import build_sample, fit_mle
from curstat.sim import sample_current_status, truth_gamma4_exp3
from curstat.smoothing import fit_smoothed
from oracles import ScaledKernel, read_observations_loop

KERNEL = triweight()
TRUTH = truth_gamma4_exp3()


def _write_csv(path, times, deltas, extra_lines=()):
    lines = ["# test fixture", "t,delta"]
    lines += [f"{t},{int(d)}" for t, d in zip(times, deltas)]
    lines += list(extra_lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _sample_csv(path, n=120, seed=5):
    gen = sample_current_status(TRUTH, n, seed)
    return _write_csv(path, gen.raw_times, gen.raw_deltas)


def _parse_output(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return header, rows


def test_read_observations_roundtrip(tmp_path):
    p = tmp_path / "obs.csv"
    _write_csv(p, [2.0, 1.0, 1.0], [1, 0, 1])
    arr = read_observations(str(p))
    np.testing.assert_array_equal(arr, [[2.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


def test_read_observations_error_messages(tmp_path):
    from curstat.errors import InputError

    p = tmp_path / "bad.csv"
    p.write_text("time,status\n1,1\n")
    with pytest.raises(InputError, match="bad.csv:1"):
        read_observations(str(p))
    p.write_text("t,delta\n1.0,1\nx,0\n")
    with pytest.raises(InputError, match="bad.csv:3"):
        read_observations(str(p))
    p.write_text("t,delta\n1.0,2\n")
    with pytest.raises(InputError, match="delta must be 0 or 1"):
        read_observations(str(p))
    p.write_text("t,delta\n-1.0,1\n")
    with pytest.raises(InputError, match="must be >= 0"):
        read_observations(str(p))
    p.write_text("t,delta\n")
    with pytest.raises(InputError, match="no data rows"):
        read_observations(str(p))


# Observation files built from what the reader must treat exactly as the
# per-line loop does: float syntax that np.loadtxt lacks (1_0, Arabic-Indic
# digits), values it parses but the checks refuse (nan, inf, 1e400, 2),
# fields it refuses (empty, NUL, inline #, BOM), 1- and 3-field rows, -0
# (kept as -0.0), and the other line breaks str.splitlines splits on.
# Most rows are good, so many files parse and the odd rows land at every
# position.
_T_OK = st.sampled_from(["0", "1", "0.0", "-0", "+1", ".5", "1.", "3.25", "1e-3", " 4 ", "\t2"])
_DELTA_OK = st.sampled_from(["0", "1", "1.0", "0.0", "-0", "+1", "1.", " 1 ", "1e0"])
_NUMBER_BAD = st.sampled_from(["2", "-1", "-0.5", "nan", "-nan", "inf", "-inf", "Infinity", "1e400"])
_ODD = st.sampled_from([
    "1_0", "\u0661", "1\u00a0", "", " ", "x", "1#", "0 #c",
    "\x00", "1\x00", "\ufeff1", "0x1", "1 2", "'1'",
])
_SKIPPED = st.sampled_from(["", "   ", "# comment", "  # indented comment", "#"])
_GOOD = st.one_of(st.tuples(_T_OK, _DELTA_OK).map(",".join), _SKIPPED)
_BAD = st.one_of(
    st.tuples(st.one_of(_T_OK, _NUMBER_BAD), st.one_of(_DELTA_OK, _NUMBER_BAD)).map(",".join),
    st.tuples(st.one_of(_T_OK, _ODD), st.one_of(_DELTA_OK, _ODD)).map(",".join),
    st.tuples(_T_OK, _ODD).map(" , ".join),
    st.lists(st.one_of(_T_OK, _ODD), min_size=1, max_size=3).map(",".join),
)
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028"])
_HEADERS = st.sampled_from(["t,delta"] * 8 + [
    " t , delta ", "t,delta,", "T,delta", "t;delta", "delta,t", "\ufefft,delta",
    "t,delta,x", "t", "# t,delta", "1,0",
])


@st.composite
def _observation_text(draw):
    lines = draw(st.lists(_SKIPPED, max_size=2)) + [draw(_HEADERS)]
    rows = draw(st.lists(_GOOD, max_size=12))
    for bad in draw(st.lists(_BAD, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), bad)
    text = "".join(line + draw(_BREAKS) for line in lines + rows)
    return draw(st.sampled_from([""] * 7 + ["\ufeff"])) + text


def _read_outcome(reader, path):
    try:
        arr = reader(path)
    except InputError as exc:
        return "error", str(exc)
    return "array", arr.shape, arr.dtype.str, arr.tobytes()


@settings(max_examples=600)
@given(text=_observation_text())
@example(text="t,delta\n1,2\n1,0,1\n")  # bad delta before a 3-field row
@example(text="t,delta\n-1,0\nx,1\n")  # bad t before a non-numeric row
@example(text="t,delta\n0,1\n1_0,2\n\u0661,1,\n")  # float-only syntax, then bad delta
@example(text="t,delta\n-1,2\n")  # bad t and bad delta on one row: t first
@example(text="t,delta\nnan,1\n1,nan\n")
@example(text="t,delta\n1,0 # inline\n")
@example(text="t,delta\n-0,-0\n1e400,1\n")
@example(text="t,delta\r\n1,1\r2,0\x0c3,1\x1c")
# the edges of the clean-file route
@example(text="t,delta\n")  # header, no rows
@example(text="t,delta\n1,1\n0.5,0")  # no trailing newline
@example(text="t,delta\n1,1\n\n2,0\n")  # inner blank line
@example(text="t,delta\n1,1\n\n2,0\n3,2\n")  # ... and a bad row after it
@example(text="t,delta\n\n1,1\n")  # blank line after the header
@example(text="t,delta\r\n1,1\r\n2,0\r\n")  # CRLF
@example(text="t,delta\n1,1\n 2,0\n")  # space before a field
@example(text="t,delta\n1,1\n1e400,1\n")
@example(text="t,delta\n-0,0\n")
@example(text="t,delta\n1.0,1.0\n")
@example(text="t,delta\n1,1\n2,0,1\n")  # three fields, all in the clean alphabet
def test_reader_matches_per_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _read_outcome(read_observations_loop, str(path))
    assert _read_outcome(read_observations, str(path)) == want


def test_reader_takes_the_array_route_on_clean_files(tmp_path, monkeypatch):
    def no_loop(*args):
        raise AssertionError("per-line loop used on a clean file")

    monkeypatch.setattr(cli, "_parse_rows", no_loop)
    p = tmp_path / "obs.csv"
    _write_csv(p, [2.5, 0.0, 1e-300], [1, 0, 1], extra_lines=["", "# tail"])
    np.testing.assert_array_equal(
        read_observations(str(p)), [[2.5, 1.0], [0.0, 0.0], [1e-300, 1.0]]
    )


def test_reader_skips_the_general_filter_on_clean_files(tmp_path, monkeypatch):
    def no_filter(*args):
        raise AssertionError("general filter used on a clean file")

    monkeypatch.setattr(cli, "_filtered_rows", no_filter)
    p = tmp_path / "obs.csv"
    p.write_text("t,delta\n2.5,1\n0,0\n1e-300,1\n", encoding="utf-8")
    np.testing.assert_array_equal(
        read_observations(str(p)), [[2.5, 1.0], [0.0, 0.0], [1e-300, 1.0]]
    )
    p.write_text("t,delta\n2.5,1\n0,2\n", encoding="utf-8")
    with pytest.raises(InputError, match="obs.csv:3: delta must be 0 or 1"):
        read_observations(str(p))


def test_invalid_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"t,delta\n1.0,1\n\xff\xfe,0\n")
    assert main(["estimate", "--input", str(p), "--method", "mle", "--target", "F"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot read {p}: 'utf-8' codec can't decode")
    assert "Traceback" not in err


_CSV_BYTES = st.one_of(
    st.binary(max_size=120),
    _observation_text().map(lambda text: text.encode("utf-8")),
    st.lists(
        st.tuples(st.floats(0.0, 12.0), st.integers(0, 1)), min_size=3, max_size=40
    ).map(lambda rows: ("t,delta\n" + "".join(f"{t!r},{d}\n" for t, d in rows)).encode()),
)


@settings(max_examples=150)
@given(data=_CSV_BYTES)
@example(data=b"t,delta\n1,1\n")  # one row
@example(data=b"t,delta\n0,0\n0,1\n")  # every time 0
@example(data=b"t,delta\n3,1\n3,1\n3,1\n")  # one distinct time, all events
@example(data=b"t,delta\n\xff\xfe,1\n")
def test_cli_never_ends_in_a_traceback(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "cli-fuzz.csv"
    path.write_bytes(data)
    inp = str(path)
    out = str(tmp_path_factory.getbasetemp() / "cli-fuzz.out")
    assert main([
        "estimate", "--input", inp, "--method", "mle", "--target", "F", "--output", out,
    ]) in (0, 2, 3)
    assert main([
        "bandwidth", "--input", inp, "--t", "4", "--m", "3", "--B", "1", "--c0", "10",
        "--c-min", "2", "--c-max", "20", "--c-points", "3", "--output", out,
    ]) in (0, 2, 3)


def test_estimate_mle_three_point_case(tmp_path):
    inp = _write_csv(tmp_path / "toy.csv", [1.0, 2.0, 3.0], [1, 0, 1])
    out = tmp_path / "out.csv"
    assert main(["estimate", "--input", inp, "--output", str(out)]) == 0
    header, rows = _parse_output(out)
    assert header == ["t", "mle_F"]
    fit = fit_mle(build_sample(np.array([[1.0, 1], [2.0, 0], [3.0, 1]])))
    ts = np.array([float(r[0]) for r in rows])
    assert ts[0] == 0.0 and ts[-1] == 3.0 and ts.size == 401
    for r in rows:
        assert r[1] == _fmt(fit.cdf(float(r[0])))
    # the known fitted values appear
    assert _fmt(fit.cdf(1.0)) == _fmt(0.5)
    assert _fmt(fit.cdf(3.0)) == _fmt(1.0)


def test_estimate_smle_all_events_is_shifted_kernel(tmp_path):
    times = [2.0, 3.0, 4.5]
    inp = _write_csv(tmp_path / "all1.csv", times, [1, 1, 1])
    out = tmp_path / "out.csv"
    rc = main([
        "estimate", "--input", inp, "--method", "smle",
        "--target", "F", "--h", "1.0", "--output", str(out),
    ])
    assert rc == 0
    header, rows = _parse_output(out)
    sk = ScaledKernel(KERNEL, 1.0)
    for r in rows:
        t = float(r[0])
        assert r[1] == _fmt(sk.K_h(t - 2.0))
    assert rows[-1][1] == _fmt(1.0)
    assert float(rows[-1][0]) == 5.5


def test_estimate_roundtrip_matches_library(tmp_path):
    # dense deterministic design, so the ratio columns stay clear of
    # the density floor except in the trimmed tail
    rng = np.random.default_rng(5)
    times = np.linspace(0.1, 7.0, 120)
    deltas = (rng.random(120) < np.asarray(TRUTH.F0(times))).astype(int)
    inp = _write_csv(tmp_path / "obs.csv", times, deltas)
    out = tmp_path / "out.csv"
    rc = main([
        "estimate", "--input", inp, "--method", "naive,smle,msle",
        "--target", "F,f", "--h", "1.2", "--output", str(out),
        "--grid-points", "101",
    ])
    assert rc == 0
    header, rows = _parse_output(out)
    assert header == [
        "t", "naive_F", "naive_f", "smle_F", "smle_f", "msle_F", "msle_f",
    ]
    sample = build_sample(read_observations(inp))
    sm = fit_smoothed(sample, KERNEL, 1.2)
    mle = fit_mle(sample)
    # rebuild the command's own grid; parsed-back t carries only the
    # formatter's nine digits
    full = np.linspace(0.0, float(sample.times[-1]) + 1.2, 101)
    grid = full[: len(rows)]
    want_sF = np.asarray(smle_F(mle, KERNEL, 1.2, grid))
    want_sf = np.asarray(smle_f(mle, KERNEL, 1.2, grid))
    for i, r in enumerate(rows):
        t = grid[i]
        assert r[0] == _fmt(t)
        if r[1] != "nan":
            assert r[1] == _fmt(naive_F(sm, t))
            assert r[2] == _fmt(naive_f(sm, t))
        assert r[3] == _fmt(want_sF[i])
        assert r[4] == _fmt(want_sf[i])


@pytest.mark.parametrize(
    "flags, fits",
    [
        (["--method", "naive,msle", "--target", "F,f", "--h", "0.5"], 0),
        (["--method", "mle,smle", "--target", "F", "--c", "6.467"], 1),
        # two bandwidths, one for each target's rate, share the one MLE
        (["--method", "smle", "--target", "F,f", "--c", "6.467"], 1),
    ],
)
def test_estimate_fits_the_mle_only_for_columns_that_read_it(tmp_path, monkeypatch, flags, fits):
    from curstat import estimators

    calls = []

    def counted(sample):
        calls.append(sample.n)
        return fit_mle(sample)

    monkeypatch.setattr(estimators, "fit_mle", counted)
    monkeypatch.setattr(cli, "fit_mle", counted)
    inp = _sample_csv(tmp_path / "obs.csv", n=400)
    out = tmp_path / "out.csv"
    assert main(["estimate", "--input", inp, "--output", str(out)] + flags) in (0, 3)
    assert out.exists()
    assert len(calls) == fits


def test_estimate_trims_tail_for_ratio_targets(tmp_path):
    # T_max + h is an exact multiple of the tabulation spacing h/32, so
    # the smoothed density is exactly zero at the grid end and the
    # ratio column must stop strictly earlier
    rng = np.random.default_rng(3)
    times = np.linspace(0.1, 7.0, 120)
    deltas = (rng.random(120) < np.asarray(TRUTH.F0(times))).astype(int)
    inp = _write_csv(tmp_path / "obs.csv", times, deltas)
    smle_out = tmp_path / "a.csv"
    naive_out = tmp_path / "b.csv"
    args = ["estimate", "--input", inp, "--h", "0.8", "--grid-points", "201"]
    assert main(args + ["--method", "smle", "--output", str(smle_out)]) == 0
    assert main(args + ["--method", "naive", "--target", "F",
                        "--output", str(naive_out)]) == 0
    _, smle_rows = _parse_output(smle_out)
    _, naive_rows = _parse_output(naive_out)
    assert float(smle_rows[-1][0]) == 7.8
    assert float(naive_rows[-1][0]) < 7.8
    assert all(r[1] != "nan" for r in naive_rows)


def test_estimate_interior_hole_writes_nan_and_exits_3(tmp_path, capsys):
    times = [1.0, 1.1, 1.2, 8.0, 8.1, 8.2]
    deltas = [0, 0, 1, 1, 1, 1]
    inp = _write_csv(tmp_path / "gap.csv", times, deltas)
    out = tmp_path / "out.csv"
    rc = main([
        "estimate", "--input", inp, "--method", "naive", "--target", "F",
        "--h", "0.5", "--output", str(out), "--grid-points", "301",
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "floor" in err
    _, rows = _parse_output(out)
    cells = [r[1] for r in rows]
    assert "nan" in cells
    finite = [c for c in cells if c != "nan"]
    assert finite


def test_estimate_guard_messages_floor_then_ceiling(tmp_path, capsys):
    # the naive pair's density vanishes before the first inspection and
    # its F reaches 1 between the clusters; the monotone families keep
    # 1 - F above the ceiling on the trimmed grid
    times = [1.0, 1.1, 1.2, 3.0, 3.1, 3.2, 5.0, 5.1, 5.2, 6.0]
    deltas = [0, 0, 0, 1, 1, 1, 0, 0, 0, 1]
    inp = _write_csv(tmp_path / "guards.csv", times, deltas)
    base = ["estimate", "--input", inp, "--target", "lambda", "--h", "0.5",
            "--grid-points", "101", "--output", str(tmp_path / "out.csv")]
    assert main(base + ["--method", "naive"]) == 3
    assert capsys.readouterr().err == (
        "domain error: naive_lambda: smoothed density is at or below the floor "
        "1e-08 at t = 0; cells written as nan\n"
        "domain error: naive_lambda: 1 - F is at or below the hazard ceiling "
        "1e-06 from t = 2.535; cells written as nan\n"
    )
    for method in ("msle", "smle"):
        assert main(base + ["--method", method]) == 0
        assert capsys.readouterr().err == ""


def test_estimate_flag_validation(tmp_path, capsys):
    inp = _write_csv(tmp_path / "toy.csv", [1.0, 2.0], [1, 0])
    base = ["estimate", "--input", inp, "--output", "-"]
    assert main(base + ["--method", "smle"]) == 2
    assert main(base + ["--method", "smle", "--h", "1", "--c", "5"]) == 2
    assert main(base + ["--method", "mle", "--h", "1"]) == 2
    assert main(base + ["--method", "mle", "--target", "f", "--h", "1"]) == 2
    assert main(base + ["--method", "smle", "--alpha", "0.2"]) == 2
    assert main(base + ["--method", "bogus"]) == 2
    assert main(base + ["--target", "F,cdf"]) == 2
    assert main(["estimate", "--input", str(tmp_path / "missing.csv")]) == 2
    capsys.readouterr()


def test_estimate_tiny_bandwidth_exits_2_before_allocating(tmp_path, capsys):
    # 8.1e9 grid nodes: the node ceiling rejects the bandwidth before any
    # array of that size is requested
    inp = _sample_csv(tmp_path / "obs.csv", n=200, seed=5)
    rc = main([
        "estimate", "--input", inp, "--method", "msle", "--target", "F",
        "--h", "1e-7", "--output", str(tmp_path / "out.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "grid nodes" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "command, flags, shown",
    [
        ("simulate", ["--c", "inf"], "inf"),
        ("estimate", ["--h", "inf"], "inf"),
        ("estimate", ["--c", "nan"], "nan"),
        ("estimate", ["--c", "5", "--alpha", "nan"], "nan"),
        # c n^-alpha beyond the float range
        ("estimate", ["--c", "1e308", "--alpha", "-1000"], "inf"),
        ("simulate", ["--c", "5", "--alpha", "-1000"], "inf"),
    ],
)
def test_smle_nonfinite_bandwidth_exits_2(tmp_path, capsys, command, flags, shown):
    out = tmp_path / "out.csv"
    if command == "simulate":
        argv = ["simulate", "--n", "50", "--B", "3", "--t", "4"]
    else:
        argv = ["estimate", "--input", _sample_csv(tmp_path / "obs.csv", n=100, seed=1)]
    argv += ["--method", "smle", "--target", "F", *flags, "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: bandwidth must be positive, got {shown}\n"
    assert not out.exists()


def test_estimate_huge_grid_points_exit_2_before_allocating(tmp_path, capsys):
    # 1e10 evaluation nodes would be 74.5 GiB per column
    inp = _sample_csv(tmp_path / "obs.csv", n=200, seed=5)
    rc = main([
        "estimate", "--input", inp, "--method", "smle", "--target", "F",
        "--h", "1", "--grid-points", "10000000000", "--output", str(tmp_path / "out.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --grid-points must be in [2, 1048576]")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--method", "smle", "--n", "1000000000000", "--B", "1", "--t", "4", "--h", "1"],
        ["reproduce-table1", "--n", "1000000000000", "--m", "10", "--B", "1"],
    ],
)
def test_huge_sample_size_exits_2_before_drawing(tmp_path, capsys, argv):
    # 1e12 simulated observations would be 29.1 TiB for one draw
    rc = main(argv + ["--output", str(tmp_path / "out.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "input error: --n must be at most 1048576, got 1000000000000\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--method", "smle", "--n", "50", "--t", "4", "--h", "1"],
        ["reproduce-table1", "--n", "80", "--m", "40"],
        ["bandwidth", "--t", "4", "--m", "50", "--c0", "10"],
        ["estimate", "--method", "smle", "--select-bootstrap", "--t", "4", "--m", "50", "--c0", "10"],
    ],
    ids=["simulate", "reproduce-table1", "bandwidth", "estimate"],
)
def test_huge_replicate_count_exits_2_before_drawing(tmp_path, capsys, argv):
    # each replicate keeps a row of the MSE curve, and the loop would not end
    if argv[0] in ("bandwidth", "estimate"):
        argv = argv[:1] + ["--input", _sample_csv(tmp_path / "obs.csv", n=150, seed=3)] + argv[1:]
    out = tmp_path / "out"
    assert main(argv + ["--B", "100000000000", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "input error: --B must be at most 65536, got 100000000000\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["bandwidth", "--c0", "inf"], 2, "input error: pilot constant must keep the c-grid end 10 c0 finite, got inf"),
        (["bandwidth", "--c-min", "1", "--c-max", "inf", "--c-points", "3"], 2,
         "input error: --c-max must be finite"),
        (["bandwidth", "--t", "nan"], 2, "input error: evaluation point must be finite, got nan"),
        (["reproduce-table1", "--n", "80", "--m", "40", "--B", "1", "--c0-set", "inf"], 2,
         "input error: pilot constant must keep the c-grid end 10 c0 finite, got inf"),
        (["simulate", "--method", "mle", "--t", "nan"], 3,
         "domain error: evaluation points must be finite and nonnegative"),
        (["simulate", "--method", "mle", "--t", "-1"], 3,
         "domain error: evaluation points must be finite and nonnegative"),
    ],
    ids=["c0-inf", "c-max-inf", "t-nan", "c0-set-inf", "mle-t-nan", "mle-t-negative"],
)
def test_nonfinite_constants_and_points_exit_with_one_line(tmp_path, capsys, argv, code, message):
    # flags given later override the defaults below; the c0 and c-grid
    # checks run before np.geomspace, so it warns of no inf
    if argv[0] == "bandwidth":
        inp = _sample_csv(tmp_path / "obs.csv", n=150, seed=3)
        argv = ["bandwidth", "--input", inp, "--t", "4", "--m", "50", "--B", "2", "--c0", "10"] + argv[1:]
    elif argv[0] == "simulate":
        argv = ["simulate", "--n", "50", "--B", "2", "--t", "4"] + argv[1:]
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == code
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_bandwidth_huge_c_points_exit_2_before_allocating(tmp_path, capsys):
    inp = _sample_csv(tmp_path / "obs.csv", n=150, seed=3)
    rc = main([
        "bandwidth", "--input", inp, "--t", "4", "--m", "80", "--B", "1",
        "--c0", "10", "--c-min", "1", "--c-max", "100", "--c-points", "10000000000",
        "--output", str(tmp_path / "sel.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --c-points must be in [1, 1048576]")
    assert not (tmp_path / "sel.json").exists()


def test_estimate_c_flag_uses_target_rate(tmp_path):
    inp = _sample_csv(tmp_path / "obs.csv", n=100, seed=2)
    out = tmp_path / "out.csv"
    rc = main([
        "estimate", "--input", inp, "--method", "smle", "--target", "F",
        "--c", "7.0", "--output", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert f"# h[smle,F] = {_fmt(7.0 * 100 ** -0.2)}" in text


def test_estimate_stdout(tmp_path, capsys):
    inp = _write_csv(tmp_path / "toy.csv", [1.0, 2.0, 3.0], [1, 0, 1])
    assert main(["estimate", "--input", inp]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# curstat estimate")
    assert "t,mle_F" in out


def test_bandwidth_singleton_grid_echoes_pair(tmp_path, capsys):
    inp = _sample_csv(tmp_path / "obs.csv", n=150, seed=3)
    out = tmp_path / "sel.json"
    rc = main([
        "bandwidth", "--input", inp, "--t", "4", "--m", "80", "--B", "1",
        "--c0", "10", "--c-min", "7", "--c-max", "7", "--c-points", "1",
        "--output", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["c_hat"] == 7.0
    assert len(payload["curve"]) == 1
    assert payload["curve"][0][0] == 7.0
    assert payload["h_hat"] == float(_fmt(7.0 * 150 ** -0.2))
    assert payload["n"] == 150 and payload["m"] == 80 and payload["B"] == 1
    # a one-constant grid is the caller's choice, not an edge selection
    assert capsys.readouterr().err == ""


def test_bandwidth_warns_when_selection_is_a_grid_end(tmp_path, capsys):
    # constants far above the optimum: oversmoothing bias makes the MSE
    # curve rise across the whole grid, so its argmin is the lower end
    inp = _sample_csv(tmp_path / "obs.csv", n=150, seed=3)
    out = tmp_path / "sel.json"
    rc = main([
        "bandwidth", "--input", inp, "--t", "4", "--m", "80", "--B", "4",
        "--c0", "10", "--c-min", "100", "--c-max", "400", "--c-points", "3",
        "--output", str(out),
    ])
    assert rc == 0
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 1
    assert warnings[0].startswith("warning: bandwidth: selected c = 100 is the lower end")
    payload = json.loads(out.read_text())
    assert payload["c_hat"] == 100.0
    assert "at_edge" not in payload


def test_bandwidth_deterministic_bytes(tmp_path):
    inp = _sample_csv(tmp_path / "obs.csv", n=150, seed=4)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main([
            "bandwidth", "--input", inp, "--t", "4", "--m", "100",
            "--B", "6", "--c0", "10", "--seed", "11",
            "--c-min", "4", "--c-max", "16", "--c-points", "5",
            "--output", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_bandwidth_missing_params_exit_2(tmp_path, capsys):
    inp = _write_csv(tmp_path / "toy.csv", [1.0, 2.0], [1, 0])
    assert main(["bandwidth", "--input", inp, "--t", "1"]) == 2
    err = capsys.readouterr().err
    assert "--m" in err and "--B" in err and "--c0" in err


def test_bandwidth_pilot_degenerate_exit_3(tmp_path, capsys):
    inp = _write_csv(tmp_path / "flat.csv", np.linspace(1, 9, 40), [0] * 40)
    rc = main([
        "bandwidth", "--input", inp, "--t", "4", "--m", "20", "--B", "2",
        "--c0", "10", "--output", "-",
    ])
    assert rc == 3
    assert "domain error" in capsys.readouterr().err


def test_simulate_single_replicate_summary(tmp_path):
    out = tmp_path / "sim.csv"
    rc = main([
        "simulate", "--n", "60", "--B", "1", "--t", "4", "--method", "smle",
        "--target", "F", "--c", "6.467", "--seed", "8", "--output", str(out),
    ])
    assert rc == 0
    header, rows = _parse_output(out)
    assert header == ["replicate", "value", "mean", "sd", "norm_mean", "norm_sd"]
    assert len(rows) == 2
    value = rows[0][1]
    assert rows[0][0] == "0"
    assert rows[1][0] == "summary"
    assert rows[1][2] == value
    assert rows[1][3] == _fmt(0.0)


def test_simulate_deterministic_and_normalized(tmp_path):
    args = [
        "simulate", "--n", "80", "--B", "5", "--t", "4", "--method", "smle",
        "--target", "F", "--h", "1.5", "--seed", "21",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, rows = _parse_output(a)
    vals = np.array([float(r[1]) for r in rows[:-1]])
    summary = rows[-1]
    assert summary[2] == _fmt(vals.mean())
    assert summary[3] == _fmt(vals.std(ddof=1))
    theta0 = float(TRUTH.F0(4.0))
    assert summary[4] == _fmt(80 ** 0.4 * (vals.mean() - theta0))
    assert summary[5] == _fmt(80 ** 0.4 * vals.std(ddof=1))


def test_simulate_validation(capsys):
    assert main(["simulate", "--B", "3", "--t", "4"]) == 2
    assert main(["simulate", "--n", "50", "--B", "3", "--t", "4",
                 "--method", "smle"]) == 2
    assert main(["simulate", "--n", "50", "--B", "3", "--t", "4",
                 "--method", "mle", "--target", "f"]) == 2
    capsys.readouterr()


def test_simulate_true_hazard_undefined_exits_3(capsys):
    # one row with delta 0: the smle hazard of the replicate is 0 at any
    # t, so only the true value F0(t) = 1 at t = 50 is out of the domain
    argv = ["simulate", "--n", "1", "--B", "1", "--t", "50", "--h", "1",
            "--method", "smle", "--target", "lambda", "--seed", "1"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "domain error: F0(t)=1 at t=50; hazard undefined\n"
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target, theta0", [("F", "1"), ("f", "0")])
def test_simulate_at_a_huge_point_has_a_finite_truth(tmp_path, capsys, target, theta0):
    out = tmp_path / "sim.csv"
    rc = main([
        "simulate", "--method", "smle", "--target", target, "--n", "50", "--B", "2",
        "--t", "1e308", "--h", "1", "--output", str(out),
    ])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert f"# theta0 = {theta0}, " in out.read_text()


def test_simulate_mle_needs_no_bandwidth(tmp_path):
    out = tmp_path / "sim.csv"
    rc = main([
        "simulate", "--n", "40", "--B", "2", "--t", "4", "--method", "mle",
        "--seed", "3", "--output", str(out),
    ])
    assert rc == 0
    _, rows = _parse_output(out)
    assert len(rows) == 3


def test_reproduce_table1_small_scale(tmp_path):
    from curstat.bandwidth import amse_optimal_c

    out = tmp_path / "table.csv"
    args = [
        "reproduce-table1", "--n", "120", "--m", "60", "--B", "2",
        "--c0-set", "5,10", "--seed", "1", "--output", str(out),
    ]
    assert main(args) == 0
    header, rows = _parse_output(out)
    assert header == ["row", "c_hat@4", "h_hat@4", "c_hat@6.5", "h_hat@6.5"]
    labels = [r[0] for r in rows]
    assert labels == [
        "bootstrap c0=5", "bootstrap c0=10", "mc-sim n=120", "mc-sim m=60",
        "theory",
    ]
    theory = rows[-1]
    c4 = amse_optimal_c("F", "SM", TRUTH, 4.0, KERNEL)
    c65 = amse_optimal_c("F", "SM", TRUTH, 6.5, KERNEL)
    assert theory[1] == _fmt(c4)
    assert theory[2] == _fmt(c4 * 120 ** -0.2)
    assert theory[3] == _fmt(c65)
    assert theory[4] == _fmt(c65 * 120 ** -0.2)
    # bit-stable under reruns
    out2 = tmp_path / "table2.csv"
    assert main(args[:-1] + [str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_reproduce_table1_validation(capsys):
    assert main(["reproduce-table1", "--n", "10", "--m", "20", "--B", "1"]) == 2
    assert main(["reproduce-table1", "--c0-set", "5,-1"]) == 2
    capsys.readouterr()


# Flag values for the fuzz tests below.  Sizes that pass their checks are
# kept small, so that a run takes milliseconds.
_EDGE = st.sampled_from(["0", "-1", "inf", "-inf", "nan", "1e308", "-1e308", "1e-308"])
_EDGE_SIZE = st.sampled_from(["0", "-1", "100000000000"])


@st.composite
def _flags(draw, plausible: dict, edge: dict) -> list:
    """``--flag=value`` for each flag of ``plausible``, the value drawn from
    its strategy, except that at most one flag takes a value of ``edge``.
    The ``=`` form lets argparse take a value like ``-inf``."""
    values = {flag: draw(strategy) for flag, strategy in plausible.items()}
    bad = draw(st.sampled_from([None, *edge]))
    if bad is not None:
        values[bad] = draw(edge[bad])
    return [f"--{flag}={value}" for flag, value in values.items()]


def _run_fuzzed(tmp_path_factory, argv):
    """Run the CLI: it exits 0, 2 or 3, and writes nothing to stderr but
    the lines of its errors and warnings."""
    out = str(tmp_path_factory.getbasetemp() / "flag-fuzz.out")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv + ["--output", out])
    assert rc in (0, 2, 3)
    for line in err.getvalue().splitlines():
        assert line.startswith(("input error: ", "domain error: ", "warning: ")), line


def _simulate_flags(width: str):
    """The flags of ``simulate``, its bandwidth given by ``--h`` or ``--c``."""
    return _flags(
        {
            "method": st.sampled_from(cli._METHODS),
            "target": st.sampled_from(cli._TARGETS),
            "n": st.integers(1, 200),
            "B": st.integers(1, 2),
            "t": st.floats(0.0, 12.0),
            width: st.floats(0.3, 30.0),
        },
        {"n": _EDGE_SIZE, "B": _EDGE_SIZE, "t": _EDGE, width: _EDGE},
    )


@settings(max_examples=60)
@given(flags=st.sampled_from(["h", "c"]).flatmap(_simulate_flags))
@example(flags=["--method=smle", "--target=F", "--n=50", "--B=2", "--t=1e308", "--h=1"])
@example(flags=["--method=msle", "--target=f", "--n=200", "--B=2", "--t=4", "--c=1e308"])
@example(flags=["--method=naive", "--target=f", "--n=200", "--B=1", "--t=4", "--h=1e-308"])
def test_simulate_flags_exit_with_a_message(tmp_path_factory, flags):
    _run_fuzzed(tmp_path_factory, ["simulate"] + flags)


@settings(max_examples=20)
@given(
    flags=_flags(
        {
            "method": st.sampled_from(["msle", "smle"]),
            "target": st.sampled_from(cli._TARGETS),
            "n": st.integers(20, 200),
            "m": st.integers(1, 20),
            "B": st.integers(1, 2),
            "c0-set": st.lists(st.sampled_from(["5", "25"]), min_size=1, max_size=2).map(",".join),
        },
        {
            "n": _EDGE_SIZE,
            "m": _EDGE_SIZE,
            "B": _EDGE_SIZE,
            "c0-set": st.lists(_EDGE, min_size=1, max_size=2).map(",".join),
        },
    )
)
@example(flags=["--method=smle", "--target=f", "--n=60", "--m=30", "--B=1", "--c0-set=1e-308"])
@example(flags=["--method=msle", "--target=F", "--n=60", "--m=30", "--B=1", "--c0-set=25,nan"])
def test_reproduce_table1_flags_exit_with_a_message(tmp_path_factory, flags):
    _run_fuzzed(tmp_path_factory, ["reproduce-table1"] + flags)


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["estimate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
