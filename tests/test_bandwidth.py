"""Tests for the asymptotic MSE formulas and the resampling selectors."""

import dataclasses
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curstat.bandwidth import (
    BootstrapConfig,
    amse,
    amse_optimal_c,
    bias_factor,
    bootstrap_bandwidth,
    mc_bandwidth,
    rate_exponent,
    variance_factor,
)
from curstat.bandwidth import _refine_minimizer, _replicate
from curstat._threads import child_rng, replicate_map
from curstat.errors import (
    DegenerateBias,
    EmptyGrid,
    HazardDenominatorViolation,
    InputError,
    OutOfDomain,
    PilotDegenerate,
    ZeroCensoringDensity,
)
from curstat import estimators
from curstat.estimators import fit_msle, msle_F, msle_lambda, smle_F, smle_f, smle_lambda
from curstat.kernels import triweight
from curstat.mle import build_sample, fit_mle
from curstat.sim import _draw, sample_current_status, truth_gamma4_exp3

from oracles import (
    bootstrap_bandwidth_inline,
    fit_smoothed_per_h,
    golden_section_min,
    mc_bandwidth_inline,
    refine_minimizer_even_log,
)

KERNEL = triweight()
TRUTH = truth_gamma4_exp3()

ALL_PAIRS = [(t, m) for t in ("F", "f", "lambda") for m in ("MS", "SM")]

# high-precision reference constants for the simulation truth
C_F_SM_4 = 6.46737759
C_F_SM_65 = 10.42577120
C_F_MS_4 = 10.0364
C_F_MS_65 = 6.7183
C_f_MS_4 = 4.6591
C_lam_MS_4 = 4.6045
Q_AT_4 = -0.15037254


def test_rate_exponents():
    assert rate_exponent("F") == pytest.approx(0.2)
    assert rate_exponent("f") == pytest.approx(1.0 / 7.0)
    assert rate_exponent("lambda") == pytest.approx(1.0 / 7.0)
    with pytest.raises(ValueError):
        rate_exponent("density")


def test_plan_bandwidth_values():
    assert C_F_SM_4 * 10000 ** -rate_exponent("F") == pytest.approx(1.02501027, abs=2e-6)
    assert C_F_SM_65 * 10000 ** -rate_exponent("F") == pytest.approx(1.65237338, abs=2e-6)


def test_optimal_constants_for_distribution_targets():
    assert amse_optimal_c("F", "SM", TRUTH, 4.0, KERNEL) == pytest.approx(
        C_F_SM_4, rel=1e-6
    )
    assert amse_optimal_c("F", "SM", TRUTH, 6.5, KERNEL) == pytest.approx(
        C_F_SM_65, rel=1e-6
    )
    assert amse_optimal_c("F", "MS", TRUTH, 4.0, KERNEL) == pytest.approx(
        C_F_MS_4, abs=1e-3
    )
    assert amse_optimal_c("F", "MS", TRUTH, 6.5, KERNEL) == pytest.approx(
        C_F_MS_65, abs=1e-3
    )


def test_optimal_constants_for_density_and_hazard():
    assert bias_factor("f", "MS", TRUTH, 4.0) == pytest.approx(Q_AT_4, abs=1e-7)
    assert amse_optimal_c("f", "MS", TRUTH, 4.0, KERNEL) == pytest.approx(
        C_f_MS_4, abs=1e-3
    )
    assert amse_optimal_c("lambda", "MS", TRUTH, 4.0, KERNEL) == pytest.approx(
        C_lam_MS_4, abs=1e-3
    )


def test_closed_form_matches_numeric_argmin_all_pairs():
    for t in (3.2, 4.0, 6.5):
        for target, method in ALL_PAIRS:
            want = amse_optimal_c(target, method, TRUTH, t, KERNEL)
            got = golden_section_min(
                lambda c: amse(target, method, TRUTH, t, KERNEL, c),
                want / 50.0,
                want * 50.0,
                tol=1e-10,
            )
            assert got == pytest.approx(want, rel=1e-5), (target, method, t)


def test_amse_diverges_at_extremes():
    for target, method in ALL_PAIRS:
        mid = amse_optimal_c(target, method, TRUTH, 4.0, KERNEL)
        v_mid = amse(target, method, TRUTH, 4.0, KERNEL, mid)
        assert amse(target, method, TRUTH, 4.0, KERNEL, 1e-3) > 100 * v_mid
        assert amse(target, method, TRUTH, 4.0, KERNEL, 1e3) > 100 * v_mid


def test_methods_share_variance_term():
    # the two F-target curves differ only through the bias factor
    c = 5.0
    b_ms = bias_factor("F", "MS", TRUTH, 4.0)
    b_sm = bias_factor("F", "SM", TRUTH, 4.0)
    diff = amse("F", "MS", TRUTH, 4.0, KERNEL, c) - amse(
        "F", "SM", TRUTH, 4.0, KERNEL, c
    )
    want = 0.25 * c**4 * KERNEL.m2**2 * (b_ms**2 - b_sm**2)
    assert diff == pytest.approx(want, rel=1e-12)
    assert variance_factor("F", TRUTH, 4.0, KERNEL) == pytest.approx(
        TRUTH.F0(4.0) * (1 - TRUTH.F0(4.0)) / TRUTH.g(4.0) * 350.0 / 429.0
    )


def test_amse_convex_in_log_c_near_optimum():
    for target, method in ALL_PAIRS:
        c_star = amse_optimal_c(target, method, TRUTH, 4.0, KERNEL)
        cs = c_star * np.exp(np.linspace(-0.2, 0.2, 5))
        vals = np.array([amse(target, method, TRUTH, 4.0, KERNEL, c) for c in cs])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.all(second > 0)


def test_degenerate_bias_where_density_peaks():
    # the event density peaks at t = 5, so the SM distribution bias
    # factor f0' crosses zero there
    with pytest.raises(DegenerateBias):
        amse_optimal_c("F", "SM", TRUTH, 5.0, KERNEL)
    with pytest.raises(DegenerateBias):
        amse("F", "SM", TRUTH, 5.0, KERNEL, 2.0)


def test_domain_guards():
    with pytest.raises(ZeroCensoringDensity):
        bias_factor("F", "SM", TRUTH, -1.0)
    with pytest.raises(HazardDenominatorViolation):
        variance_factor("lambda", TRUTH, 150.0, KERNEL)
    with pytest.raises(InputError):
        amse("F", "SM", TRUTH, 4.0, KERNEL, -2.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: bias_factor("F", "MS", TRUTH, NAN), ZeroCensoringDensity),
        (lambda: variance_factor("f", TRUTH, NAN, KERNEL), ZeroCensoringDensity),
        (lambda: amse("F", "SM", TRUTH, NAN, KERNEL, 2.0), ZeroCensoringDensity),
        (lambda: amse_optimal_c("lambda", "MS", TRUTH, NAN, KERNEL), ZeroCensoringDensity),
        (lambda: amse("F", "SM", TRUTH, 4.0, KERNEL, NAN), InputError),
        (lambda: amse("F", "SM", TRUTH, 4.0, KERNEL, [1.0, NAN]), InputError),
        (lambda: amse("f", "MS", TRUTH, 4.0, KERNEL, np.inf), InputError),
    ],
    ids=["bias-t", "variance-t", "amse-t", "optimal-c-t", "amse-c", "amse-c-list", "amse-c-inf"],
)
def test_nan_fails_the_theory_range_checks(call, error):
    # a comparison with nan is False, so each check is written to pass
    # only on a value in range
    with pytest.raises(error):
        call()


def test_bootstrap_config_validation():
    with pytest.raises(InputError):
        BootstrapConfig(m=0, B=10, c0=10.0, t=4.0, seed=1)
    with pytest.raises(InputError):
        BootstrapConfig(m=10, B=0, c0=10.0, t=4.0, seed=1)
    with pytest.raises(InputError):
        BootstrapConfig(m=10, B=5, c0=-1.0, t=4.0, seed=1)
    with pytest.raises(EmptyGrid):
        BootstrapConfig(m=10, B=5, c0=10.0, t=4.0, seed=1, c_grid=np.array([]))
    cfg = BootstrapConfig(m=10, B=5, c0=10.0, t=4.0, seed=1)
    grid = cfg.resolved_grid()
    assert grid.size == 60
    assert grid[0] == pytest.approx(1.0)
    assert grid[-1] == pytest.approx(100.0)


def _desk_sample(n=400, seed=11):
    return sample_current_status(TRUTH, n, seed).sample


def test_bootstrap_singleton_grid_single_replicate():
    sample = _desk_sample()
    cfg = BootstrapConfig(
        m=200, B=1, c0=10.0, t=4.0, seed=3, c_grid=np.array([7.0])
    )
    sel = bootstrap_bandwidth(sample, cfg, "F", "SM", KERNEL)
    assert sel.c_hat == 7.0
    assert sel.mse.shape == (1,)
    assert sel.mse[0] >= 0.0
    assert sel.h_hat == pytest.approx(7.0 * sample.n ** (-0.2))


def test_bootstrap_determinism():
    sample = _desk_sample()
    cfg = BootstrapConfig(
        m=150, B=12, c0=10.0, t=4.0, seed=42, c_grid=np.geomspace(3, 20, 8)
    )
    a = bootstrap_bandwidth(sample, cfg, "F", "SM", KERNEL)
    b = bootstrap_bandwidth(sample, cfg, "F", "SM", KERNEL)
    assert a.c_hat == b.c_hat
    np.testing.assert_array_equal(a.mse, b.mse)


def test_replicates_run_in_the_calling_thread_in_index_order():
    calls = []

    def body(i, rng):
        calls.append((i, threading.get_ident()))
        return float(rng.random())

    values = replicate_map(body, 6, 9)
    assert calls == [(i, threading.get_ident()) for i in range(6)]
    assert values == [float(child_rng(9, i).random()) for i in range(6)]


def test_bootstrap_rejects_oversized_m():
    sample = _desk_sample(n=100)
    cfg = BootstrapConfig(m=200, B=2, c0=10.0, t=4.0, seed=1)
    with pytest.raises(InputError):
        bootstrap_bandwidth(sample, cfg, "F", "SM", KERNEL)


def test_pilot_degenerate_when_no_events():
    # all indicators zero: the MLE is identically zero mass, its
    # smoothing is flat, and the event draw has nothing to invert
    times = np.linspace(1.0, 9.0, 50)
    sample = build_sample(
        np.column_stack([times, np.zeros_like(times)])
    )
    cfg = BootstrapConfig(m=20, B=2, c0=10.0, t=4.0, seed=1)
    with pytest.raises(PilotDegenerate):
        bootstrap_bandwidth(sample, cfg, "F", "SM", KERNEL)


def test_refinement_recovers_off_grid_parabola_vertex():
    c_grid = np.geomspace(2.0, 20.0, 25)
    target = 7.3
    mse = (np.log(c_grid) - np.log(target)) ** 2
    c, at_edge = _refine_minimizer(c_grid, mse)
    assert c == pytest.approx(target, rel=1e-6)
    assert not at_edge
    # edge minimizer stays on the grid
    mse = np.linspace(1.0, 2.0, 25)
    assert _refine_minimizer(c_grid, mse)[0] == c_grid[0]


@pytest.mark.parametrize(
    "c_grid, c_star, expected", [([1.0, 2.0, 8.0], np.e, 2.0), ([6.0, 9.0, 13.0], 8.0, 9.0)]
)
def test_refinement_keeps_the_grid_point_on_an_uneven_stencil(c_grid, c_star, expected):
    # the vertex formula assumes even log spacing; here it would give
    # 1.915 for e and 8.13 for 8
    c_grid = np.array(c_grid)
    mse = (np.log(c_grid) - np.log(c_star)) ** 2
    assert _refine_minimizer(c_grid, mse) == (expected, False)


def test_refinement_still_runs_on_an_extreme_geometric_grid():
    c_grid = np.geomspace(1e-300, 1e300, 2**20)
    mse = (np.log(c_grid) - np.log(2.718)) ** 2
    c, at_edge = _refine_minimizer(c_grid, mse)
    assert (c, at_edge) == refine_minimizer_even_log(c_grid, mse)
    assert c == pytest.approx(2.718, rel=1e-9)
    assert np.min(np.abs(c_grid / 2.718 - 1.0)) > 1e-6


def test_monotone_mse_curve_flags_the_grid_end():
    c_grid = np.geomspace(2.0, 20.0, 25)
    assert _refine_minimizer(c_grid, np.linspace(1.0, 2.0, 25)) == (2.0, True)
    assert _refine_minimizer(c_grid, np.linspace(2.0, 1.0, 25)) == (c_grid[-1], True)
    assert _refine_minimizer(np.array([7.0]), np.array([0.3])) == (7.0, False)
    # both selectors carry the flag
    mc = mc_bandwidth(TRUTH, 300, 4, np.geomspace(100.0, 400.0, 4), 4.0, "F", "SM", KERNEL, seed=5)
    assert mc.at_edge and mc.c_tilde == 100.0
    sample = sample_current_status(TRUTH, 300, 6).sample
    cfg = BootstrapConfig(m=100, B=4, c0=10.0, t=4.0, seed=5, c_grid=np.geomspace(3.0, 20.0, 8))
    sel = bootstrap_bandwidth(sample, cfg, "F", "SM", KERNEL)
    assert sel.at_edge == (sel.c_hat in (3.0, 20.0))


def _outcome(select, *args):
    """The record ``select`` returns, or the class and message it raises."""
    try:
        return select(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def _assert_same_bits(a, b):
    if not dataclasses.is_dataclass(a):
        assert a == b
        return
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert type(x) is type(y), field.name
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name
        elif isinstance(x, float):
            assert struct.pack("<d", x) == struct.pack("<d", y), field.name
        else:
            assert x == y, field.name


@settings(max_examples=60)
@given(
    method=st.sampled_from(["MS", "SM"]),
    target=st.sampled_from(["F", "f", "lambda"]),
    m=st.integers(40, 200),
    B=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    t=st.sampled_from([4.0, 6.5, 1.0, 14.0]),
    c_lo=st.floats(0.5, 20.0),
    ratio=st.floats(1.1, 30.0),
    points=st.integers(3, 8),
)
@example(method="MS", target="lambda", m=60, B=2, seed=1, t=14.0, c_lo=2.0, ratio=10.0, points=4)
@example(method="SM", target="f", m=200, B=3, seed=2, t=4.0, c_lo=1.0, ratio=25.0, points=8)
def test_both_selectors_keep_the_bits_of_their_inline_bodies(
    method, target, m, B, seed, t, c_lo, ratio, points
):
    c_grid = np.geomspace(c_lo, c_lo * ratio, points)
    sample = sample_current_status(TRUTH, 200, seed % 7).sample
    cfg = BootstrapConfig(m=m, B=B, c0=4.0 + seed % 11, t=t, seed=seed, c_grid=c_grid)
    _assert_same_bits(
        _outcome(bootstrap_bandwidth, sample, cfg, target, method, KERNEL),
        _outcome(bootstrap_bandwidth_inline, sample, cfg, target, method, KERNEL),
    )
    mc_args = (TRUTH, m, B, c_grid, t, target, method, KERNEL, seed)
    _assert_same_bits(_outcome(mc_bandwidth, *mc_args), _outcome(mc_bandwidth_inline, *mc_args))


def test_mc_determinism_and_reorder_invariance():
    c_grid = np.geomspace(3, 20, 6)
    a = mc_bandwidth(TRUTH, 300, 10, c_grid, 4.0, "F", "SM", KERNEL, seed=5)
    b = mc_bandwidth(TRUTH, 300, 10, c_grid, 4.0, "F", "SM", KERNEL, seed=5)
    assert a.c_tilde == b.c_tilde
    np.testing.assert_array_equal(a.mse, b.mse)
    assert a.theta0 == pytest.approx(float(TRUTH.F0(4.0)))


def test_mc_smoke_desk_scale():
    # reduced-size sanity run; the binding band check lives in the
    # acceptance suite
    sel = mc_bandwidth(
        TRUTH, 800, 40, np.geomspace(2, 18, 24), 4.0, "F", "SM", KERNEL, seed=77
    )
    assert 2.0 <= sel.c_tilde <= 18.0
    assert sel.mse.min() > 0.0
    assert sel.h_tilde == pytest.approx(sel.c_tilde * 800 ** (-0.2))


def test_ms_target_bootstrap_smoke():
    sample = _desk_sample(n=300, seed=21)
    cfg = BootstrapConfig(
        m=120, B=4, c0=8.0, t=4.0, seed=9, c_grid=np.array([6.0, 9.0, 13.0])
    )
    sel = bootstrap_bandwidth(sample, cfg, "F", "MS", KERNEL)
    assert sel.c_grid.size == 3
    assert np.all(sel.mse >= 0.0)
    assert sel.method == "MS"


@pytest.mark.parametrize(
    "target, t, error", [("F", 4.0, InputError), ("lambda", 14.0, HazardDenominatorViolation)]
)
def test_ms_replicate_raises_the_per_h_loops_first_error(target, t, error):
    # The third and fourth bandwidths need more grid nodes than the
    # ceiling, and the error names the third.  At t = 14 the hazard of
    # the first is undefined, which the per-h loop meets before that.
    n, seed = 200, 3
    c_grid = np.array([5.0, 2.0, 1e-6, 1e-7])
    with pytest.raises(error) as got:
        mc_bandwidth(TRUTH, n, 1, c_grid, t, target, "MS", KERNEL, seed)
    times, deltas = _draw(TRUTH.sample_x, TRUTH.sample_t, n, child_rng(seed, 0))
    sample = build_sample(np.column_stack([times, deltas]))
    evaluate = {"F": msle_F, "lambda": msle_lambda}[target]
    with pytest.raises(error) as want:
        for h in c_grid * n ** (-rate_exponent(target)):
            evaluate(fit_msle(fit_smoothed_per_h(sample, KERNEL, float(h))), t)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("method", ["MS", "SM"])
@pytest.mark.parametrize("target", ["F", "f", "lambda"])
@pytest.mark.parametrize("t", [NAN, -1.0, np.inf], ids=["nan", "negative", "inf"])
def test_bad_point_keeps_its_error_on_every_replicate_route(t, target, method):
    # every replicate route checks t before it reads a fit; at t = inf the
    # true hazard is undefined, which mc_bandwidth meets first
    error, message = OutOfDomain, "evaluation points must be finite and nonnegative"
    if t == np.inf and target == "lambda":
        error, message = HazardDenominatorViolation, "F0(t)=1 at t=inf; hazard undefined"
    with pytest.raises(error) as got:
        mc_bandwidth(TRUTH, 50, 1, np.array([2.0, 5.0]), t, target, method, KERNEL, 3)
    assert type(got.value) is error
    assert str(got.value) == message


_SMLE = {"F": smle_F, "f": smle_f, "lambda": smle_lambda}


def _sm_rows_per_h(m, target, hs, t, rng):
    """An SM replicate's row the slow way: each bandwidth on its own, as a
    one-element array."""
    times, deltas = _draw(TRUTH.sample_x, TRUTH.sample_t, m, rng)
    mle = fit_mle(build_sample(np.column_stack([times, deltas])))
    return np.array([_SMLE[target](mle, KERNEL, h, np.array([t]))[0] for h in hs])


@pytest.mark.parametrize("target", ["F", "f", "lambda"])
@pytest.mark.parametrize("m, t", [(60, 4.0), (500, 4.0), (500, 6.5), (2000, 4.0)])
def test_sm_replicate_rows_match_per_h_array_evaluation(m, t, target):
    hs = [float(h) for h in np.geomspace(1.0, 25.0, 60) * m ** (-rate_exponent(target))]
    body = _replicate(TRUTH.sample_x, TRUTH.sample_t, m, "smle", target, KERNEL, hs, t)
    for seed in range(4):
        got = body(seed, child_rng(seed, seed))
        want = _sm_rows_per_h(m, target, hs, t, child_rng(seed, seed))
        assert got.tobytes() == want.tobytes(), seed


def test_sm_replicate_raises_at_the_per_h_loops_bandwidth(monkeypatch):
    # At t = 10 the third bandwidth puts all of this sample's unit mass
    # below t - h: the hazard ceiling trips there, after two rows of values
    m, t, seed = 200, 10.0, 3
    hs = [float(h) for h in np.geomspace(25.0, 1.0, 8) * m ** (-0.2)]
    seen = []
    original = estimators.smle_F

    def recording(mle, kernel, h, points):
        seen.append(h)
        return original(mle, kernel, h, points)

    monkeypatch.setattr(estimators, "smle_F", recording)
    body = _replicate(TRUTH.sample_x, TRUTH.sample_t, m, "smle", "lambda", KERNEL, hs, t)
    with pytest.raises(HazardDenominatorViolation) as got:
        body(0, child_rng(seed, 0))
    got_hs, seen[:] = seen[:], []
    with pytest.raises(HazardDenominatorViolation) as want:
        _sm_rows_per_h(m, "lambda", hs, t, child_rng(seed, 0))
    assert got_hs == seen == hs[:3]
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("m, c_lo, c_hi", [(500, 0.5, 50.0), (2000, 1.0, 25.0)])
def test_ms_replicate_memory_stays_within_its_chunks(m, c_lo, c_hi):
    # 60 bandwidths smoothed at once would hold tens of MB; chunks keep
    # one replicate's peak near 2.5 MB
    hs = [float(h) for h in np.geomspace(c_lo, c_hi, 60) * m ** (-0.2)]
    body = _replicate(TRUTH.sample_x, TRUTH.sample_t, m, "msle", "F", KERNEL, hs, 4.0)
    body(0, child_rng(1, 0))  # kernel tables built before the measurement
    tracemalloc.start()
    try:
        body(1, child_rng(1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
