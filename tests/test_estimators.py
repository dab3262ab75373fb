"""Tests for the naive, hull-monotonized, and kernel-smoothed estimators."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from curstat import estimators
from curstat.errors import (
    CurstatError,
    DegenerateSupport,
    DensityFloorViolation,
    HazardDenominatorViolation,
    OutOfDomain,
)
from curstat.estimators import (
    F_CEILING,
    fit_msle,
    msle_F,
    msle_f,
    msle_lambda,
    naive_F,
    naive_f,
    naive_lambda,
    smle_F,
    smle_f,
    smle_lambda,
)
from curstat.kernels import Kernel, triweight
from curstat.mle import StepDistribution, build_sample, fit_mle, pava_blocks
from curstat.smoothing import fit_smoothed
from oracles import ScaledKernel

KERNEL = triweight()

# closed forms for the simulation truth: event = 2 + Gamma(4, 1),
# censoring = Exponential(mean 3)
F0_AT_4 = 0.14287653950145296
F0_AT_65 = 0.65770404395160193
f0_AT_4 = 0.18044704431548358


def _records(times, deltas):
    return np.column_stack(
        [np.asarray(times, dtype=float), np.asarray(deltas, dtype=float)]
    )


def _draw(rng, n):
    x = 2.0 + rng.gamma(4.0, 1.0, size=n)
    t = rng.exponential(3.0, size=n)
    return _records(t, (x <= t).astype(float))


def _fit(rng, n, h):
    return fit_smoothed(build_sample(_draw(rng, n)), KERNEL, h)


# ---------------------------------------------------------------------------
# naive ratios


def test_naive_F_is_one_when_all_indicators_one():
    sm = fit_smoothed(
        build_sample(_records([3.0, 3.5, 4.0], [1, 1, 1])), KERNEL, 1.0
    )
    assert naive_F(sm, 3.5) == pytest.approx(1.0, abs=1e-12)


def test_naive_F_is_zero_when_all_indicators_zero():
    sm = fit_smoothed(
        build_sample(_records([3.0, 3.5, 4.0], [0, 0, 0])), KERNEL, 1.0
    )
    assert naive_F(sm, 3.5) == 0.0


def test_naive_floor_violation_outside_support():
    sm = fit_smoothed(build_sample(_records([5.0], [1])), KERNEL, 0.5)
    with pytest.raises(DensityFloorViolation):
        naive_F(sm, 1.0)
    with pytest.raises(DensityFloorViolation):
        naive_f(sm, np.array([5.0, 1.0]))


def test_naive_hazard_guard_when_F_is_one():
    sm = fit_smoothed(
        build_sample(_records([3.0, 3.5, 4.0], [1, 1, 1])), KERNEL, 1.0
    )
    with pytest.raises(HazardDenominatorViolation):
        naive_lambda(sm, 3.5)


def test_naive_rejects_negative_points():
    sm = fit_smoothed(build_sample(_records([2.0], [1])), KERNEL, 1.0)
    with pytest.raises(OutOfDomain):
        naive_F(sm, -1.0)


def test_naive_matches_hand_ratio():
    rng = np.random.default_rng(5)
    sm = _fit(rng, 400, 1.0)
    ts = np.array([2.0, 3.0, 4.5])
    want = np.asarray(sm.eval("g1", ts)) / np.asarray(sm.eval("g", ts))
    np.testing.assert_allclose(naive_F(sm, ts), want, rtol=0, atol=0)


def test_naive_F_consistency_at_desk_scale():
    # n = 5000, h = 0.7: the ratio should land within 0.05 of the truth
    # at t = 4 in nearly every replication.
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(100):
        sm = _fit(rng, 5000, 0.7)
        if abs(naive_F(sm, 4.0) - F0_AT_4) < 0.05:
            hits += 1
    assert hits >= 90


# ---------------------------------------------------------------------------
# hull-monotonized estimator


def test_msle_slopes_match_pava_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        sm = _fit(rng, 200, 1.2)
        fit = fit_msle(sm)
        active = sm.g * sm.spacing > 0
        want = pava_blocks(sm.g1[active] / sm.g[active], (sm.g * sm.spacing)[active])[0]
        np.testing.assert_allclose(
            fit.F_tab[active], want, rtol=0, atol=1e-8
        )


def test_msle_equals_naive_at_touch_points():
    rng = np.random.default_rng(19)
    sm = _fit(rng, 300, 1.0)
    fit = fit_msle(sm)
    touch = fit.touch_mask
    assert np.any(touch)
    naive = sm.g1[touch] / sm.g[touch]
    np.testing.assert_array_equal(fit.F_tab[touch], naive)


def test_msle_monotone_in_unit_interval():
    rng = np.random.default_rng(23)
    for _ in range(10):
        fit = fit_msle(_fit(rng, 150, 1.0))
        assert np.all(np.diff(fit.F_tab) >= -1e-15)
        assert fit.F_tab.min() >= 0.0
        assert fit.F_tab.max() <= 1.0 + 1e-12
        assert np.all(np.diff(fit.segment_slopes) >= -1e-15)


def test_msle_hull_is_minorant():
    rng = np.random.default_rng(29)
    sm = _fit(rng, 250, 1.0)
    fit = fit_msle(sm)
    # hull value at each diagram x: piecewise linear through the
    # vertices starting at the origin
    vx = np.concatenate(([0.0], fit.ccsd_x[fit.hull_vertices]))
    vy = np.concatenate(([0.0], fit.ccsd_y[fit.hull_vertices]))
    hull_y = np.interp(fit.ccsd_x, vx, vy)
    assert np.all(hull_y <= fit.ccsd_y + 1e-12)


def test_msle_idempotent_on_monotone_naive():
    # all indicators split cleanly by time: the naive curve is monotone
    # on the well-supported region, so the hull reproduces it there
    times = np.linspace(1.0, 9.0, 60)
    deltas = (times > 5.0).astype(float)
    sm = fit_smoothed(build_sample(_records(times, deltas)), KERNEL, 2.0)
    fit = fit_msle(sm)
    active = sm.g * sm.spacing > 0
    naive = sm.g1[active] / sm.g[active]
    if np.all(np.diff(naive) >= 0):
        np.testing.assert_allclose(fit.F_tab[active], naive, atol=1e-8)
        assert np.all(fit.touch_mask[active])


def test_msle_f_zero_on_pooled_segments_and_naive_at_touch():
    rng = np.random.default_rng(31)
    sm = _fit(rng, 200, 0.9)
    fit = fit_msle(sm)
    pooled = ~fit.touch_mask & (sm.g * sm.spacing > 0)
    if np.any(pooled):
        vals = msle_f(fit, sm.grid[pooled])
        assert np.all(np.asarray(vals) == 0.0)
    touch = fit.touch_mask & (sm.g > 1e-6)
    if np.any(touch):
        got = np.asarray(msle_f(fit, sm.grid[touch]))
        want = np.asarray(naive_f(sm, sm.grid[touch]))
        np.testing.assert_allclose(got, want, rtol=0, atol=0)


def test_msle_F_computes_no_derivative_or_antiderivative():
    # the bandwidth selectors' replicate path: fit, monotonize, read F
    sm = _fit(np.random.default_rng(43), 300, 1.0)
    fit = fit_msle(sm)
    msle_F(fit, 4.0)
    assert not {"dg0", "dg1", "dg", "G0", "G1", "G"} & set(vars(sm))
    assert not {"ccsd_x", "ccsd_y"} & set(vars(fit))


def test_msle_F_carries_last_value_beyond_grid():
    rng = np.random.default_rng(37)
    sm = _fit(rng, 100, 1.0)
    fit = fit_msle(sm)
    end = float(sm.grid[-1])
    assert msle_F(fit, end + 5.0) == fit.F_tab[-1]
    assert msle_f(fit, end + 5.0) == 0.0


def test_msle_degenerate_support():
    import dataclasses

    rng = np.random.default_rng(41)
    sm = _fit(rng, 50, 1.0)
    dead = dataclasses.replace(
        sm,
        g0=np.zeros_like(sm.g0),
        g1=np.zeros_like(sm.g1),
        g=np.zeros_like(sm.g),
    )
    with pytest.raises(DegenerateSupport):
        fit_msle(dead)


def test_msle_density_consistency_at_scale():
    # n = 10000 at the density-optimal rate constant (4.659 n^{-1/7}):
    # the hull density lands within 0.03 of the truth at t = 4 in most
    # replications.  Larger constants (say 10) push the smoothing bias
    # alone past 0.04 and the property genuinely fails there.
    rng = np.random.default_rng(2024)
    h = 4.6591 * 10000 ** (-1.0 / 7.0)
    hits = 0
    for _ in range(100):
        sm = _fit(rng, 10000, h)
        fit = fit_msle(sm)
        if abs(float(msle_f(fit, 4.0)) - f0_AT_4) < 0.03:
            hits += 1
    assert hits >= 80


# ---------------------------------------------------------------------------
# smoothed MLE


def test_smle_single_point_mass():
    step = StepDistribution(
        jump_times=np.array([3.0]), values=np.array([1.0])
    )
    h = 1.5
    sk = ScaledKernel(KERNEL, h)
    for t in (2.0, 3.0, 4.2, 6.0):
        assert smle_F(step, KERNEL, h, t) == pytest.approx(
            float(sk.K_h(t - 3.0)), abs=1e-15
        )
        assert smle_f(step, KERNEL, h, t) == pytest.approx(
            float(sk.k_h(t - 3.0)), abs=1e-15
        )


def test_smle_terminal_value_is_total_mass():
    rng = np.random.default_rng(43)
    mle = fit_mle(build_sample(_draw(rng, 500)))
    h = 1.0
    t_end = float(mle.jump_times[-1]) + h
    assert smle_F(mle, KERNEL, h, t_end + 0.5) == pytest.approx(
        mle.total_mass, abs=1e-12
    )


def test_smle_density_nonnegative_and_mass_preserving():
    rng = np.random.default_rng(47)
    for _ in range(10):
        mle = fit_mle(build_sample(_draw(rng, 400)))
        if mle.jump_times.size == 0:
            continue
        h = 1.1
        t_end = float(mle.jump_times[-1]) + h
        grid = np.arange(int(np.ceil(t_end / (h / 32))) + 1) * (h / 32)
        dens = np.asarray(smle_f(mle, KERNEL, h, grid))
        assert np.all(dens >= 0.0)
        assert trapezoid(dens, grid) == pytest.approx(
            mle.total_mass, abs=1e-4
        )


def test_smle_F_monotone_on_random_pairs():
    rng = np.random.default_rng(53)
    mle = fit_mle(build_sample(_draw(rng, 300)))
    h = 0.9
    hi = float(mle.jump_times[-1]) + h + 1.0
    a = rng.random(1000) * hi
    b = rng.random(1000) * hi
    lo_t, hi_t = np.minimum(a, b), np.maximum(a, b)
    Fl = np.asarray(smle_F(mle, KERNEL, h, lo_t))
    Fh = np.asarray(smle_F(mle, KERNEL, h, hi_t))
    assert np.all(Fh - Fl >= -1e-12)
    assert np.all(Fl >= 0.0) and np.all(Fh <= 1.0 + 1e-12)


def test_smle_F_consistency_at_scale():
    # n = 10000, h = 6.467 n^{-1/5} ~ 1.025: within 0.04 of the truth
    # at t = 4 in nearly every replication.
    rng = np.random.default_rng(2025)
    h = 6.467 * 10000 ** (-0.2)
    hits = 0
    for _ in range(100):
        mle = fit_mle(build_sample(_draw(rng, 10000)))
        if abs(float(smle_F(mle, KERNEL, h, 4.0)) - F0_AT_4) < 0.04:
            hits += 1
    assert hits >= 90


def test_smle_empty_mle_is_zero():
    step = StepDistribution(jump_times=np.array([]), values=np.array([]))
    assert smle_F(step, KERNEL, 1.0, 3.0) == 0.0
    assert smle_f(step, KERNEL, 1.0, 3.0) == 0.0
    assert smle_lambda(step, KERNEL, 1.0, 3.0) == 0.0


# ---------------------------------------------------------------------------
# hazard compositions


def test_hazard_identities_hold_exactly():
    rng = np.random.default_rng(59)
    sm = _fit(rng, 2000, 0.8)
    fit = fit_msle(sm)
    mle = fit_mle(sm.sample)
    ts = np.array([2.5, 3.5, 4.5, 5.5])

    lam = np.asarray(naive_lambda(sm, ts))
    F = np.asarray(naive_F(sm, ts))
    f = np.asarray(naive_f(sm, ts))
    np.testing.assert_array_equal(lam * (1.0 - F), f)

    lam = np.asarray(msle_lambda(fit, ts))
    F = np.asarray(msle_F(fit, ts))
    f = np.asarray(msle_f(fit, ts))
    np.testing.assert_array_equal(lam * (1.0 - F), f)

    h = 1.0
    lam = np.asarray(smle_lambda(mle, KERNEL, h, ts))
    F = np.asarray(smle_F(mle, KERNEL, h, ts))
    f = np.asarray(smle_f(mle, KERNEL, h, ts))
    np.testing.assert_array_equal(lam * (1.0 - F), f)


def test_msle_hazard_guard():
    times = np.linspace(1.0, 5.0, 40)
    sm = fit_smoothed(
        build_sample(_records(times, np.ones_like(times))), KERNEL, 1.5
    )
    fit = fit_msle(sm)
    with pytest.raises(HazardDenominatorViolation):
        msle_lambda(fit, 3.0)


@pytest.mark.parametrize("family", ["naive", "msle", "smle"])
def test_guard_and_evaluator_agree_at_the_hazard_ceiling(family):
    # At F = 1 - F_CEILING, 1 - F rounds above F_CEILING, so the guard
    # keeps the points and the evaluator must not refuse them.
    F = 1.0 - F_CEILING
    times = np.linspace(1.0, 5.0, 40)
    sample = build_sample(_records(times, np.ones_like(times)))
    mle = StepDistribution(np.array([1.0]), np.array([F]))
    fits = estimators._Fits(sample, KERNEL, 1.0, mle)
    if family == "naive":
        sm = fits.sm
        fits.sm = dataclasses.replace(sm, g=np.ones_like(sm.g), g1=np.full_like(sm.g1, F))
    if family == "msle":
        fits.hull = dataclasses.replace(fits.hull, F_tab=np.full_like(fits.hull.F_tab, F))
    t = np.array([2.5, 3.0, 3.5])
    values, messages = estimators._guarded(family, "lambda", fits, t)
    assert messages == []
    assert np.all(np.isfinite(values))


def _outcome(fn, *args):
    """The value, or the class and message of the library error raised."""
    try:
        return np.atleast_1d(fn(*args)).tobytes()
    except CurstatError as exc:
        return type(exc), str(exc)


_BAD_T = (-1.0, np.nan, np.inf)
_JUMPS_AT_2_AND_4 = dict(times=[1.0, 2.0, 3.0, 4.0], deltas=[0, 1, 0, 1] + [0] * 36)
_BAD_H = (0.0, -0.5, np.nan, np.inf)
# the triweight's and the Epanechnikov's k in w = 1 - u^2 have zero
# coefficients, which Horner's rule skips; the uniform's forms are constants
_SMLE_KERNELS = (KERNEL, Kernel("uniform", (0.5,)), Kernel("epa", (0.75, 0.0, -0.75)))


@given(
    times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40),
    deltas=st.lists(st.integers(0, 1), min_size=40, max_size=40),
    t=st.one_of(st.floats(0.0, 12.0), st.integers(0, 12), st.sampled_from(_BAD_T)),
    h=st.one_of(st.floats(0.05, 5.0), st.sampled_from(_BAD_H)),
)
@example(times=[1.0], deltas=[0] * 40, t=2.0, h=1.0)  # no jumps
@example(times=[1.0, 2.0], deltas=[1] * 40, t=9.0, h=0.5)  # F = 1: hazard ceiling
@example(times=[1.0], deltas=[1] * 40, t=-1.0, h=0.0)  # bad t and bad h
@example(times=[1.0], deltas=[1] * 40, t=1.0, h=np.nan)
# jumps at 2 and 4: exactly h from t on either side (u = -1 and +1), one
# ulp beyond through h or through t, and t at a jump time (u = 0)
@example(**_JUMPS_AT_2_AND_4, t=3.0, h=1.0)
@example(**_JUMPS_AT_2_AND_4, t=3.0, h=float(np.nextafter(1.0, 0.0)))
@example(**_JUMPS_AT_2_AND_4, t=float(np.nextafter(3.0, 4.0)), h=1.0)
@example(**_JUMPS_AT_2_AND_4, t=2.0, h=1.0)
# jumps at 2 and 4 two bandwidths from t (u = -2 and +2), and a bandwidth
# below the spacing of the floats near t
@example(**_JUMPS_AT_2_AND_4, t=3.0, h=0.5)
@example(**_JUMPS_AT_2_AND_4, t=3.0, h=1e-20)
@example(  # 7 jumps inside the window
    times=list(np.arange(40) / 4.0),
    deltas=[int(c) for c in "0001000001000101100111011111011111110111"],
    t=5.0,
    h=6.0,
)
def test_smle_scalar_path_matches_one_element_array(times, deltas, t, h):
    mle = fit_mle(build_sample(_records(times, deltas[: len(times)])))
    for kern in _SMLE_KERNELS:
        for fn in (smle_F, smle_f, smle_lambda):
            scalar = _outcome(fn, mle, kern, h, t)
            assert scalar == _outcome(fn, mle, kern, h, np.array([t], dtype=float)), (kern, fn)
            assert scalar == _outcome(fn, mle, kern, h, np.asarray(t, dtype=float)), (kern, fn)


@pytest.mark.parametrize(
    "t, h, tau",
    [
        # tau lies below t - h and above t + h in floats, yet u rounds to
        # exactly +1 and -1, where the uniform kernel is not zero
        (6.0, 4.7791722878413, 1.2208277121586997),
        (2.4068698799754196, 4.677891149642603, 7.084761029618023),
    ],
)
def test_smle_scalar_path_weights_jumps_rounded_onto_the_support_ends(t, h, tau):
    uniform = Kernel("uniform", (0.5,))
    step = StepDistribution(jump_times=np.array([tau]), values=np.array([1.0]))
    assert (tau < t - h or tau > t + h) and abs((t - tau) / h) == 1.0
    for fn in (smle_F, smle_f):
        assert fn(step, uniform, h, t) == fn(step, uniform, h, np.array([t]))[0], fn
    assert smle_f(step, uniform, h, t) == 0.5 / h


def test_smle_scalar_path_matches_array_path_with_many_jumps():
    rng = np.random.default_rng(61)
    mle = fit_mle(build_sample(_draw(rng, 20000)))
    assert mle.jump_times.size > 20
    t = rng.uniform(0.0, 9.0, 200)  # F stays below the hazard ceiling
    for h in (0.3, 1.0, 4.0):
        for fn in (smle_F, smle_f, smle_lambda):
            array = np.concatenate([fn(mle, KERNEL, h, np.array([x])) for x in t])
            scalar = np.array([fn(mle, KERNEL, h, float(x)) for x in t])
            assert scalar.tobytes() == array.tobytes(), (fn, h)


def test_smle_blocked_grid_matches_one_unblocked_product(monkeypatch):
    # two full blocks and a ragged third, against one product over all rows
    rng = np.random.default_rng(62)
    mle = fit_mle(build_sample(_draw(rng, 20000)))
    t = rng.uniform(0.0, 9.0, 2 * estimators._SMLE_BLOCK + 37)
    fns = (smle_F, smle_f, smle_lambda)
    hs = (0.3, 1.0, 4.0)
    blocked = [np.asarray(fn(mle, KERNEL, h, t)) for fn in fns for h in hs]
    square = t[: 90 * 90].reshape(90, 90)
    shaped = [np.asarray(fn(mle, KERNEL, h, square)) for fn in fns for h in hs]
    monkeypatch.setattr(estimators, "_SMLE_BLOCK", t.size)
    unblocked = [np.asarray(fn(mle, KERNEL, h, t)) for fn in fns for h in hs]
    for b, u in zip(blocked, unblocked):
        assert b.tobytes() == u.tobytes()
    # an n-d t gives the bits of the same points in one flat array
    for s, u in zip(shaped, unblocked):
        assert s.shape == square.shape
        assert s.tobytes() == u[: square.size].tobytes()
