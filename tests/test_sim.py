"""Tests for the simulation truth and samplers."""

import numpy as np
import pytest
from scipy.integrate import trapezoid

from curstat.errors import InputError
from curstat.sim import sample_current_status, truth_gamma4_exp3
from oracles import hidden_x

TRUTH = truth_gamma4_exp3()

# positive-indicator probability integral F0 dG, by independent
# high-precision quadrature of the closed forms
P_DELTA_ONE = 0.16244839


def test_cdf_anchor_values():
    assert TRUTH.F0(2.0) == 0.0
    assert TRUTH.F0(1.0) == 0.0
    # 1 - e^{-2} * (1 + 2 + 2 + 4/3) = 1 - e^{-2} * 19/3
    want = 1.0 - np.exp(-2.0) * 19.0 / 3.0
    assert TRUTH.F0(4.0) == pytest.approx(want, abs=1e-15)
    assert TRUTH.F0(60.0) == pytest.approx(1.0, abs=1e-12)


def test_density_anchor_values():
    assert TRUTH.f0(4.0) == pytest.approx(8.0 * np.exp(-2.0) / 6.0, abs=1e-15)
    assert TRUTH.df0(4.0) == pytest.approx((2.0 / 3.0) * np.exp(-2.0), abs=1e-15)
    assert TRUTH.f0(1.9) == 0.0


def test_censoring_anchor_values():
    assert TRUTH.g(0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_derivative_chains_by_finite_differences():
    # F0' = f0, f0' = df0, df0' = d2f0, g' = dg, dg' = d2g
    pts = np.linspace(2.5, 12.0, 50)
    eps = 1e-5
    chains = [
        (TRUTH.F0, TRUTH.f0),
        (TRUTH.f0, TRUTH.df0),
        (TRUTH.df0, TRUTH.d2f0),
        (TRUTH.g, TRUTH.dg),
        (TRUTH.dg, TRUTH.d2g),
    ]
    for fn, dfn in chains:
        fd = (np.asarray(fn(pts + eps)) - np.asarray(fn(pts - eps))) / (2 * eps)
        got = np.asarray(dfn(pts))
        scale = np.maximum(np.abs(got), 1e-12)
        rel = np.abs(fd - got) / np.maximum(scale, np.max(np.abs(got)) * 1e-6)
        assert np.max(rel) < 1e-6


def test_shapes_monotone_and_normalized():
    xs = np.linspace(0.0, 40.0, 2000)
    F = np.asarray(TRUTH.F0(xs))
    assert np.all(np.diff(F) >= 0)
    assert np.all(np.asarray(TRUTH.f0(xs)) >= 0)
    assert np.all(np.asarray(TRUTH.g(xs)) >= 0)
    assert F[-1] > 1 - 1e-10
    # densities integrate to 1
    assert trapezoid(np.asarray(TRUTH.f0(xs)), xs) == pytest.approx(1.0, abs=1e-6)
    assert trapezoid(np.asarray(TRUTH.g(xs)), xs) == pytest.approx(
        1.0, abs=5e-6
    )


def test_sampler_determinism_and_indicator_consistency():
    a = sample_current_status(TRUTH, 500, 12345)
    b = sample_current_status(TRUTH, 500, 12345)
    np.testing.assert_array_equal(a.raw_times, b.raw_times)
    np.testing.assert_array_equal(a.raw_deltas, b.raw_deltas)
    np.testing.assert_array_equal(
        a.raw_deltas, (hidden_x(TRUTH, 500, 12345) <= a.raw_times).astype(float)
    )
    c = sample_current_status(TRUTH, 500, 54321)
    assert not np.array_equal(a.raw_times, c.raw_times)


def test_single_draw():
    gs = sample_current_status(TRUTH, 1, 7)
    assert gs.sample.n == 1
    assert gs.raw_deltas[0] == float(hidden_x(TRUTH, 1, 7)[0] <= gs.raw_times[0])


def test_rejects_empty_request():
    with pytest.raises(InputError):
        sample_current_status(TRUTH, 0, 1)


def test_indicator_rate_matches_model_probability():
    gs = sample_current_status(TRUTH, 100000, 999)
    assert abs(gs.raw_deltas.mean() - P_DELTA_ONE) < 0.01


def test_hidden_x_empirical_cdf_near_truth():
    # Dvoretzky-style desk check on the latent event times
    hits = 0
    for seed in range(20):
        xs = np.sort(hidden_x(TRUTH, 100000, seed))
        ecdf = np.arange(1, xs.size + 1) / xs.size
        sup = np.max(np.abs(ecdf - np.asarray(TRUTH.F0(xs))))
        if sup < 0.01:
            hits += 1
    assert hits >= 19


def test_grouped_sample_matches_raw():
    gs = sample_current_status(TRUTH, 300, 2468)
    assert gs.sample.counts.sum() == 300
    assert gs.sample.ones.sum() == gs.raw_deltas.sum()
    np.testing.assert_array_equal(gs.sample.times, np.unique(gs.raw_times))
