"""Tests for the smoothed-measures tabulation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from curstat import smoothing
from curstat.errors import InputError, NonpositiveBandwidth, OutOfDomain
from curstat.kernels import triweight
from curstat.mle import build_sample
from curstat.smoothing import _binned_moments, _fit_smoothed_many, fit_smoothed

from oracles import ScaledKernel, binned_moments_vander, direct_smoothed, fit_smoothed_per_h

KERNEL = triweight()


def _records(times, deltas):
    return np.column_stack(
        [np.asarray(times, dtype=float), np.asarray(deltas, dtype=float)]
    )


def test_single_observation_peak_value():
    # One observation at T = 5 with indicator 1, h = 1: the smoothed
    # sub-density at the observation point is k(0) = 35/32.
    sm = fit_smoothed(build_sample(_records([5.0], [1])), KERNEL, 1.0)
    assert sm.eval("g1", 5.0) == pytest.approx(1.09375, abs=1e-12)
    assert sm.eval("g0", 5.0) == 0.0
    assert sm.eval("g1", 7.0) == 0.0
    assert sm.eval("g1", 6.0) == 0.0


def test_grid_resolution_and_span():
    sm = fit_smoothed(build_sample(_records([5.0], [1])), KERNEL, 1.0)
    assert sm.grid[0] == 0.0
    assert sm.grid[-1] >= 6.0 - 1e-12
    assert sm.spacing == pytest.approx(1.0 / 32.0)


def test_boundary_reduces_to_plain_kernel_when_data_far_from_origin():
    # All observations at least 2h from the origin: no node with t < h
    # receives any mass, and nodes at t >= h use the plain kernel, so
    # the tabulation must agree with a direct interior-only sum.
    rng = np.random.default_rng(7)
    times = 2.0 + 4.0 * rng.random(40)
    deltas = (rng.random(40) < 0.5).astype(int)
    h = 0.9
    sample = build_sample(_records(times, deltas))
    sm = fit_smoothed(sample, KERNEL, h)

    scaled = ScaledKernel(KERNEL, h)
    w1 = sample.ones.astype(float)
    direct = np.array(
        [np.sum(w1 * scaled.k_h(t - sample.times)) / sample.n for t in sm.grid]
    )
    np.testing.assert_allclose(sm.g1, direct, rtol=0, atol=1e-14)


def test_total_is_sum_of_parts():
    rng = np.random.default_rng(11)
    times = 6.0 * rng.random(200)
    deltas = (rng.random(200) < 0.4).astype(int)
    sm = fit_smoothed(build_sample(_records(times, deltas)), KERNEL, 0.8)
    np.testing.assert_allclose(sm.g, sm.g0 + sm.g1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sm.dg, sm.dg0 + sm.dg1, rtol=0, atol=1e-12)


def test_mass_conservation_when_support_clears_boundary_zone():
    # With min T >= 2h the corrected nodes (t < h) receive no mass at
    # all, every kernel integrates to 1 inside the grid, and the
    # trapezoid antiderivative reaches 1 up to quadrature error.
    rng = np.random.default_rng(23)
    times = 2.0 + 5.0 * rng.random(500)
    deltas = (rng.random(500) < 0.3).astype(int)
    sm = fit_smoothed(build_sample(_records(times, deltas)), KERNEL, 0.9)
    assert abs(sm.G[-1] - 1.0) < 1e-6
    frac1 = deltas.mean()
    assert abs(sm.G1[-1] - frac1) < 1e-6
    assert abs(sm.G0[-1] - (1.0 - frac1)) < 1e-6


def test_mass_distortion_small_when_data_overlaps_boundary_zone():
    # min T in [h, 2h): observations within 2h of the origin are
    # reweighted by the correction at nodes t < h, which perturbs the
    # total mass slightly; it must stay small but is not exact.
    rng = np.random.default_rng(29)
    times = 1.0 + 5.0 * rng.random(500)
    deltas = (rng.random(500) < 0.3).astype(int)
    sm = fit_smoothed(build_sample(_records(times, deltas)), KERNEL, 0.9)
    assert abs(sm.G[-1] - 1.0) < 2e-3


def test_antiderivatives_nondecreasing_and_ordered():
    rng = np.random.default_rng(31)
    times = 7.0 * rng.random(300)
    deltas = (rng.random(300) < 0.5).astype(int)
    sm = fit_smoothed(build_sample(_records(times, deltas)), KERNEL, 1.1)
    for tab in (sm.G0, sm.G1, sm.G):
        assert np.all(np.diff(tab) >= -1e-15)
    assert np.all(sm.G1 <= sm.G + 1e-15)
    assert sm.eval("G", 0.0) == 0.0


def test_derivative_matches_finite_difference():
    # The mismatch is centered-difference truncation, O(spacing^2); at
    # 32 cells per bandwidth its scale-relative size is a fixed
    # ~1.05e-3 for this kernel, so the 1e-3 check runs at 64 cells.
    rng = np.random.default_rng(41)
    times = 1.5 + 5.0 * rng.random(2000)
    deltas = (rng.random(2000) < 0.4).astype(int)
    sample = build_sample(_records(times, deltas))
    h = 0.7

    def suprel(sm):
        fd = (sm.g[2:] - sm.g[:-2]) / (2.0 * sm.spacing)
        return np.max(np.abs(fd - sm.dg[1:-1])) / np.max(np.abs(sm.dg))

    with mock.patch.object(smoothing, "_CELLS", 64):
        assert suprel(fit_smoothed(sample, KERNEL, h)) < 1e-3
    assert suprel(fit_smoothed(sample, KERNEL, h)) < 2e-3


def test_boundary_derivative_is_grid_difference():
    rng = np.random.default_rng(43)
    times = 3.0 * rng.random(100)
    deltas = (rng.random(100) < 0.5).astype(int)
    sm = fit_smoothed(build_sample(_records(times, deltas)), KERNEL, 1.0)
    delta = sm.spacing
    below = np.flatnonzero(sm.grid < sm.h)
    assert sm.dg1[0] == pytest.approx((sm.g1[1] - sm.g1[0]) / delta, abs=1e-14)
    i = below[-1]
    expect = (sm.g1[i + 1] - sm.g1[i - 1]) / (2.0 * delta)
    assert sm.dg1[i] == pytest.approx(expect, abs=1e-14)


def test_boundary_mass_recovery_near_origin():
    # Observations hugging the origin: the corrected kernel restores
    # the unit local mass that the symmetric kernel would lose, so the
    # total integral stays near 1 (trapezoid error plus the correction
    # residual at the support edge).
    rng = np.random.default_rng(53)
    times = 2.0 * rng.random(4000)
    deltas = (rng.random(4000) < 0.5).astype(int)
    sm = fit_smoothed(build_sample(_records(times, deltas)), KERNEL, 0.5)
    assert abs(sm.G[-1] - 1.0) < 5e-3


def test_antiderivatives_match_scipys_cumulative_trapezoid():
    rng = np.random.default_rng(23)
    for n, h in ((1, 0.7), (40, 0.3), (300, 1.1), (2000, 0.45)):
        sm = fit_smoothed(
            build_sample(_records(rng.uniform(0.0, 8.0, n), rng.integers(0, 2, n))), KERNEL, h
        )
        dx = sm.h / sm.cells
        for name in ("g0", "g1", "g"):
            want = cumulative_trapezoid(getattr(sm, name), dx=dx, initial=0.0)
            assert getattr(sm, name.upper()).tobytes() == want.tobytes(), (n, name)
        for size in (1, 2, 3, 1000):
            g = rng.uniform(0.0, 1.0, size) * 10.0 ** rng.uniform(-300, 300, size)
            want = cumulative_trapezoid(g, dx=dx, initial=0.0)
            assert sm._integral(g).tobytes() == want.tobytes(), (n, size)


def test_eval_exact_at_nodes_and_conventions():
    sm = fit_smoothed(build_sample(_records([2.0, 4.0], [1, 0])), KERNEL, 1.0)
    idx = [0, 5, len(sm.grid) - 1]
    for key in ("g0", "g1", "g", "dg", "G", "G1"):
        tab = getattr(sm, key)
        for i in idx:
            assert sm.eval(key, float(sm.grid[i])) == pytest.approx(
                tab[i], abs=1e-15
            )
    end = float(sm.grid[-1])
    assert sm.eval("g", end + 3.0) == 0.0
    assert sm.eval("dg", end + 3.0) == 0.0
    assert sm.eval("G", end + 3.0) == pytest.approx(sm.G[-1])
    out = sm.eval("g", np.array([0.0, 1.0, end + 1.0]))
    assert out.shape == (3,)
    with pytest.raises(ValueError):
        sm.eval("g1'", 2.0)


def test_eval_rejects_negative_and_unknown():
    sm = fit_smoothed(build_sample(_records([2.0], [1])), KERNEL, 1.0)
    with pytest.raises(OutOfDomain):
        sm.eval("g", -0.5)
    with pytest.raises(OutOfDomain):
        sm.eval("g", np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        sm.eval("gq", 1.0)


def test_bandwidth_and_grid_validation():
    sample = build_sample(_records([1.0, 2.0, 3.0], [0, 1, 1]))
    with pytest.raises(NonpositiveBandwidth):
        fit_smoothed(sample, KERNEL, 0.0)
    with pytest.raises(NonpositiveBandwidth):
        fit_smoothed(sample, KERNEL, -1.0)
    for h in (np.inf, np.nan):
        with pytest.raises(NonpositiveBandwidth):
            fit_smoothed(sample, KERNEL, h)
    # a numpy float is shown by its value, as the CLI shows a float
    with pytest.raises(NonpositiveBandwidth, match=r"got -1\.0$"):
        fit_smoothed(sample, KERNEL, np.float64(-1.0))


def test_node_ceiling_rejects_tiny_bandwidth_before_allocating():
    sample = build_sample(_records([1.0, 2.0, 3.0], [0, 1, 1]))
    with pytest.raises(InputError, match="grid nodes"):
        fit_smoothed(sample, KERNEL, 1e-7)
    with pytest.raises(InputError, match="grid nodes"):
        fit_smoothed(sample, KERNEL, 1e-300)


def test_ties_weighted_like_repeats():
    tied = build_sample(_records([2.0, 2.0, 2.0, 5.0], [1, 1, 0, 1]))
    sm = fit_smoothed(tied, KERNEL, 1.0)
    flat = build_sample(
        _records([2.0, 2.0 + 1e-13, 2.0 - 1e-13, 5.0], [1, 1, 0, 1])
    )
    # same up to the microscopic perturbation of the kernel argument
    sm2 = fit_smoothed(flat, KERNEL, 1.0)
    np.testing.assert_array_equal(sm.grid, sm2.grid)
    np.testing.assert_allclose(sm.g1, sm2.g1, rtol=0, atol=1e-10)


def test_consistency_at_desk_scale():
    # Event times 2 + Gamma(4, 1), censoring times Exp(mean 3); the
    # censoring density is exp(-t/3)/3.  With n = 5000 and h = 0.7 the
    # smoothed total density should track the truth uniformly on a
    # region well inside the support, in nearly every replication.
    rng = np.random.default_rng(2026)
    ok = 0
    reps = 100
    lo, hi = 1.0, 8.0
    for _ in range(reps):
        t_obs = rng.exponential(3.0, size=5000)
        x = 2.0 + rng.gamma(4.0, 1.0, size=5000)
        deltas = (x <= t_obs).astype(int)
        sm = fit_smoothed(build_sample(_records(t_obs, deltas)), KERNEL, 0.7)
        sel = (sm.grid >= lo) & (sm.grid <= hi)
        truth = np.exp(-sm.grid[sel] / 3.0) / 3.0
        if np.max(np.abs(sm.g[sel] - truth)) < 0.05:
            ok += 1
    assert ok >= 95


def test_all_zero_indicators_give_empty_g1():
    sm = fit_smoothed(build_sample(_records([1.0, 2.0], [0, 0])), KERNEL, 0.5)
    assert np.all(sm.g1 == 0.0)
    assert np.all(sm.G1 == 0.0)
    assert np.all(sm.g == sm.g0)


def test_lazy_curves_do_not_depend_on_read_order():
    sample = build_sample(_records([0.1, 0.4, 0.4, 1.7, 2.5, 3.0], [0, 1, 0, 1, 1, 0]))
    lazy = ("dg0", "dg1", "dg", "G0", "G1", "G")
    first = fit_smoothed(sample, KERNEL, 0.8)
    read_first = {key: getattr(first, key) for key in lazy}
    later = fit_smoothed(sample, KERNEL, 0.8)
    for key in reversed(lazy):
        later.eval(key, [0.0, 0.5, 2.2])
    for key in lazy:
        assert getattr(later, key).tobytes() == read_first[key].tobytes()


@st.composite
def _smoothing_cases(draw):
    h = draw(st.floats(0.05, 2.0))
    cells = draw(st.sampled_from((16, 32, 64)))
    # data span in bandwidths: all inside the boundary zone, or wider
    reach = draw(st.sampled_from((0.5, 2.0, 10.0)))
    pool = draw(st.lists(st.floats(0.0, reach * h), min_size=1, max_size=30))
    # drawing from a small pool makes ties
    times = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    deltas = draw(st.lists(st.integers(0, 1), min_size=len(times), max_size=len(times)))
    return h, cells, times, deltas


@given(_smoothing_cases())
@example((1.0, 32, [5.0], [1]))
@example((0.7, 16, [0.0, 0.0, 0.1, 0.3], [0, 0, 0, 0]))
@example((1.3, 64, [0.2, 0.2, 0.2, 4.0, 4.0], [1, 0, 1, 0, 1]))
def test_binned_sums_match_direct_oracle(case):
    h, cells, times, deltas = case
    sample = build_sample(_records(times, deltas))
    with mock.patch.object(smoothing, "_CELLS", cells):
        sm = fit_smoothed(sample, KERNEL, h)
    grid, g0, g1, dg0, dg1 = direct_smoothed(sample, KERNEL, h, cells)
    np.testing.assert_array_equal(sm.grid, grid)
    scale = max(np.max(np.abs(g0)), np.max(np.abs(g1)))
    dscale = max(np.max(np.abs(dg0)), np.max(np.abs(dg1)))
    for got, want in ((sm.g0, g0), (sm.g1, g1)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)
    for got, want in ((sm.dg0, dg0), (sm.dg1, dg1)):
        np.testing.assert_allclose(got[cells:], want[cells:], rtol=0, atol=1e-13 * dscale)
        # boundary derivatives are grid differences of the densities
        np.testing.assert_allclose(
            got[:cells], want[:cells], rtol=0, atol=1e-13 * scale / sm.spacing
        )


@st.composite
def _moment_cases(draw):
    delta = draw(st.sampled_from((0.01, 0.1, 0.37, 1.0, 1e3)))
    pool = draw(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=20))
    # drawing from a small pool makes ties
    times = sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60)))
    counts = draw(st.lists(st.integers(1, 5), min_size=len(times), max_size=len(times)))
    ones = draw(st.sampled_from(("none", "all", "some")))
    if ones == "some":
        ones = [draw(st.integers(0, c)) for c in counts]
    else:
        ones = counts if ones == "all" else [0] * len(counts)
    powers = draw(st.sampled_from((1, 2, 7, 8)))
    return times, counts, ones, delta, powers


@given(_moment_cases())
@example(([3.5], [1], [1], 0.1, 8))  # n = 1
@example(([0.1, 0.2, 0.2, 0.9], [1, 3, 2, 1], [0, 3, 1, 0], 1.0, 8))  # one cell
@example(([0.0, 2.0, 2.0, 7.5], [2, 1, 4, 1], [0, 0, 0, 0], 0.37, 1))
@example(([0.0, 2.0, 7.5], [2, 1, 4], [2, 1, 4], 0.37, 2))
def test_binned_moments_match_vander_oracle(case):
    times, counts, ones, delta, powers = case
    times = np.asarray(times, dtype=float)
    counts, ones = np.asarray(counts), np.asarray(ones)
    weights = np.column_stack([counts - ones, ones]).astype(float)
    got, _ = _binned_moments(times, weights, [delta], powers, 0)
    want = binned_moments_vander(times, weights, delta, powers)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def _batch_cases(draw):
    cells = draw(st.sampled_from((16, 32, 64)))
    pool = draw(st.lists(st.floats(0.0, 6.0), min_size=1, max_size=25))
    # drawing from a small pool makes ties
    times = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    deltas = draw(st.lists(st.integers(0, 1), min_size=len(times), max_size=len(times)))
    # unsorted, with duplicates, some at least the data span
    hs = draw(st.lists(st.sampled_from((0.05, 0.3, 0.3, 1.1, 4.0, 9.0)), min_size=1, max_size=8))
    # a budget of 0 fits one bandwidth per chunk; 600 cells split the
    # small bandwidths apart and group the wide ones
    budget = draw(st.sampled_from((0, 600, 8192)))
    return cells, times, deltas, hs, budget


@given(_batch_cases())
@example((32, [5.0], [1], [1.0, 0.3, 9.0], 8192))  # n = 1
@example((16, [0.0, 0.0, 0.1, 0.3], [0, 1, 0, 1], [4.0, 0.05, 4.0], 0))
@example((64, [0.2, 0.2, 0.2, 4.0, 4.0], [1, 0, 1, 0, 1], [9.0, 1.1, 0.3, 1.1], 600))
def test_batch_matches_per_h_oracle(case):
    cells, times, deltas, hs, budget = case
    sample = build_sample(_records(times, deltas))
    with mock.patch.object(smoothing, "_CHUNK_BUDGET", budget), mock.patch.object(
        smoothing, "_CELLS", cells
    ):
        fits = list(_fit_smoothed_many(sample, KERNEL, hs))
    assert [sm.h for sm in fits] == hs
    for sm in fits:
        want = fit_smoothed_per_h(sample, KERNEL, sm.h, cells)
        assert sm.grid.tobytes() == want.grid.tobytes()
        assert sm.moments.tobytes() == want.moments.tobytes()
        # The last 2K nodes of a segment with others in its chunk sum
        # zero cells of the gap, so their rounding may move; a lone
        # bandwidth is its own fit.
        head = sm.grid.size if budget == 0 else max(cells, sm.grid.size - 1 - 2 * cells)
        scale = np.max(np.abs(want.g))
        for key in ("g0", "g1", "G"):
            got, ref = getattr(sm, key), getattr(want, key)
            assert got[:head].tobytes() == ref[:head].tobytes()
            np.testing.assert_allclose(got[head:], ref[head:], rtol=0, atol=1e-14 * scale)
        for key in ("dg0", "dg1"):
            assert getattr(sm, key).tobytes() == getattr(want, key).tobytes()
