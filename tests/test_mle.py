import importlib.machinery
import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from curstat import mle
from curstat.errors import (
    BadIndicator,
    EmptySample,
    InputError,
    LengthMismatch,
    NegativeTime,
    NonpositiveWeight,
    OutOfDomain,
)
from curstat.estimators import smle_F
from curstat.kernels import triweight
from curstat.mle import build_sample, fit_mle, pava_blocks

from oracles import (
    CusumDiagram,
    cusum,
    gcm_left_slopes,
    grid_mle_oracle,
    hull_mle,
    pava_blocks_loop,
)


# --- build_sample ----------------------------------------------------------

def test_single_record_groups():
    s = build_sample([(2.0, 1)])
    assert s.times.tolist() == [2.0]
    assert s.counts.tolist() == [1]
    assert s.ones.tolist() == [1]
    assert s.n == 1


def test_ties_collapse_into_weighted_groups():
    s = build_sample([(1.0, 1), (2.0, 0), (1.0, 0), (1.0, 1), (2.0, 0)])
    assert s.times.tolist() == [1.0, 2.0]
    assert s.counts.tolist() == [3, 2]
    assert s.ones.tolist() == [2, 0]
    assert s.n == 5


def test_build_sample_accepts_array_input():
    arr = np.array([[0.5, 0.0], [1.5, 1.0]])
    s = build_sample(arr)
    assert s.times.tolist() == [0.5, 1.5]


def test_build_sample_rejects_bad_input():
    with pytest.raises(EmptySample):
        build_sample([])
    with pytest.raises(NegativeTime):
        build_sample([(-1.0, 0)])
    with pytest.raises(NegativeTime):
        build_sample([(np.nan, 0)])
    with pytest.raises(BadIndicator):
        build_sample([(1.0, 2)])
    with pytest.raises(BadIndicator):
        build_sample([(1.0, 0.5)])


def test_time_zero_is_allowed():
    s = build_sample([(0.0, 0), (1.0, 1)])
    assert s.times[0] == 0.0


# --- cusum diagram and hull (the oracle of fit_mle) -----------------------

def test_cusum_three_points():
    s = build_sample([(1.0, 1), (2.0, 0), (3.0, 1)])
    d = cusum(s)
    np.testing.assert_allclose(d.x, [0, 1 / 3, 2 / 3, 1])
    np.testing.assert_allclose(d.y, [0, 1 / 3, 1 / 3, 2 / 3])
    assert d.cum_counts.tolist() == [0, 1, 2, 3]
    assert d.cum_ones.tolist() == [0, 1, 1, 2]


# --- gcm slopes ------------------------------------------------------------

def test_gcm_slopes_diagonal_diagram():
    # all indicators 1: diagram is the diagonal, slopes all 1
    s = build_sample([(float(i), 1) for i in range(1, 6)])
    np.testing.assert_array_equal(gcm_left_slopes(cusum(s)), np.ones(5))


def test_gcm_slopes_flat_diagram():
    s = build_sample([(float(i), 0) for i in range(1, 6)])
    np.testing.assert_array_equal(gcm_left_slopes(cusum(s)), np.zeros(5))


def test_gcm_slopes_known_case():
    # oracle: brute-force grid maximization gives F = (1/2, 1/2, 1)
    s = build_sample([(1.0, 1), (2.0, 0), (3.0, 1)])
    np.testing.assert_allclose(gcm_left_slopes(cusum(s)), [0.5, 0.5, 1.0])


def test_gcm_slopes_float_diagram():
    # generic weighted diagram without integer counts; every point is a
    # vertex because the chord slopes 0.1, 0.6, 1.4 already increase
    x = np.array([0.0, 0.2, 0.5, 1.0])
    y = np.array([0.0, 0.02, 0.2, 0.9])
    slopes = gcm_left_slopes(CusumDiagram(x=x, y=y))
    np.testing.assert_allclose(slopes, [0.1, 0.6, 1.4])
    # both interior points sit above the single chord from (0,0) to (1,0.9)
    x2 = np.array([0.0, 0.2, 0.5, 1.0])
    y2 = np.array([0.0, 0.4, 0.5, 0.9])
    np.testing.assert_allclose(gcm_left_slopes(CusumDiagram(x=x2, y=y2)), [0.9, 0.9, 0.9])


# --- fit_mle ---------------------------------------------------------------

def test_fit_mle_single_positive_record():
    fit = fit_mle(build_sample([(2.0, 1)]))
    assert fit.jump_times.tolist() == [2.0]
    assert fit.values.tolist() == [1.0]
    assert fit.cdf(1.9) == 0.0
    assert fit.cdf(2.0) == 1.0
    assert fit.cdf(100.0) == 1.0


def test_fit_mle_all_negative_records():
    fit = fit_mle(build_sample([(1.0, 0), (2.0, 0)]))
    assert len(fit.values) == 0
    assert fit.cdf(5.0) == 0.0


def test_cdf_rejects_nan_and_keeps_its_limits():
    fit = fit_mle(build_sample([(1.0, 1), (2.0, 0), (3.0, 1)]))
    for t in (float("nan"), [float("nan"), 2.5], [2.5, float("nan")]):
        with pytest.raises(OutOfDomain, match="nan"):
            fit.cdf(t)
    with pytest.raises(OutOfDomain):
        fit_mle(build_sample([(1.0, 0)])).cdf(float("nan"))
    assert fit.cdf(-1.0) == 0.0
    assert fit.cdf(-np.inf) == 0.0
    assert fit.cdf(np.inf) == 1.0
    assert np.asarray(fit.cdf([-1.0, np.inf])).tolist() == [0.0, 1.0]


def test_fit_mle_known_three_point_case():
    fit = fit_mle(build_sample([(1.0, 1), (2.0, 0), (3.0, 1)]))
    assert fit.jump_times.tolist() == [1.0, 3.0]
    np.testing.assert_allclose(fit.values, [0.5, 1.0])
    np.testing.assert_allclose(fit.masses, [0.5, 0.5])
    assert fit.values[-1] == 1.0


def test_fit_mle_values_monotone_in_unit_interval():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        t = np.round(rng.uniform(0, 10, n), 1)  # force some ties
        d = rng.integers(0, 2, n)
        fit = fit_mle(build_sample(np.column_stack((t, d))))
        v = fit.cdf(np.sort(np.unique(t)))
        assert np.all(np.diff(np.atleast_1d(v)) >= 0)
        assert np.all((np.atleast_1d(v) >= 0) & (np.atleast_1d(v) <= 1))


def test_fit_mle_block_characterization():
    # on each constancy block, the fitted value is the block mean of the
    # indicators, so the within-block residuals sum to zero
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 80))
        t = rng.uniform(0, 5, n)
        d = rng.integers(0, 2, n)
        sample = build_sample(np.column_stack((t, d)))
        vals = np.atleast_1d(fit_mle(sample).cdf(sample.times))
        blocks = np.concatenate(([0], np.flatnonzero(np.diff(vals) != 0) + 1, [len(vals)]))
        for a, b in zip(blocks[:-1], blocks[1:]):
            resid = sample.ones[a:b].sum() - (sample.counts[a:b] * vals[a:b]).sum()
            assert abs(resid) < 1e-12


@st.composite
def _current_status_samples(draw):
    """Up to 400 observations on a pool of up to 60 times, so ties are
    common, with indicators that are all 0, all 1, coin flips, or the
    current status of 2 + Gamma(4, 1) event times (fits with many jumps).
    The arrays come from a drawn seed, so large cases cost little."""
    n = draw(st.integers(1, 400))
    pool = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(("status", "coins", "zeros", "ones")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.choice(rng.exponential(3.0, pool), n)
    if kind == "status":
        deltas = 2.0 + rng.gamma(4.0, 1.0, n) <= times
    elif kind == "coins":
        deltas = rng.random(n) < rng.random()
    else:
        deltas = np.full(n, kind == "ones")
    return times.tolist(), deltas.astype(int).tolist()


@given(_current_status_samples())
@example(([2.5], [1]))
@example(([2.5], [0]))
@example(([1.0, 1.0, 2.0, 2.0, 3.0], [0, 1, 1, 0, 1]))
# pooled blocks whose floating-point weighted mean differs in the last
# bit from the exact ratio of integer totals
@example((
    [0.0] * 6 + [1.0] * 3 + [2.0] * 3 + [4.0] * 4 + [5.0, 6.0, 7.0, 8.0, 8.0, 9.0, 9.0, 10.0, 10.0],
    [1] * 5 + [0] + [1, 1, 0] + [1, 1, 0] + [1, 0, 0, 0] + [1, 1, 0, 1, 0, 0, 0, 1, 0],
))
def test_fit_mle_matches_integer_hull_bitwise(case):
    times, deltas = case
    sample = build_sample(np.column_stack((times, deltas)))
    fit = fit_mle(sample)
    jump_times, values = hull_mle(sample)
    assert fit.jump_times.tobytes() == jump_times.tobytes()
    assert fit.values.tobytes() == values.tobytes()


def test_masses_are_cached_and_read_only():
    fit = fit_mle(build_sample([(1.0, 1), (2.0, 0), (3.0, 1), (4.0, 1)]))
    masses = fit.masses
    assert fit.masses is masses
    assert not masses.flags.writeable
    with pytest.raises(ValueError):
        masses[0] = 0.25
    first = [smle_F(fit, triweight(), 1.5, t) for t in (0.5, 2.0, 3.5)]
    again = [smle_F(fit, triweight(), 1.5, t) for t in (0.5, 2.0, 3.5)]
    assert first == again
    assert masses.tolist() == [0.5, 0.5]


def test_fit_mle_exhaustive_against_grid_oracle_small_n():
    # full exhaustive run over n <= 6 lives in the acceptance suite
    times = np.arange(1.0, 5.0)
    for n in (1, 2, 3, 4):
        for pattern in itertools.product((0, 1), repeat=n):
            sample = build_sample(np.column_stack((times[:n], pattern)))
            fitted = fit_mle(sample).cdf(times[:n])
            oracle = grid_mle_oracle(pattern)
            assert np.max(np.abs(np.atleast_1d(fitted) - oracle)) <= 1 / 400 + 1e-12


# --- pava ------------------------------------------------------------------

def test_pava_pools_violators():
    np.testing.assert_allclose(pava_blocks([3.0, 1.0, 2.0], [1.0, 1.0, 1.0])[0], [2.0, 2.0, 2.0])


def test_pava_keeps_monotone_input_bitwise():
    v = np.array([0.1, 0.1, 0.25, 0.7])
    out = pava_blocks(v, np.array([0.5, 2.0, 1.0, 3.0]))[0]
    assert out.tolist() == v.tolist()


def test_pava_weighted_example():
    # single violation: pooled mean of (4, 1) with weights (1, 3) is 1.75
    np.testing.assert_allclose(pava_blocks([4.0, 1.0], [1.0, 3.0])[0], [1.75, 1.75])


def test_pava_rejects_bad_input():
    with pytest.raises(LengthMismatch):
        pava_blocks([1.0, 2.0], [1.0])
    with pytest.raises(NonpositiveWeight):
        pava_blocks([1.0, 2.0], [1.0, 0.0])
    with pytest.raises(NonpositiveWeight):
        pava_blocks([1.0, 2.0], [1.0, -2.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match=r"value 1 must be finite"):
            pava_blocks([1.0, bad, 0.5, bad], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(NonpositiveWeight, match=r"weight 1 must be finite and > 0"):
            pava_blocks([1.0, 0.2, 0.5], [1.0, bad, 1.0])


def test_pava_blocks_keeps_equal_inputs_apart():
    # scipy pools the equal run at the end; it comes back as singletons
    v = np.array([0.2, 0.1] + [0.3] * 5)
    fitted, sizes = pava_blocks(v, np.ones(7))
    assert sizes.tolist() == [2, 1, 1, 1, 1, 1]
    assert fitted[2:].tobytes() == v[2:].tobytes()


def test_pava_idempotent_exactly():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        v = rng.normal(size=n)
        w = rng.uniform(0.1, 5.0, size=n)
        once = pava_blocks(v, w)[0]
        twice = pava_blocks(once, w)[0]
        assert np.array_equal(once, twice)


def test_pava_matches_gcm_slopes_on_weighted_diagrams():
    # the two routes are algebraic duals; acceptance runs 1000 cases
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        v = rng.normal(size=n)
        w = rng.uniform(0.05, 4.0, size=n)
        x = np.concatenate(([0.0], np.cumsum(w)))
        y = np.concatenate(([0.0], np.cumsum(w * v)))
        slopes = gcm_left_slopes(CusumDiagram(x=x, y=y))
        np.testing.assert_allclose(pava_blocks(v, w)[0], slopes, atol=1e-12)


# --- pava_blocks against the Python loop -----------------------------------

@st.composite
def _pava_cases(draw):
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("continuous", "levels", "near-sorted", "ulps")))
    if kind == "continuous":
        values = draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))
    elif kind == "levels":
        # a few rounded levels make exact ties
        values = [round(x, 1) for x in draw(st.lists(st.floats(0.0, 0.3), min_size=n, max_size=n))]
    elif kind == "near-sorted":
        values = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        values[i], values[j] = values[j], values[i]
    else:
        # values a few ulp apart, where pooled means round across neighbours
        base = draw(st.sampled_from((0.1, 0.45, 0.5, 1.0 / 3.0)))
        steps = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        values = [base + k * np.spacing(base) for k in steps]
    weighting = draw(st.sampled_from(("unit", "random", "integer")))
    if weighting == "unit":
        weights = [1.0] * n
    elif weighting == "random":
        weights = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    else:
        weights = [float(k) for k in draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))]
    return np.array(values), np.array(weights)


@given(_pava_cases())
# monotone, but scipy pools the two levels and lowers the value below 0.45
@example((np.array([0.45] * 8 + [np.nextafter(0.45, 1.0)] * 28 + [0.48] * 5), np.ones(41)))
@example((np.array([2.0, 1.0, 1.5]), np.ones(3)))
@example((np.array([0.3]), np.array([2.0])))
@example((np.array([0.7] * 6), np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])))
@example((
    # scipy's pooled mean of the first two entries rounds below the next
    # block's, so splitting that tied block would break monotonicity
    np.array([0.4999999999999999, 0.4999999999999999, 0.5000000000000003,
              0.4999999999999998, 0.4999999999999999, 0.4999999999999998,
              0.5000000000000002]),
    np.array([6.0, 3.0, 1.0, 9.0, 5.0, 1.0, 3.0]),
))
def test_pava_blocks_matches_loop_oracle(case):
    v, w = case
    fitted, sizes = pava_blocks(v, w)
    want, want_sizes = pava_blocks_loop(v, w)
    assert sizes.sum() == v.size and np.all(sizes >= 1)

    # exact on every input
    assert np.all(fitted[1:] >= fitted[:-1])
    again, again_sizes = pava_blocks(fitted, w)
    assert again.tobytes() == fitted.tobytes()
    assert np.all(again_sizes == 1)
    single = np.repeat(sizes == 1, sizes)
    assert fitted[single].tobytes() == v[single].tobytes()
    if np.all(np.diff(v) >= 0.0):
        assert fitted.tobytes() == v.tobytes()
        assert np.all(sizes == 1)

    # Fitted values: both are the rounded weighted mean of a block, summed
    # in different orders, so they agree to the block size in ulps.
    ulp = np.spacing(np.max(np.abs(v)))
    block = np.maximum(np.repeat(sizes, sizes), np.repeat(want_sizes, want_sizes))
    tol = 2.0 * block * ulp
    assert np.all(np.abs(fitted - want) <= tol)

    # Block partitions differ only where two neighbouring blocks have means
    # equal to that rounding, so pooling them or not is a rounding choice.
    ours = set(np.cumsum(sizes)[:-1].tolist())
    theirs = set(np.cumsum(want_sizes)[:-1].tolist())
    for b in ours ^ theirs:
        bound = max(tol[b - 1], tol[b])
        assert abs(fitted[b] - fitted[b - 1]) <= bound
        assert abs(want[b] - want[b - 1]) <= bound


# --- the compiled solver ----------------------------------------------------

@st.composite
def _isotonic_cases(draw):
    """_pava_cases, with integer weights sometimes passed as an int array."""
    y, w = draw(_pava_cases())
    if np.all(w % 1 == 0) and draw(st.booleans()):
        w = w.astype(np.int64)
    return y, w


@given(_isotonic_cases())
@example((np.array([0.3]), np.array([2.0])))
@example((np.array([0.7] * 6), np.array([3, 1, 4, 1, 5, 9])))
@example((np.array([0.1, 0.2, 0.2, 0.9]), np.array([1.0, 2.0, 0.5, 1.0])))
@example((np.array([0.4, 0.4, 0.1, 0.1, 0.6]), np.array([2, 2, 1, 1, 7])))
def test_isotonic_matches_scipy_bit_for_bit(case):
    y, w = case
    x, blocks = mle._isotonic(y, w)
    want = isotonic_regression(y, weights=w)
    assert x.tobytes() == want.x.tobytes()
    assert blocks.tolist() == want.blocks.tolist()


def test_pava_from_its_import_gives_the_same_fits(monkeypatch):
    # with the extension file not found, the solver comes from its module
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    imported = mle._load_pava()
    rng = np.random.default_rng(41)
    for n in (1, 2, 7, 60):
        y = np.round(rng.normal(size=n), 1)
        w = rng.uniform(0.1, 3.0, size=n)
        r = np.full(n + 1, -1, dtype=np.intp)
        x, _, r, b = imported(y.copy(), w.copy(), r)
        want, blocks = mle._isotonic(y, w)
        assert x.tobytes() == want.tobytes()
        assert r[: b + 1].tolist() == blocks.tolist()
