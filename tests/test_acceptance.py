"""Acceptance suite: one test per shipped guarantee.

Each test prints a single summary line on success; pytest's own
PASSED/FAILED markers give the per-criterion verdict.  Tolerances and
runtime budgets are pinned in the asserts.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.integrate import trapezoid

from curstat import (
    BootstrapConfig,
    amse,
    amse_optimal_c,
    boundary_family,
    bootstrap_bandwidth,
    build_sample,
    fit_mle,
    fit_msle,
    fit_smoothed,
    mc_bandwidth,
    msle_F,
    pava_blocks,
    rate_exponent,
    sample_current_status,
    smle_F,
    smle_f,
    naive_F,
    triweight,
    truth_gamma4_exp3,
    G_FLOOR,
)
from curstat.cli import main as cli_main

from oracles import (
    CusumDiagram,
    boundary_kernel,
    gcm_left_slopes,
    golden_section_min,
    grid_mle_oracle,
    simpson,
)

KERNEL = triweight()
TRUTH = truth_gamma4_exp3()

# limit law of the normalized smoothed distribution estimator at the
# reference point t = 4 with constant c = 6.467, computed offline to
# eight digits: mean (1/2)c^2 m2 f0'(4), sd sqrt(V/c)
LIMIT_MEAN = 0.20962979
LIMIT_SD = 0.41932078


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, (
            f"runtime budget exceeded: {elapsed:.1f}s >= {self.seconds}s"
        )
        return elapsed


def test_criterion_1_closed_form_constants():
    budget = _Budget(1.0)
    c4 = amse_optimal_c("F", "SM", TRUTH, 4.0, KERNEL)
    c65 = amse_optimal_c("F", "SM", TRUTH, 6.5, KERNEL)
    assert c4 == pytest.approx(6.467, abs=0.005)
    assert c65 == pytest.approx(10.426, abs=0.005)
    assert c4 * 10000 ** -rate_exponent("F") == pytest.approx(1.025, abs=0.002)
    assert c65 * 10000 ** -rate_exponent("F") == pytest.approx(1.652, abs=0.002)
    elapsed = budget.check()
    print(f"\ncriterion 1 PASS: reference constants and bandwidths ({elapsed:.2f}s)")


def test_criterion_2_constants_match_numeric_argmin():
    budget = _Budget(10.0)
    rng = np.random.default_rng(20260816)
    points = rng.uniform(2.6, 7.4, 20)
    checked = 0
    for target in ("F", "f", "lambda"):
        for method in ("MS", "SM"):
            for t in points:
                want = amse_optimal_c(target, method, TRUTH, float(t), KERNEL)
                got = golden_section_min(
                    lambda c: amse(target, method, TRUTH, float(t), KERNEL, c),
                    want / 50.0,
                    want * 50.0,
                    tol=want * 1e-7,
                )
                assert abs(got - want) / want < 1e-5, (target, method, t)
                checked += 1
    assert checked == 120
    elapsed = budget.check()
    print(f"\ncriterion 2 PASS: six constants vs numeric argmin at 20 points ({elapsed:.2f}s)")


def test_criterion_3_mle_against_grid_oracle_and_pava():
    budget = _Budget(30.0)
    # every indicator pattern up to six observations
    for n in range(1, 7):
        times = np.arange(1.0, n + 1.0)
        for deltas in itertools.product((0, 1), repeat=n):
            fit = fit_mle(build_sample(np.column_stack([times, deltas])))
            got = np.asarray(fit.cdf(times))
            want = grid_mle_oracle(list(deltas), steps=400)
            assert np.max(np.abs(got - want)) <= 1.0 / 400 + 1e-9, deltas
    # hull slopes and isotonic regression are the same map
    rng = np.random.default_rng(3)
    for _ in range(1000):
        k = int(rng.integers(1, 40))
        values = rng.normal(size=k)
        weights = rng.uniform(0.5, 2.0, size=k)
        x = np.concatenate([[0.0], np.cumsum(weights)])
        y = np.concatenate([[0.0], np.cumsum(weights * values)])
        slopes = gcm_left_slopes(CusumDiagram(x=x, y=y))
        assert np.max(np.abs(slopes - pava_blocks(values, weights)[0])) < 1e-12
    elapsed = budget.check()
    print(f"\ncriterion 3 PASS: 126 exhaustive patterns vs DP oracle, 1000 hull=pava cases ({elapsed:.2f}s)")


def test_criterion_4_boundary_kernel_moments():
    budget = _Budget(5.0)
    family = boundary_family(KERNEL)
    for beta in np.linspace(0.0, 1.0, 101):
        nodes = np.linspace(-1.0, float(beta), 4001)
        vals = boundary_kernel(family, float(beta), nodes)
        spacing = nodes[1] - nodes[0] if beta > 0 else (beta + 1.0) / 4000
        m0 = simpson(vals, spacing)
        m1 = simpson(vals * nodes, spacing)
        assert abs(m0 - 1.0) < 1e-8, beta
        assert abs(m1) < 1e-8, beta
    u = np.linspace(-1.2, 1.2, 2001)
    assert np.max(np.abs(boundary_kernel(family, 1.0, u) - KERNEL.k(u))) <= 1e-14
    elapsed = budget.check()
    print(f"\ncriterion 4 PASS: boundary moments on 101 betas, identity member exact ({elapsed:.2f}s)")


def test_criterion_5_msle_equals_naive_under_monotonicity():
    budget = _Budget(60.0)
    h = 0.7
    for seed in range(200):
        sample = sample_current_status(TRUTH, 500, seed).sample
        sm = fit_smoothed(sample, KERNEL, h)
        fit = fit_msle(sm)
        touch = fit.touch_mask
        if np.any(touch):
            ratio = sm.g1[touch] / sm.g[touch]
            assert np.max(np.abs(fit.F_tab[touch] - ratio)) < 1e-8
        w = sm.g * sm.spacing
        active = np.flatnonzero(w > 0.0)
        want = pava_blocks(sm.g1[active] / sm.g[active], w[active])[0]
        assert np.max(np.abs(fit.F_tab[active] - want)) <= 1e-8
        # shape ride-along asserted on every sample in the suite
        assert fit.F_tab[0] >= 0.0 and fit.F_tab[-1] <= 1.0
        assert np.all(np.diff(fit.F_tab) >= 0.0)
    elapsed = budget.check()
    print(f"\ncriterion 5 PASS: 200 samples, monotonized = naive at touch nodes, slopes = pava ({elapsed:.2f}s)")


def test_criterion_6_asymptotic_normality_desk_scale():
    budget = _Budget(300.0)
    n, B, c = 10000, 300, 6.467
    h = c * n ** -0.2
    theta0 = float(TRUTH.F0(4.0))

    from curstat._threads import replicate_map

    def one(i, rng):
        sample = sample_current_status(TRUTH, n, rng).sample
        return float(smle_F(fit_mle(sample), KERNEL, h, 4.0))

    vals = np.array(replicate_map(one, B, 101))
    z = n ** 0.4 * (vals - theta0)
    mean, sd = float(np.mean(z)), float(np.std(z, ddof=1))
    assert abs(mean - LIMIT_MEAN) <= 0.30 * LIMIT_MEAN, (mean, LIMIT_MEAN)
    assert abs(sd - LIMIT_SD) <= 0.20 * LIMIT_SD, (sd, LIMIT_SD)
    elapsed = budget.check()
    print(f"\ncriterion 6 PASS: normalized mean {mean:.4f} vs {LIMIT_MEAN}, sd {sd:.4f} vs {LIMIT_SD} ({elapsed:.1f}s)")


def test_criterion_7_bandwidth_selectors_desk_scale():
    budget = _Budget(600.0)
    mc = mc_bandwidth(TRUTH, 2000, 200, None, 4.0, "F", "SM", KERNEL, seed=7)
    assert 4.0 <= mc.c_tilde <= 11.0, mc.c_tilde
    sample = sample_current_status(TRUTH, 2000, 77).sample
    cfg = BootstrapConfig(m=500, B=100, c0=10.0, t=4.0, seed=7)
    sel = bootstrap_bandwidth(sample, cfg, "F", "SM", KERNEL)
    assert 3.0 <= sel.c_hat <= 16.0, sel.c_hat
    elapsed = budget.check()
    print(f"\ncriterion 7 PASS: mc c = {mc.c_tilde:.3f} in [4, 11], bootstrap c = {sel.c_hat:.3f} in [3, 16] ({elapsed:.1f}s)")


def test_criterion_8_conservation_and_shape():
    budget = _Budget(120.0)
    cases = [(n, h) for n in (50, 200, 800) for h in (0.5, 0.8, 1.0)]
    seed = 0
    for n, h in cases:
        for _ in range(7):
            sample = sample_current_status(TRUTH, n, 9000 + seed).sample
            seed += 1
            mle = fit_mle(sample)
            grid = np.linspace(0.0, float(sample.times[-1]) + h, 4001)
            fvals = np.asarray(smle_f(mle, KERNEL, h, grid))
            assert np.all(fvals >= 0.0)
            mass = float(trapezoid(fvals, grid))
            assert abs(mass - mle.values[-1]) <= 1e-4, (n, h, mass)
            F_sm = np.asarray(smle_F(mle, KERNEL, h, grid))
            F_step = np.asarray(mle.cdf(grid))
            fit = fit_msle(fit_smoothed(sample, KERNEL, h))
            F_ms = np.asarray(msle_F(fit, grid))
            for F in (F_sm, F_step, F_ms):
                assert F.min() >= 0.0 and F.max() <= 1.0
            for F in (F_step, F_ms):
                assert np.all(np.diff(F) >= 0.0)
            assert np.all(np.diff(F_sm) >= -1e-12)
            sm = fit.source
            safe = np.asarray(sm.eval("g", grid)) > G_FLOOR
            if np.any(safe):
                F_nv = np.asarray(naive_F(sm, grid[safe]))
                assert F_nv.min() >= 0.0 and F_nv.max() <= 1.0
    elapsed = budget.check()
    print(f"\ncriterion 8 PASS: {seed} samples, density mass = MLE mass, F-curves in [0,1], monotone ({elapsed:.1f}s)")


def test_criterion_9_byte_identical_runs(tmp_path):
    budget = _Budget(120.0)
    gen = sample_current_status(TRUTH, 200, 13)
    inp = tmp_path / "obs.csv"
    lines = ["t,delta"] + [
        f"{float(t)!r},{int(d)}" for t, d in zip(gen.raw_times, gen.raw_deltas)
    ]
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8")

    commands = {
        "bandwidth": [
            "bandwidth", "--input", str(inp), "--t", "4", "--m", "120",
            "--B", "8", "--c0", "10", "--seed", "5",
            "--c-min", "4", "--c-max", "16", "--c-points", "6",
        ],
        "simulate": [
            "simulate", "--n", "100", "--B", "6", "--t", "4",
            "--method", "smle", "--target", "F", "--c", "6.467", "--seed", "5",
        ],
        "estimate-select": [
            "estimate", "--input", str(inp), "--method", "smle",
            "--target", "F", "--select-bootstrap", "--t", "4", "--m", "120",
            "--B", "4", "--c0", "10", "--seed", "5", "--grid-points", "51",
        ],
        "reproduce-table1": [
            "reproduce-table1", "--n", "80", "--m", "40", "--B", "2",
            "--c0-set", "8", "--seed", "5",
        ],
    }
    for name, args in commands.items():
        outputs = []
        for run in ("a", "b", "c"):
            out = tmp_path / f"{name}-{run}"
            assert cli_main(args + ["--output", str(out)]) == 0, name
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], name
    elapsed = budget.check()
    print(f"\ncriterion 9 PASS: four stochastic commands byte-stable across reruns ({elapsed:.1f}s)")
