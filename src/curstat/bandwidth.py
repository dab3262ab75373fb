"""Bandwidth selection: asymptotic MSE formulas and resampling selectors.

For a bandwidth h = c n^{-alpha} the pointwise asymptotic MSE of each
estimator/target pair has the shape

    aMSE(c) = (1/4) c^4 m2(k)^2 b(t)^2 + c^{-p} V(t),

with p = 1 for distribution targets (alpha = 1/5) and p = 3 for density
and hazard targets (alpha = 1/7).  The bias factor b and variance
factor V depend on the estimator family:

    b, monotonized (MS):   F: f0' + 2 f0 g'/g
                           f: q = f0'' + 2(g'' f0 + g' f0')/g - 2 g'^2 f0 / g^2
                           lambda: q/(1-F0) + f0 (f0' + 2 g' f0/g)/(1-F0)^2
    b, smoothed MLE (SM):  F: f0'
                           f: f0''
                           lambda: (f0'' + f0 f0'/(1-F0))/(1-F0)

    V (method-independent): F: F0(1-F0)/g * int k^2
                            f: F0(1-F0)/g * int k'^2
                            lambda: F0/(g(1-F0)) * int k'^2

Setting the derivative to zero gives c* = (p V / (m2^2 b^2))^{1/(p+4)}.

Two data-driven selectors estimate the MSE curve over a grid of c:
a smoothed bootstrap that resamples from pilot fits of the observed
data, and a Monte Carlo variant that resamples from a known truth.
Both minimize the curve on the grid and sharpen the minimizer with a
three-point parabola in log c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._threads import replicate_map
from .errors import (
    DegenerateBias,
    EmptyGrid,
    HazardDenominatorViolation,
    InputError,
    PilotDegenerate,
    ZeroCensoringDensity,
)
from .estimators import _EVAL, _MSLE_EVAL, _SMLE_EVAL, _Fits, fit_msle, smle_F  # noqa: F401
from .kernels import Kernel
from .mle import ObservedSample, build_sample, fit_mle
from .sim import TruthSpec, _draw
from .smoothing import _fit_smoothed_many

__all__ = [
    "rate_exponent",
    "bias_factor",
    "variance_factor",
    "amse",
    "amse_optimal_c",
    "BootstrapConfig",
    "BootstrapSelection",
    "MonteCarloSelection",
    "bootstrap_bandwidth",
    "mc_bandwidth",
]

_TARGETS = ("F", "f", "lambda")
_METHODS = ("MS", "SM")
# the estimator family each method tunes; the two families' tables
# _MSLE_EVAL and _SMLE_EVAL are bound here as well, the same dicts as in
# curstat.estimators
_FAMILY = {"MS": "msle", "SM": "smle"}

# the pilot bandwidth always uses the distribution rate; replicate
# fits use the target's own rate
_PILOT_ALPHA = 0.2

_BIAS_ZERO = 1e-12


def rate_exponent(target: str) -> float:
    """1/5 for distribution targets, 1/7 for density and hazard."""
    if target == "F":
        return 0.2
    if target in ("f", "lambda"):
        return 1.0 / 7.0
    raise ValueError(f"unknown target {target!r}")


def _check_tm(target: str, method: str) -> None:
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")


def bias_factor(target: str, method: str, truth: TruthSpec, t: float) -> float:
    """The constant multiplying (1/2) m2 h^2 in the asymptotic bias."""
    _check_tm(target, method)
    g = float(truth.g(t))
    # written so that a nan density, as at t = nan, fails too
    if not g > 0.0:
        raise ZeroCensoringDensity(f"censoring density vanishes at t={t:.6g}")
    F0 = float(truth.F0(t))
    f0 = float(truth.f0(t))
    df0 = float(truth.df0(t))
    d2f0 = float(truth.d2f0(t))
    dg = float(truth.dg(t))
    d2g = float(truth.d2g(t))
    if target == "lambda" and F0 >= 1.0 - 1e-12:
        raise HazardDenominatorViolation(f"F0(t)=1 at t={t:.6g}; hazard undefined")

    if method == "SM":
        if target == "F":
            return df0
        if target == "f":
            return d2f0
        return (d2f0 + f0 * df0 / (1.0 - F0)) / (1.0 - F0)

    if target == "F":
        return df0 + 2.0 * f0 * dg / g
    q = d2f0 + 2.0 * (d2g * f0 + dg * df0) / g - 2.0 * dg * dg * f0 / (g * g)
    if target == "f":
        return q
    return q / (1.0 - F0) + f0 * (df0 + 2.0 * dg * f0 / g) / (1.0 - F0) ** 2


def variance_factor(target: str, truth: TruthSpec, t: float, kernel: Kernel) -> float:
    """The constant multiplying 1/(n h^{2j+1}) in the asymptotic variance
    (j = 0 for F, 1 for f and lambda); identical for both methods."""
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}")
    g = float(truth.g(t))
    if not g > 0.0:
        raise ZeroCensoringDensity(f"censoring density vanishes at t={t:.6g}")
    F0 = float(truth.F0(t))
    if target == "F":
        return F0 * (1.0 - F0) / g * kernel.l2_k
    if target == "f":
        return F0 * (1.0 - F0) / g * kernel.l2_kprime
    if F0 >= 1.0 - 1e-12:
        raise HazardDenominatorViolation(f"F0(t)=1 at t={t:.6g}; hazard undefined")
    return F0 / (g * (1.0 - F0)) * kernel.l2_kprime


def _power(target: str) -> int:
    return 1 if target == "F" else 3


def amse(
    target: str, method: str, truth: TruthSpec, t: float, kernel: Kernel, c
) -> float | np.ndarray:
    """Asymptotic MSE as a function of the bandwidth constant c."""
    b = bias_factor(target, method, truth, t)
    if abs(b) < _BIAS_ZERO:
        raise DegenerateBias(
            f"bias factor vanishes at t={t:.6g}; no finite optimal constant"
        )
    V = variance_factor(target, truth, t, kernel)
    carr = np.asarray(c, dtype=float)
    if not np.all((carr > 0.0) & (carr < math.inf)):
        raise InputError("bandwidth constants must be positive and finite")
    p = _power(target)
    out = 0.25 * carr**4 * kernel.m2**2 * b * b + carr ** (-p) * V
    return float(out) if np.ndim(c) == 0 else out


def amse_optimal_c(
    target: str, method: str, truth: TruthSpec, t: float, kernel: Kernel
) -> float:
    """Closed-form minimizer of the asymptotic MSE in c."""
    b = bias_factor(target, method, truth, t)
    if abs(b) < _BIAS_ZERO:
        raise DegenerateBias(
            f"bias factor vanishes at t={t:.6g}; no finite optimal constant"
        )
    V = variance_factor(target, truth, t, kernel)
    A = kernel.m2**2 * b * b
    p = _power(target)
    return float((p * V / A) ** (1.0 / (p + 4)))


# ---------------------------------------------------------------------------
# resampling selectors


def _checked_c_grid(c_grid) -> np.ndarray:
    """``c_grid`` as a nonempty 1-d float array of positive finite constants."""
    grid = np.asarray(c_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise EmptyGrid("c_grid must be a nonempty 1-d array")
    if np.any(grid <= 0.0):
        raise InputError("all bandwidth constants must be positive")
    if not np.all(np.isfinite(grid)):
        raise InputError("all bandwidth constants must be finite")
    return grid


@dataclass(frozen=True)
class BootstrapConfig:
    """Parameters of the smoothed-bootstrap selector.

    ``m`` is the bootstrap sample size (at most the data size), ``B``
    the replicate count, ``c0`` the pilot constant (pilot bandwidth
    c0 * n^{-1/5}), ``t`` the evaluation point, ``seed`` the master
    seed.  ``c_grid`` defaults to 60 geometrically spaced constants
    spanning [c0/10, 10 c0].
    """

    m: int
    B: int
    c0: float
    t: float
    seed: int
    c_grid: np.ndarray | None = None

    def __post_init__(self):
        if self.m < 1:
            raise InputError(f"bootstrap sample size must be >= 1, got {self.m}")
        if self.B < 1:
            raise InputError(f"replicate count must be >= 1, got {self.B}")
        if not self.c0 > 0.0:
            raise InputError(f"pilot constant must be positive, got {self.c0}")
        if not 10.0 * self.c0 < math.inf:
            raise InputError(f"pilot constant must keep the c-grid end 10 c0 finite, got {self.c0}")
        if self.t < 0.0:
            raise InputError(f"evaluation point must be >= 0, got {self.t}")
        if not math.isfinite(self.t):
            raise InputError(f"evaluation point must be finite, got {self.t}")
        if self.c_grid is not None:
            object.__setattr__(self, "c_grid", _checked_c_grid(self.c_grid))

    def resolved_grid(self) -> np.ndarray:
        if self.c_grid is not None:
            return self.c_grid
        return np.geomspace(self.c0 / 10.0, 10.0 * self.c0, 60)


@dataclass(frozen=True)
class BootstrapSelection:
    """Result of the smoothed-bootstrap bandwidth search.

    ``at_edge`` is true when the MSE curve is smallest at an end of a
    c-grid of two or more constants, so ``c_hat`` is that end and the
    true minimizer may lie beyond the grid.
    """

    c_hat: float
    h_hat: float
    c_grid: np.ndarray
    mse: np.ndarray
    pilot_value: float
    pilot_h: float
    target: str
    method: str
    n: int
    m: int
    B: int
    seed: int
    at_edge: bool


@dataclass(frozen=True)
class MonteCarloSelection:
    """Result of the Monte Carlo bandwidth search against a known truth.

    ``at_edge`` is true when ``c_tilde`` is an end of the c-grid, as in
    :class:`BootstrapSelection`.
    """

    c_tilde: float
    h_tilde: float
    c_grid: np.ndarray
    mse: np.ndarray
    theta0: float
    target: str
    method: str
    n: int
    B: int
    seed: int
    at_edge: bool


def _tabulated_inverse(grid: np.ndarray, tab: np.ndarray, what: str) -> Callable:
    """Inverse of a tabulated nondecreasing curve by linear interpolation.

    Only the strictly increasing part participates; uniform draws are
    scaled by the terminal mass so sampling conditions on the curve's
    actual range.
    """
    slopes = np.diff(tab) / np.diff(grid)
    keep = np.flatnonzero(slopes > 1e-12)
    if keep.size < 1:
        raise PilotDegenerate(f"pilot {what} has no strictly increasing region")
    # nodes bounding the increasing cells
    nodes = np.unique(np.concatenate([keep, keep + 1]))
    xs = tab[nodes]
    ys = grid[nodes]
    # collapse plateaus between increasing cells
    strict = np.concatenate([[True], np.diff(xs) > 0.0])
    xs = xs[strict]
    ys = ys[strict]
    if xs.size < 2:
        raise PilotDegenerate(f"pilot {what} has no strictly increasing region")
    total = float(tab[-1])

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        return np.interp(rng.random(n) * total, xs, ys)

    return draw


def _true_value(truth: TruthSpec, target: str, t: float) -> float:
    """The target's value at ``t`` under the truth."""
    F0 = float(truth.F0(t))
    if target == "F":
        return F0
    if target == "f":
        return float(truth.f0(t))
    if F0 >= 1.0 - 1e-12:
        raise HazardDenominatorViolation(f"F0(t)=1 at t={t:.6g}; hazard undefined")
    return float(truth.f0(t)) / (1.0 - F0)


def _replicate(
    sample_x: Callable,
    sample_t: Callable,
    n: int,
    family: str,
    target: str,
    kernel: Kernel,
    hs: list,
    t: float,
) -> Callable:
    """The replicate body of the selectors and of ``simulate``.

    It draws ``n`` pairs through :func:`curstat.sim._draw`, builds the
    sample, and returns ``family``'s ``target`` estimate at ``t`` for each
    bandwidth in ``hs``.  The evaluator is looked up in its table once per
    replicate; the MLE is fitted once, the smoothed measures of all
    bandwidths in chunks, and the hull per bandwidth.
    """

    def body(i: int, rng: np.random.Generator) -> np.ndarray:
        times, deltas = _draw(sample_x, sample_t, n, rng)
        sample = build_sample(np.column_stack([times, deltas]))
        evaluate = _EVAL[family][target]
        if family in ("naive", "msle"):
            fits = _fit_smoothed_many(sample, kernel, hs)
            if family == "msle":
                fits = map(fit_msle, fits)
            return np.array([evaluate(fit, t) for fit in fits], dtype=float)
        # h enters the call only: no fit or object per bandwidth
        mle = fit_mle(sample)
        if family == "mle":
            return np.array([evaluate(mle, t) for _ in hs], dtype=float)
        return np.array([evaluate(mle, kernel, h, t) for h in hs], dtype=float)

    return body


def _refine_minimizer(c_grid: np.ndarray, mse: np.ndarray) -> tuple[float, bool]:
    """Grid argmin sharpened by a parabola through the three log-c
    neighbors; falls back to the grid point at edges or flat stencils.

    Also returns whether the argmin is an end of a grid of two or more
    constants, where the curve's minimum may lie beyond the grid.
    """
    j = int(np.argmin(mse))
    if j == 0 or j == c_grid.size - 1:
        return float(c_grid[j]), c_grid.size > 1
    x = np.log(c_grid[j - 1 : j + 2])
    y = mse[j - 1 : j + 2]
    denom = y[0] - 2.0 * y[1] + y[2]
    if denom <= 0.0:
        return float(c_grid[j]), False
    # uniform log spacing: vertex offset from the middle point
    step = 0.5 * (x[2] - x[0])
    shift = 0.5 * step * (y[0] - y[2]) / denom
    shift = float(np.clip(shift, -step, step))
    return float(np.exp(x[1] + shift)), False


def bootstrap_bandwidth(
    sample: ObservedSample,
    config: BootstrapConfig,
    target: str,
    method: str,
    kernel: Kernel,
) -> BootstrapSelection:
    """Select the bandwidth constant by the smoothed bootstrap.

    Pilot fits at h0 = c0 n^{-1/5} provide both the resampling
    distributions (event times from the smoothed MLE distribution,
    inspection times from the integrated smoothed censoring density)
    and the reference value the replicates are scored against.  Each
    replicate draws m pairs, fits the target estimator at c m^{-alpha}
    for every c on the grid, and contributes squared deviations; the
    curve's minimizer is returned on the original-n scale.
    """
    _check_tm(target, method)
    n = sample.n
    if config.m > n:
        raise InputError(f"bootstrap size m={config.m} exceeds data size n={n}")
    c_grid = config.resolved_grid()
    alpha = rate_exponent(target)
    h0 = config.c0 * n ** (-_PILOT_ALPHA)
    family = _FAMILY[method]

    pilot = _Fits(sample, kernel, h0)
    grid = pilot.sm.grid
    pilot_value = float(_EVAL[family][target](*pilot.args(family), config.t))

    # tabulate the smoothed MLE distribution for inversion
    F_tab = np.asarray(smle_F(pilot.mle, kernel, h0, grid))
    draw_x = _tabulated_inverse(grid, F_tab, "event distribution")
    draw_t = _tabulated_inverse(grid, pilot.sm.G, "inspection distribution")

    m = config.m
    hs = [float(h) for h in c_grid * m ** (-alpha)]
    body = _replicate(draw_x, draw_t, m, family, target, kernel, hs, config.t)
    rows = replicate_map(body, config.B, config.seed)
    mse = np.mean((np.stack(rows, axis=0) - pilot_value) ** 2, axis=0)
    c_hat, at_edge = _refine_minimizer(c_grid, mse)
    return BootstrapSelection(
        c_hat=c_hat,
        h_hat=c_hat * n ** (-alpha),
        c_grid=c_grid,
        mse=mse,
        pilot_value=pilot_value,
        pilot_h=h0,
        target=target,
        method=method,
        n=n,
        m=m,
        B=config.B,
        seed=config.seed,
        at_edge=at_edge,
    )


def mc_bandwidth(
    truth: TruthSpec,
    sample_size: int,
    B: int,
    c_grid,
    t: float,
    target: str,
    method: str,
    kernel: Kernel,
    seed: int,
) -> MonteCarloSelection:
    """Monte Carlo MSE curve against a known truth.

    Replicate i draws a fresh sample of ``sample_size`` from the truth
    (child seed i), fits the target estimator at c n^{-alpha} for every
    c, and scores against the true value at ``t``.
    """
    _check_tm(target, method)
    if sample_size < 1:
        raise InputError(f"sample size must be >= 1, got {sample_size}")
    if B < 1:
        raise InputError(f"replicate count must be >= 1, got {B}")
    c_grid = np.geomspace(1.0, 25.0, 60) if c_grid is None else _checked_c_grid(c_grid)

    alpha = rate_exponent(target)
    theta0 = _true_value(truth, target, t)

    hs = [float(h) for h in c_grid * sample_size ** (-alpha)]
    body = _replicate(
        truth.sample_x, truth.sample_t, sample_size, _FAMILY[method], target, kernel, hs, t
    )
    rows = replicate_map(body, B, seed)
    mse = np.mean((np.stack(rows, axis=0) - theta0) ** 2, axis=0)
    c_tilde, at_edge = _refine_minimizer(c_grid, mse)
    return MonteCarloSelection(
        c_tilde=c_tilde,
        h_tilde=c_tilde * sample_size ** (-alpha),
        c_grid=c_grid,
        mse=mse,
        theta0=theta0,
        target=target,
        method=method,
        n=sample_size,
        B=B,
        seed=seed,
        at_edge=at_edge,
    )
