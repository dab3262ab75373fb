"""Distribution, density, and hazard estimators for current status data.

Four families, increasingly structured:

* the step MLE itself (see :mod:`curstat.mle`),
* naive plug-in ratios of the smoothed measures,
* the monotonized MSLE, read off the lower convex hull of the
  continuous cumulative sum diagram built from the integrated smoothed
  measures,
* the SMLE, a kernel smoothing of the MLE's jump measure.

Hazards are compositions lambda = f / (1 - F) of the matching pair.

The naive ratio F = g1 / g is not monotone in finite samples and its
derivative can go negative; the hull step repairs exactly that.  Where
the hull touches its diagram the two coincide, so the MSLE density
equals the naive density there and vanishes on the interiors of pooled
segments.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSupport,
    DensityFloorViolation,
    HazardDenominatorViolation,
    OutOfDomain,
)
from .kernels import Kernel, check_bandwidth
from .mle import ObservedSample, StepDistribution, fit_mle, pava_blocks
from .smoothing import _DOMAIN_MESSAGE, SmoothedMeasures, _as_array, fit_smoothed

__all__ = [
    "G_FLOOR",
    "F_CEILING",
    "ConvexHullFit",
    "naive_F",
    "naive_f",
    "naive_lambda",
    "fit_msle",
    "msle_F",
    "msle_f",
    "msle_lambda",
    "smle_F",
    "smle_f",
    "smle_lambda",
]

# Ratio estimators are only trustworthy where the smoothed censoring
# density is bounded away from zero; below this floor the point is
# outside the estimator's domain.
G_FLOOR = 1e-8

# Hazards blow up as F approaches 1; refuse the composition beyond
# this margin.
F_CEILING = 1e-6


def _clears_ceiling(F):
    """Where ``1 - F`` is above ``F_CEILING``: the one test of the hazard
    evaluators and of :func:`_guards`, for a float or an array."""
    return (1.0 - F) > F_CEILING


def _shaped(values: np.ndarray, t):
    return float(values) if np.ndim(t) == 0 else values


# ---------------------------------------------------------------------------
# naive plug-in ratios


def naive_F(sm: SmoothedMeasures, t):
    """Plug-in ratio g1 / g of the smoothed measures.

    Raises
    ------
    DensityFloorViolation
        If the smoothed total density at some requested point is at or
        below the floor.
    """
    arr = _as_array(t)
    g = np.asarray(sm.eval("g", arr))
    if np.any(g <= G_FLOOR):
        bad = float(np.asarray(arr).flat[int(np.argmax(g <= G_FLOOR))])
        raise DensityFloorViolation(
            f"smoothed density {np.min(g):.3g} at t={bad:.6g} is below the floor {G_FLOOR}"
        )
    out = np.asarray(sm.eval("g1", arr)) / g
    return _shaped(out, t)


def naive_f(sm: SmoothedMeasures, t):
    """Derivative of the plug-in ratio: (g dg1 - dg g1) / g^2.

    May be negative; monotonization is the hull fit's job.
    """
    arr = _as_array(t)
    g = np.asarray(sm.eval("g", arr))
    if np.any(g <= G_FLOOR):
        bad = float(np.asarray(arr).flat[int(np.argmax(g <= G_FLOOR))])
        raise DensityFloorViolation(
            f"smoothed density {np.min(g):.3g} at t={bad:.6g} is below the floor {G_FLOOR}"
        )
    g1 = np.asarray(sm.eval("g1", arr))
    dg = np.asarray(sm.eval("dg", arr))
    dg1 = np.asarray(sm.eval("dg1", arr))
    out = (g * dg1 - dg * g1) / (g * g)
    return _shaped(out, t)


def naive_lambda(sm: SmoothedMeasures, t):
    """Hazard composition of the naive pair.

    Raises
    ------
    HazardDenominatorViolation
        If the naive distribution value is too close to 1.
    """
    F = np.asarray(naive_F(sm, _as_array(t)))
    if not np.all(_clears_ceiling(F)):
        raise HazardDenominatorViolation(
            f"naive F reaches {float(np.max(F)):.9g}; hazard undefined that close to 1"
        )
    out = np.asarray(naive_f(sm, _as_array(t))) / (1.0 - F)
    return _shaped(out, t)


# ---------------------------------------------------------------------------
# monotonized (hull) estimator


@dataclass(frozen=True)
class ConvexHullFit:
    """Lower convex hull of the cumulative diagram of smoothed measures.

    The diagram point at grid node i is the rectangle-rule pair
    ``x_i = sum_{j<=i} g_j * dt``, ``y_i = sum_{j<=i} g1_j * dt`` with
    the origin prepended, so the hull's left slopes per active node are
    exactly the pooled means of the naive ratios with weights
    ``g_j * dt``.  Nodes with zero smoothed density contribute no
    diagram increment; the fitted distribution value is carried across
    them.

    Attributes
    ----------
    source : SmoothedMeasures
    ccsd_t : ndarray
        Grid times of the diagram points, one entry per node.
    ccsd_x, ccsd_y : ndarray
        Diagram coordinates per node, computed on first read.
    hull_vertices : ndarray of int
        Node indices where the hull touches the diagram (block ends;
        the origin is an implicit extra vertex).
    segment_slopes : ndarray
        Slope of each hull segment, nondecreasing.
    touch_mask : ndarray of bool
        Per node: the node is an active singleton block, i.e. the hull
        coincides with the diagram locally and the fitted value equals
        the naive ratio bit-for-bit.
    F_tab : ndarray
        Fitted distribution value per grid node.
    """

    source: SmoothedMeasures
    ccsd_t: np.ndarray
    hull_vertices: np.ndarray
    segment_slopes: np.ndarray
    touch_mask: np.ndarray
    F_tab: np.ndarray

    @cached_property
    def ccsd_x(self) -> np.ndarray:
        return np.cumsum(self.source.g * self.source.spacing)

    @cached_property
    def ccsd_y(self) -> np.ndarray:
        return np.cumsum(self.source.g1 * self.source.spacing)


def fit_msle(sm: SmoothedMeasures) -> ConvexHullFit:
    """Monotonize the naive ratio via the lower convex hull.

    Raises
    ------
    DegenerateSupport
        If the smoothed density vanishes at every grid node.
    """
    grid = sm.grid
    dt = sm.spacing
    w = sm.g * dt
    active = np.flatnonzero(w > 0.0)
    if active.size == 0:
        raise DegenerateSupport("smoothed density is zero everywhere on the grid")

    naive = sm.g1[active] / sm.g[active]
    fitted, sizes = pava_blocks(naive, w[active])

    ends = np.cumsum(sizes) - 1
    vertices = active[ends]
    slopes = fitted[ends]

    touch = np.zeros(grid.size, dtype=bool)
    touch[active[np.repeat(sizes == 1, sizes)]] = True

    F_tab = np.empty(grid.size)
    F_tab[active] = fitted
    # carry fitted values across inactive nodes; leading inactive nodes
    # sit before any diagram increment, where the right slope is the
    # first segment's
    pos = np.zeros(grid.size, dtype=np.int64)
    pos[active] = 1
    carry = np.maximum.accumulate(np.where(pos, np.arange(grid.size), -1))
    lead = carry < 0
    carry[lead] = active[0]
    F_tab = F_tab[carry]
    F_tab[lead] = fitted[0]

    return ConvexHullFit(
        source=sm,
        ccsd_t=grid,
        hull_vertices=vertices,
        segment_slopes=slopes,
        touch_mask=touch,
        F_tab=F_tab,
    )


def _node_index(fit: ConvexHullFit, arr: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(fit.ccsd_t, arr, side="left")
    return np.minimum(idx, fit.ccsd_t.size - 1)


def msle_F(fit: ConvexHullFit, t):
    """Monotonized distribution estimate at ``t``.

    Beyond the tabulated grid the final value is carried.
    """
    arr = _as_array(t)
    out = fit.F_tab[_node_index(fit, arr)]
    return _shaped(out, t)


def msle_f(fit: ConvexHullFit, t):
    """Density of the monotonized estimate.

    Equal to the naive density where the hull touches its diagram and
    zero on pooled segments; at segment junctions the touching side
    wins.  Zero beyond the grid.
    """
    arr = _as_array(t)
    a = np.atleast_1d(arr)
    idx = np.searchsorted(fit.ccsd_t, a, side="left")
    inside = idx < fit.ccsd_t.size
    touched = np.zeros(a.shape, dtype=bool)
    touched[inside] = fit.touch_mask[idx[inside]]
    out = np.zeros(a.shape)
    if np.any(touched):
        out[touched] = np.asarray(naive_f(fit.source, a[touched]))
    out = out.reshape(np.shape(arr))
    return _shaped(out, t)


def msle_lambda(fit: ConvexHullFit, t):
    """Hazard composition of the monotonized pair."""
    F = np.asarray(msle_F(fit, t))
    if not np.all(_clears_ceiling(F)):
        raise HazardDenominatorViolation(
            f"fitted F reaches {float(np.max(F)):.9g}; hazard undefined that close to 1"
        )
    out = np.asarray(msle_f(fit, t)) / (1.0 - F)
    return _shaped(out, t)


# ---------------------------------------------------------------------------
# smoothed MLE


# Points per block of the array route, so the points x jumps matrix does
# not grow with the grid; a multiple of any BLAS row unroll, so each row
# is reduced as in one unblocked product.
_SMLE_BLOCK = 4096


def _smle_sum(mle: StepDistribution, h: float, t, window, tails, weight):
    """``sum_j masses_j * weight((t - tau_j) / h)`` at ``t``.

    A Python scalar ``t`` (the selectors' thousands of point evaluations)
    is checked and weighted in Python floats.  Only the jumps with
    ``|u| <= 1`` are weighted, by one ``window(x, h, taus)`` call that
    loops over them, so the Python work does not grow with the jumps far
    from ``t``: every jump beyond gets ``tails[0]`` or ``tails[1]``,
    ``weight(2.0)`` and ``weight(-2.0)``, which is ``weight(u)`` for all
    ``u > 1`` or ``u < -1``.  It gives the same bits as a one-element
    array: the same IEEE operations as the ufuncs, and the same dot
    (numpy's matmul reduces a one-row product with the same kernel as a
    1-d by 1-d product).  Arrays are evaluated in blocks of
    ``_SMLE_BLOCK`` points.
    """
    if isinstance(t, (float, int)):
        x = float(t)
        if not (math.isfinite(x) and x >= 0.0):
            raise OutOfDomain(_DOMAIN_MESSAGE)
        check_bandwidth(h)
        jt = mle.jump_list
        if not jt:
            return 0.0
        # u = (x - tau) / h falls with tau; the bisections on x - h and
        # x + h may leave out a neighbour that rounding puts at |u| = 1
        lo = bisect_left(jt, x - h)
        while lo and (x - jt[lo - 1]) / h <= 1.0:
            lo -= 1
        hi = bisect_right(jt, x + h, lo=lo)
        while hi < len(jt) and (x - jt[hi]) / h >= -1.0:
            hi += 1
        weights = window(x, h, jt[lo:hi])
        if lo:
            weights = [tails[0]] * lo + weights
        if hi < len(jt):
            weights += [tails[1]] * (len(jt) - hi)
        return float(np.array(weights) @ mle.masses)
    arr = _as_array(t)
    check_bandwidth(h)
    if mle.jump_times.size == 0:
        return _shaped(np.zeros(np.shape(arr)), t)
    flat = arr.reshape(-1)
    blocks = [
        weight((flat[i : i + _SMLE_BLOCK, None] - mle.jump_times) / h) @ mle.masses
        for i in range(0, flat.size, _SMLE_BLOCK)
    ]
    out = np.concatenate(blocks) if blocks else np.zeros(0)
    return _shaped(out.reshape(np.shape(arr)), t)


def smle_F(mle: StepDistribution, kernel: Kernel, h: float, t):
    """Kernel-smoothed MLE distribution: sum of jump masses times the
    integrated kernel."""
    return _smle_sum(mle, h, t, kernel.K_window, kernel.K_tails, kernel.K)


def smle_f(mle: StepDistribution, kernel: Kernel, h: float, t):
    """Kernel-smoothed MLE density: sum of jump masses times the scaled
    kernel."""
    # k vanishes beyond its support, and 0.0 / h is 0.0 for a positive h
    return _smle_sum(mle, h, t, kernel.k_window, (0.0, 0.0), lambda u: kernel.k(u) / h)


def smle_lambda(mle: StepDistribution, kernel: Kernel, h: float, t):
    """Hazard composition of the smoothed MLE pair."""
    F = smle_F(mle, kernel, h, t)
    # F >= 0, so an empty evaluation never trips the ceiling
    top = F if isinstance(F, float) else float(np.max(F, initial=0.0))
    if not _clears_ceiling(top):
        raise HazardDenominatorViolation(
            f"smoothed F reaches {top:.9g}; hazard undefined that close to 1"
        )
    return smle_f(mle, kernel, h, t) / (1.0 - F)


# ---------------------------------------------------------------------------
# dispatch and guards

# (family, target) -> evaluator, one flat table per family; callers look
# an evaluator up when they run, so a wrapper put into a table is seen
_MLE_EVAL = {"F": StepDistribution.cdf}
_NAIVE_EVAL = {"F": naive_F, "f": naive_f, "lambda": naive_lambda}
_MSLE_EVAL = {"F": msle_F, "f": msle_f, "lambda": msle_lambda}
_SMLE_EVAL = {"F": smle_F, "f": smle_f, "lambda": smle_lambda}
_EVAL = {"mle": _MLE_EVAL, "naive": _NAIVE_EVAL, "msle": _MSLE_EVAL, "smle": _SMLE_EVAL}


class _Fits:
    """One sample's fitted models at one bandwidth, each fitted on first
    read; a given ``mle`` is shared with other bandwidths."""

    def __init__(self, sample: ObservedSample, kernel: Kernel, h, mle=None):
        self.sample = sample
        self.kernel = kernel
        self.h = h
        if mle is not None:
            self.mle = mle

    @cached_property
    def mle(self) -> StepDistribution:
        return fit_mle(self.sample)

    @cached_property
    def sm(self) -> SmoothedMeasures:
        return fit_smoothed(self.sample, self.kernel, self.h)

    @cached_property
    def hull(self) -> ConvexHullFit:
        return fit_msle(self.sm)

    def args(self, family: str) -> tuple:
        """The arguments of ``family``'s evaluators before the points."""
        if family == "smle":
            return self.mle, self.kernel, self.h
        return (getattr(self, {"mle": "mle", "naive": "sm", "msle": "hull"}[family]),)


def _guards(family: str, target: str, fits: _Fits, t: np.ndarray):
    """Where the guards of one column hold on the points ``t``, and one
    message per guard that trips there, the floor's first.

    A naive column needs the smoothed density above ``G_FLOOR``; a hazard
    needs ``1 - F`` above ``F_CEILING`` wherever the floor holds.  Other
    columns hold everywhere.
    """
    name = f"{family}_{target}"
    safe = np.ones(t.shape, dtype=bool)
    messages = []
    if family == "naive":
        safe = np.asarray(fits.sm.eval("g", t)) > G_FLOOR
        if not np.all(safe):
            messages.append(
                f"{name}: smoothed density is at or below the floor {G_FLOOR:g} "
                f"at t = {float(t[~safe][0]):.9g}; cells written as nan"
            )
    if target == "lambda" and np.any(safe):
        ok = safe.copy()
        F = np.asarray(_EVAL[family]["F"](*fits.args(family), t[safe]))
        ok[safe] = _clears_ceiling(F)
        hit = safe & ~ok
        if np.any(hit):
            messages.append(
                f"{name}: 1 - F is at or below the hazard ceiling {F_CEILING:g} "
                f"from t = {float(t[hit][0]):.9g}; cells written as nan"
            )
        safe = ok
    return safe, messages


def _guarded(family: str, target: str, fits: _Fits, t: np.ndarray):
    """One column on the points ``t``: the values, nan where a guard of
    :func:`_guards` trips, and the guards' messages."""
    safe, messages = _guards(family, target, fits, t)
    values = np.full(t.shape, np.nan)
    if np.any(safe):
        values[safe] = _EVAL[family][target](*fits.args(family), t[safe])
    return values, messages
