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
    DomainError,
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


def _hazard(F, f, what: str):
    """The hazard ``f() / (1 - F)`` for a float or array ``F``, raising
    HazardDenominatorViolation where ``1 - F`` is at or below the ceiling;
    ``f`` is called only after that check, so its errors come second."""
    # an empty F has no maximum, and 0.0 clears the ceiling
    top = F if isinstance(F, float) else float(np.max(F, initial=0.0))
    if not _clears_ceiling(top):
        raise HazardDenominatorViolation(
            f"{what} F reaches {top:.9g}; hazard undefined that close to 1"
        )
    return f() / (1.0 - F)


def _shaped(values: np.ndarray, t):
    return float(values) if np.ndim(t) == 0 else values


# ---------------------------------------------------------------------------
# naive plug-in ratios


def _g_above_floor(sm: SmoothedMeasures, arr: np.ndarray) -> np.ndarray:
    """The smoothed total density at ``arr``, raising
    DensityFloorViolation where it is at or below ``G_FLOOR``."""
    g = np.asarray(sm.eval("g", arr))
    if np.any(g <= G_FLOOR):
        bad = float(np.asarray(arr).flat[int(np.argmax(g <= G_FLOOR))])
        raise DensityFloorViolation(
            f"smoothed density {np.min(g):.3g} at t={bad:.6g} is below the floor {G_FLOOR}"
        )
    return g


def naive_F(sm: SmoothedMeasures, t):
    """Plug-in ratio g1 / g of the smoothed measures.

    Raises
    ------
    DensityFloorViolation
        If the smoothed total density at some requested point is at or
        below the floor.
    """
    arr = _as_array(t)
    g = _g_above_floor(sm, arr)
    out = np.asarray(sm.eval("g1", arr)) / g
    return _shaped(out, t)


def naive_f(sm: SmoothedMeasures, t):
    """Derivative of the plug-in ratio: (g dg1 - dg g1) / g^2.

    May be negative; monotonization is the hull fit's job.
    """
    arr = _as_array(t)
    g = _g_above_floor(sm, arr)
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
    return _hazard(naive_F(sm, t), lambda: naive_f(sm, t), "naive")


# ---------------------------------------------------------------------------
# monotonized (hull) estimator


@dataclass(frozen=True)
class ConvexHullFit:
    """Lower convex hull of the cumulative diagram of smoothed measures.

    The diagram sits on the grid ``source.grid``: its point at node i is
    the rectangle-rule pair ``x_i = sum_{j<=i} g_j * dt``,
    ``y_i = sum_{j<=i} g1_j * dt`` with the origin prepended, so the
    hull's left slopes per active node are exactly the pooled means of
    the naive ratios with weights ``g_j * dt``.  Nodes with zero smoothed
    density contribute no diagram increment; the fitted distribution
    value is carried across them.  The fit holds only that PAVA solve;
    the per-node members are computed on first read.

    Attributes
    ----------
    source : SmoothedMeasures
    active : ndarray of int
        The diagram's active nodes, where ``g * dt > 0``.
    fitted : ndarray
        The hull's left slope at each active node: the PAVA fit of the
        naive ratios there, with weights ``g * dt``.
    sizes : ndarray of int
        The sizes of the fit's pooled blocks, in node order.
    """

    source: SmoothedMeasures
    active: np.ndarray
    fitted: np.ndarray
    sizes: np.ndarray

    @cached_property
    def hull_vertices(self) -> np.ndarray:
        """Node indices where the hull touches the diagram (block ends;
        the origin is an implicit extra vertex).  The slope of each hull
        segment is ``F_tab[hull_vertices]``, nondecreasing."""
        return self.active[np.cumsum(self.sizes) - 1]

    @cached_property
    def touch_mask(self) -> np.ndarray:
        """Per node: the node is an active singleton block, i.e. the hull
        coincides with the diagram locally and the fitted value equals
        the naive ratio bit-for-bit."""
        touch = np.zeros(self.source.grid.size, dtype=bool)
        touch[self.active[np.repeat(self.sizes == 1, self.sizes)]] = True
        return touch

    @cached_property
    def F_tab(self) -> np.ndarray:
        """Fitted distribution value per grid node."""
        return _fitted_at(self, np.arange(self.source.grid.size))


def fit_msle(sm: SmoothedMeasures) -> ConvexHullFit:
    """Monotonize the naive ratio via the lower convex hull.

    Raises
    ------
    DegenerateSupport
        If the smoothed density vanishes at every grid node.
    """
    w = sm.g * sm.spacing
    active = np.flatnonzero(w > 0.0)
    if active.size == 0:
        raise DegenerateSupport("smoothed density is zero everywhere on the grid")
    return ConvexHullFit(sm, active, *pava_blocks(sm.g1[active] / sm.g[active], w[active]))


def _fitted_at(fit: ConvexHullFit, nodes):
    """The fit at the last active node at or before each of ``nodes``;
    leading inactive nodes sit before any diagram increment, where the
    right slope is the first segment's."""
    # the count of active nodes after the first that are at or before a
    # node is max(searchsorted(active, node, "right") - 1, 0)
    return fit.fitted[np.searchsorted(fit.active[1:], nodes, side="right")]


def msle_F(fit: ConvexHullFit, t):
    """Monotonized distribution estimate at ``t``.

    Beyond the tabulated grid the final value is carried.
    """
    arr = _as_array(t)
    # the node at or after each point, the last node beyond the grid
    out = _fitted_at(fit, np.searchsorted(fit.source.grid[:-1], arr))
    return _shaped(out, t)


def msle_f(fit: ConvexHullFit, t):
    """Density of the monotonized estimate.

    Equal to the naive density where the hull touches its diagram and
    zero on pooled segments; at segment junctions the touching side
    wins.  Zero beyond the grid.
    """
    arr = _as_array(t)
    a = np.atleast_1d(arr)
    grid = fit.source.grid
    idx = np.searchsorted(grid, a, side="left")
    inside = idx < grid.size
    touched = np.zeros(a.shape, dtype=bool)
    touched[inside] = fit.touch_mask[idx[inside]]
    out = np.zeros(a.shape)
    if np.any(touched):
        out[touched] = np.asarray(naive_f(fit.source, a[touched]))
    out = out.reshape(np.shape(arr))
    return _shaped(out, t)


def msle_lambda(fit: ConvexHullFit, t):
    """Hazard composition of the monotonized pair."""
    return _hazard(msle_F(fit, t), lambda: msle_f(fit, t), "fitted")


# ---------------------------------------------------------------------------
# smoothed MLE


# Points per block of the array route, so the points x jumps matrix does
# not grow with the grid; each row is summed on its own, so the block
# size does not bear on the bits.
_SMLE_BLOCK = 4096


def _smle_sum(mle: StepDistribution, h: float, t, window, tails, weight):
    """``sum_j masses_j * weight((t - tau_j) / h)`` at ``t``, summed over
    the jumps in time order, left to right.

    Arrays are evaluated in blocks of ``_SMLE_BLOCK`` points: a block of
    weights is multiplied by the masses and accumulated along the jumps
    in place, so each point's sum is sequential whatever numpy's BLAS.

    A Python scalar ``t`` (the selectors' thousands of point evaluations)
    is checked and summed in Python floats, with the same IEEE operations
    in the same order, so it has the bits of a one-element array and makes
    no numpy call.  Only the jumps with ``|u| <= 1`` are weighted, by one
    ``window(x, h, taus)`` call that loops over them.  Every jump beyond
    gets ``tails[0]`` or ``tails[1]``, ``weight(2.0)`` and
    ``weight(-2.0)``, which is ``weight(u)`` for all ``u > 1`` or
    ``u < -1``: the sum before the window is the MLE's running sum of
    ``masses_j * tails[0]``, computed once, and a zero tail after it adds
    as one term, since the masses are positive.
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
        masses = mle.mass_list
        # -0.0 + y is y for every y: with no jump before the window the sum
        # starts from the first term, as np.cumsum does; masses_j times a
        # zero tail is that zero, and so is their sum
        if not lo:
            total = -0.0
        elif tails[0]:
            total = mle.running_sums(tails[0])[lo - 1]
        else:
            total = tails[0]
        for m, w in zip(masses[lo:hi], window(x, h, jt[lo:hi])):
            total += m * w
        if hi < len(jt):
            if tails[1]:
                for m in masses[hi:]:
                    total += m * tails[1]
            else:
                total += tails[1]
        return total
    arr = _as_array(t)
    check_bandwidth(h)
    if mle.jump_times.size == 0:
        return _shaped(np.zeros(np.shape(arr)), t)
    flat = arr.reshape(-1)
    out = np.empty(flat.size)
    for i in range(0, flat.size, _SMLE_BLOCK):
        block = weight((flat[i : i + _SMLE_BLOCK, None] - mle.jump_times) / h)
        block *= mle.masses
        out[i : i + _SMLE_BLOCK] = np.cumsum(block, axis=1, out=block)[:, -1]
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
    return _hazard(smle_F(mle, kernel, h, t), lambda: smle_f(mle, kernel, h, t), "smoothed")


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
    """Where one column's density floor holds on the points ``t``, and
    where every one of its guards holds.

    A naive column needs the smoothed density above ``G_FLOOR``; a hazard
    needs ``1 - F`` above ``F_CEILING`` wherever the floor holds.  Other
    columns hold everywhere.  Both guards are pointwise, so the masks of a
    prefix of ``t`` are the prefixes of its masks.
    """
    floor = np.ones(t.shape, dtype=bool)
    if family == "naive":
        floor = np.asarray(fits.sm.eval("g", t)) > G_FLOOR
    safe = floor.copy()
    if target == "lambda" and np.any(floor):
        safe[floor] = _clears_ceiling(np.asarray(_EVAL[family]["F"](*fits.args(family), t[floor])))
    return floor, safe


def _estimate_table(sample: ObservedSample, kernel: Kernel, columns, col_h: dict, grid_points: int):
    """The ``estimate`` table: its grid, one array of values per
    ``(family, target)`` of ``columns``, and the guards' messages.

    ``col_h`` maps each smoothing column to its bandwidth.  One set of
    fits per distinct bandwidth is fitted in column order, before any
    column is evaluated, and the MLE is fitted once, only when a column
    reads it.  The grid has ``grid_points`` nodes over
    ``[0, T_max + max h]``.  The ratio columns cannot reach its end, where
    the smoothed density vanishes, so it ends at the last node where every
    column's guards hold.  A guard that trips before that node writes nan
    cells and one message, the floor's first.

    Raises
    ------
    DomainError
        If no grid node clears every column's guards.
    """
    mle = fit_mle(sample) if any(m in ("mle", "smle") for m, _ in columns) else None
    fits = {None: _Fits(sample, kernel, None, mle)}
    for family, target in columns:
        h = col_h.get((family, target))
        if h not in fits:
            fits[h] = _Fits(sample, kernel, h, mle)
        # fit now, so that an error of a fit comes before any column's
        fits[h].args(family)
    by_column = [fits[col_h.get(column)] for column in columns]
    grid = np.linspace(0.0, float(sample.times[-1]) + max(col_h.values(), default=0.0), grid_points)
    guards = [_guards(*column, f, grid) for column, f in zip(columns, by_column)]
    safe_idx = np.flatnonzero(np.logical_and.reduce([safe for _, safe in guards]))
    if safe_idx.size == 0:
        raise DomainError(
            "no grid node clears the density floor and hazard ceiling "
            "for the requested ratio-based columns"
        )
    end = safe_idx[-1] + 1
    grid = grid[:end]
    values, messages = [], []
    for (family, target), f, (floor, safe) in zip(columns, by_column, guards):
        floor, safe = floor[:end], safe[:end]
        name = f"{family}_{target}"
        if not np.all(floor):
            messages.append(
                f"{name}: smoothed density is at or below the floor {G_FLOOR:g} "
                f"at t = {float(grid[~floor][0]):.9g}; cells written as nan"
            )
        hit = floor & ~safe
        if np.any(hit):
            messages.append(
                f"{name}: 1 - F is at or below the hazard ceiling {F_CEILING:g} "
                f"from t = {float(grid[hit][0]):.9g}; cells written as nan"
            )
        column = np.full(grid.shape, np.nan)
        if np.any(safe):
            column[safe] = _EVAL[family][target](*f.args(family), grid[safe])
        values.append(column)
    return grid, values, messages
