"""Distribution-function MLE for current status data.

Each subject contributes an inspection time ``t`` and an indicator
``delta`` for whether the event had already happened at ``t``.  The
log likelihood of a candidate distribution F,

    sum_i [ delta_i * log F(t_i) + (1 - delta_i) * log(1 - F(t_i)) ],

is maximized over all distribution functions by the weighted isotonic
regression of the indicator means ``ones / counts`` on the distinct
inspection times, with the group sizes as weights: the left slopes of
the greatest convex minorant of the cumulative sum diagram.  scipy's
compiled solver supplies the block structure; each block value is then
recomputed as the ratio of the block's integer totals, so the fitted
values are correctly rounded and no tie-breaking depends on the
solver's floating-point means.  :func:`pava_blocks` is the general
weighted solver on the same compiled code; its block sizes, and the
input kept bit for bit wherever nothing is pooled, are part of its
contract.

The solver is Busing's O(n) pool-adjacent-violators algorithm (JSS
102(1), 2022), the compiled core of ``scipy.optimize.isotonic_regression``.
It is loaded straight from its extension file,
``scipy/optimize/_pava_pybind``, because importing ``scipy.optimize``
would also load ``scipy.linalg`` and the rest of the package, most of
the start-up time of every command.  Where that file is not found, the
same function is imported from its private module the usual way.  Both
routes rely on the private ``pava(x, w, r)`` signature, which the CI job
at the scipy 1.12 floor guards.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import (
    BadIndicator,
    EmptySample,
    InputError,
    LengthMismatch,
    NegativeTime,
    NonpositiveWeight,
    OutOfDomain,
)

__all__ = [
    "ObservedSample",
    "StepDistribution",
    "build_sample",
    "fit_mle",
    "pava_blocks",
]


def _load_pava():
    """scipy's compiled ``pava(x, w, r)``, without importing scipy.optimize."""
    # scipy's own module name: the init function is found by it, and a later
    # import of scipy.optimize gets this same loaded extension
    name = "scipy.optimize._pava_pybind"
    spec = importlib.util.find_spec("scipy")
    if spec is not None and spec.submodule_search_locations:
        folder = os.path.join(spec.submodule_search_locations[0], "optimize")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_pava_pybind" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                spec = importlib.util.spec_from_loader(name, loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                return module.pava
    from scipy.optimize._pava_pybind import pava

    return pava


_pava = _load_pava()


def _isotonic(y, w) -> tuple[np.ndarray, np.ndarray]:
    """Increasing weighted isotonic fit, as scipy's ``isotonic_regression``.

    Returns the fit and the block boundaries: block j is
    ``blocks[j]:blocks[j + 1]``.  The weights must be positive and finite.
    """
    x = np.array(y, order="C", dtype=np.float64, copy=True)
    w = np.array(w, order="C", dtype=np.float64, copy=True)
    r = np.full(x.shape[0] + 1, -1, dtype=np.intp)
    x, w, r, b = _pava(x, w, r)
    return x, r[: b + 1]


@dataclass(frozen=True)
class ObservedSample:
    """Current status observations grouped by distinct inspection time.

    Attributes
    ----------
    times : ndarray
        Strictly increasing distinct inspection times.
    counts : ndarray
        Number of observations at each time (int, >= 1).
    ones : ndarray
        Number of those with indicator 1 (int, 0 <= ones <= counts).
    """

    times: np.ndarray
    counts: np.ndarray
    ones: np.ndarray

    @property
    def n(self) -> int:
        """Total number of observations."""
        return int(self.counts.sum())


def build_sample(records) -> ObservedSample:
    """Validate and group raw ``(time, indicator)`` records.

    Parameters
    ----------
    records : array-like
        Sequence of pairs, or an (n, 2) array, column 0 the inspection
        times and column 1 the 0/1 status indicators.

    Raises
    ------
    EmptySample, NegativeTime, BadIndicator
    """
    arr = np.asarray(records, dtype=float)
    if arr.size == 0:
        raise EmptySample("no observations supplied")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError(f"records must be pairs (time, indicator), got shape {arr.shape}")
    t = arr[:, 0]
    d = arr[:, 1]
    if not np.all(np.isfinite(t)) or np.any(t < 0):
        bad = int(np.argmax(~(np.isfinite(t) & (t >= 0))))
        raise NegativeTime(f"record {bad}: time must be finite and >= 0, got {t[bad]}")
    if not np.all((d == 0.0) | (d == 1.0)):
        bad = int(np.argmax(~((d == 0.0) | (d == 1.0))))
        raise BadIndicator(f"record {bad}: indicator must be 0 or 1, got {d[bad]}")
    # np.unique's own sort, so that a run of equal times (0.0 and -0.0)
    # is represented by the same member
    order = np.argsort(t)
    ts = t[order]
    # the edges of the runs of equal times, 0 and n included
    edge = np.empty(ts.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(ts[1:], ts[:-1], out=edge[1:-1])
    edges = np.flatnonzero(edge)
    starts = edges[:-1]
    return ObservedSample(
        times=ts[starts],
        counts=(edges[1:] - starts).astype(np.int64, copy=False),
        ones=np.add.reduceat(d[order], starts).astype(np.int64),
    )


@dataclass(frozen=True)
class StepDistribution:
    """Right-continuous step function: the fitted distribution estimate.

    ``values[j]`` is the function value on ``[jump_times[j], jump_times[j+1])``;
    the value is 0 before the first jump and ``values[-1]`` from the last
    jump onward.  May be empty (the zero function).
    """

    jump_times: np.ndarray
    values: np.ndarray

    @cached_property
    def masses(self) -> np.ndarray:
        """Probability mass at each jump (computed once, read-only)."""
        masses = np.diff(self.values, prepend=0.0) if len(self.values) else np.empty(0)
        masses.flags.writeable = False
        return masses

    @cached_property
    def jump_list(self) -> list[float]:
        """``jump_times`` as a list of Python floats (computed once)."""
        return self.jump_times.tolist()

    @cached_property
    def mass_list(self) -> list[float]:
        """``masses`` as a list of Python floats (computed once)."""
        return self.masses.tolist()

    @cached_property
    def _running_sums(self) -> dict[float, list[float]]:
        return {}

    def running_sums(self, weight: float) -> list[float]:
        """``np.cumsum(masses * weight)`` in Python floats: the sums of
        ``masses_j * weight`` from the first jump on, left to right
        (computed once per nonzero ``weight``; the sums of a zero weight
        are that zero, and the cache does not tell 0.0 from -0.0)."""
        sums = self._running_sums.get(weight)
        if sums is None:
            sums = self._running_sums[weight] = list(accumulate(m * weight for m in self.mass_list))
        return sums

    def cdf(self, t):
        """Evaluate at scalar or array ``t``.

        Raises
        ------
        OutOfDomain
            If any point is nan.
        """
        t = np.asarray(t, dtype=float)
        if np.isnan(t).any():
            raise OutOfDomain("evaluation points must not be nan")
        if len(self.values) == 0:
            out = np.zeros_like(t)
        else:
            idx = np.searchsorted(self.jump_times, t, side="right") - 1
            out = np.where(idx >= 0, self.values[np.clip(idx, 0, None)], 0.0)
        return out if out.ndim else float(out)


def fit_mle(sample: ObservedSample) -> StepDistribution:
    """Nonparametric MLE of the event-time distribution.

    The value on each isotonic block is the block's share of ones,
    an exact ratio of integer totals; jumps sit at the block starts
    where that value increases.
    """
    ones, counts = sample.ones, sample.counts
    starts = _isotonic(ones / counts, counts)[1][:-1]
    values = np.add.reduceat(ones, starts) / np.add.reduceat(counts, starts)
    jump = values > np.concatenate(([0.0], values[:-1]))
    return StepDistribution(jump_times=sample.times[starts[jump]], values=values[jump])


def pava_blocks(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """Pool-adjacent-violators fit, returning the block structure.

    Blocks come from scipy's compiled solver, with each run of equal
    inputs split back into singletons.  A nondecreasing input is
    returned as it is, and every fit is nondecreasing, so the operator
    is exactly idempotent.

    Returns
    -------
    fitted : ndarray
        The nondecreasing fit, one value per input entry.  Entries in
        singleton blocks keep their input value bit-for-bit.
    sizes : ndarray of int
        Sizes of the pooled blocks in order; ``sum(sizes) == len(values)``.

    Raises
    ------
    LengthMismatch
        If ``values`` and ``weights`` differ in length.
    InputError
        If any value is not finite.
    NonpositiveWeight
        If any weight is not a finite number > 0.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.ndim != 1 or w.ndim != 1 or v.shape != w.shape:
        raise LengthMismatch(f"values and weights must match, got {v.shape} and {w.shape}")
    bad = ~np.isfinite(v)
    if bad.any():
        i = int(np.argmax(bad))
        raise InputError(f"value {i} must be finite, got {v[i]}")
    bad = ~(np.isfinite(w) & (w > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise NonpositiveWeight(f"weight {i} must be finite and > 0, got {w[i]}")
    if np.all(v[1:] >= v[:-1]):
        return v.copy(), np.ones(v.size, dtype=np.int64)
    x, blocks = _isotonic(v, w)
    starts = blocks[:-1]
    sizes = np.diff(blocks)
    # scipy pools equal neighbours too; a block of equal inputs is split
    # back into singletons that keep their input value
    keep = np.maximum.reduceat(v, starts) == np.minimum.reduceat(v, starts)
    fitted = np.where(np.repeat(keep, sizes), v, x)
    if np.any(fitted[1:] < fitted[:-1]):
        # rounding put a tied block's pooled mean on the wrong side of a
        # neighbour's; only true singletons are kept then
        keep = sizes == 1
        fitted = np.where(np.repeat(keep, sizes), v, x)
    sizes = np.repeat(np.where(keep, 1, sizes), np.where(keep, sizes, 1))
    return fitted, sizes
