"""Analytic truths and samplers for simulation studies.

The reference design: event times are 2 + Gamma(4, 1) and inspection
times are Exponential with mean 3, independent.  Everything about the
truth is closed-form, including the first two derivatives of the event
density and of the censoring density, which the bandwidth formulas need.

Samplers draw unit exponentials by inverse cdf from a seeded generator
(a Gamma with integer shape is a sum of exponentials), so a sample is a
pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .mle import ObservedSample, build_sample

__all__ = ["TruthSpec", "GeneratedSample", "truth_gamma4_exp3", "sample_current_status"]


@dataclass(frozen=True)
class TruthSpec:
    """Closed-form model specification.

    Event-time distribution ``F0`` with density ``f0`` and derivatives
    ``df0``, ``d2f0``; censoring density ``g`` with derivatives ``dg``,
    ``d2g``.  All vectorized callables.
    ``sample_x`` and ``sample_t`` draw from the two laws given a
    generator and a count.
    """

    name: str
    F0: Callable
    f0: Callable
    df0: Callable
    d2f0: Callable
    g: Callable
    dg: Callable
    d2g: Callable
    sample_x: Callable
    sample_t: Callable


@dataclass(frozen=True)
class GeneratedSample:
    """A simulated current status data set.

    ``raw_times``, ``raw_deltas`` are in draw order; ``sample`` is the
    grouped form the estimators consume.
    """

    sample: ObservedSample
    raw_times: np.ndarray
    raw_deltas: np.ndarray
    seed: int


def _shifted(x):
    """``x`` as an array and ``s = x - 2`` clipped to [0, 1e3].  Beyond
    ``s = 745.2`` ``exp(-s)`` is already 0.0, so the upper clip changes no
    finite value of the forms below; it keeps their polynomials in ``s``
    finite, where ``0 * inf`` would make nan."""
    x = np.asarray(x, dtype=float)
    return x, np.clip(x - 2.0, 0.0, 1e3)


def _shifted_gamma4_F0(x):
    x, s = _shifted(x)
    tail = np.exp(-s) * (1.0 + s * (1.0 + s * (0.5 + s / 6.0)))
    return np.where(x < 2.0, 0.0, 1.0 - tail)


def _shifted_gamma4_f0(x):
    x, s = _shifted(x)
    return np.where(x < 2.0, 0.0, s**3 * np.exp(-s) / 6.0)


def _shifted_gamma4_df0(x):
    x, s = _shifted(x)
    return np.where(x < 2.0, 0.0, s**2 * (3.0 - s) * np.exp(-s) / 6.0)


def _shifted_gamma4_d2f0(x):
    x, s = _shifted(x)
    return np.where(x < 2.0, 0.0, s * (6.0 - 6.0 * s + s * s) * np.exp(-s) / 6.0)


def _exp3_g(t):
    t = np.asarray(t, dtype=float)
    return np.where(t < 0.0, 0.0, np.exp(-t / 3.0) / 3.0)


def _exp3_dg(t):
    t = np.asarray(t, dtype=float)
    return np.where(t < 0.0, 0.0, -np.exp(-t / 3.0) / 9.0)


def _exp3_d2g(t):
    t = np.asarray(t, dtype=float)
    return np.where(t < 0.0, 0.0, np.exp(-t / 3.0) / 27.0)


def _sample_shifted_gamma4(rng: np.random.Generator, n: int) -> np.ndarray:
    # sum of 4 unit exponentials, each by inverse cdf
    u = rng.random((4, n))
    return 2.0 + np.sum(-np.log1p(-u), axis=0)


def _sample_exp3(rng: np.random.Generator, n: int) -> np.ndarray:
    return -3.0 * np.log1p(-rng.random(n))


def truth_gamma4_exp3() -> TruthSpec:
    """The reference simulation truth: 2 + Gamma(4, 1) events observed
    at Exponential(mean 3) inspection times."""
    return TruthSpec(
        name="gamma4_exp3",
        F0=_shifted_gamma4_F0,
        f0=_shifted_gamma4_f0,
        df0=_shifted_gamma4_df0,
        d2f0=_shifted_gamma4_d2f0,
        g=_exp3_g,
        dg=_exp3_dg,
        d2g=_exp3_d2g,
        sample_x=_sample_shifted_gamma4,
        sample_t=_sample_exp3,
    )


def _draw(sample_x: Callable, sample_t: Callable, n: int, rng: np.random.Generator):
    """``n`` inspection times and indicators: event times are drawn
    first, inspection times second, from ``rng``; the indicator is their
    comparison."""
    x = sample_x(rng, n)
    t = sample_t(rng, n)
    return t, (x <= t).astype(float)


def sample_current_status(truth: TruthSpec, n: int, seed) -> GeneratedSample:
    """Draw a current status sample of size ``n`` from one generator
    seeded by ``seed`` (see :func:`_draw`)."""
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    t, deltas = _draw(truth.sample_x, truth.sample_t, n, np.random.default_rng(seed))
    sample = build_sample(np.column_stack([t, deltas]))
    return GeneratedSample(sample=sample, raw_times=t, raw_deltas=deltas, seed=seed)
