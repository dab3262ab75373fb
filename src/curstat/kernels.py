"""Polynomial kernels for smoothed estimation.

A :class:`Kernel` is a symmetric probability density on [-1, 1] given by
the coefficients of its polynomial.  Everything else follows from them in
closed form: the antiderivative ``K``, the derivative ``k'`` and the three
constants that drive bandwidth selection, namely the second moment
``m2 = int u^2 k(u) du`` and the squared L2 norms of ``k`` and ``k'``.
For the built-in triweight these are 1/9, 350/429 and 35/11.

Near the left edge of the observation window the plain kernel spills mass
below zero.  :class:`BoundaryKernelFamily` supplies the linearly corrected
kernels ``k_beta`` for ``beta = t/h in [0, 1]``, which restore unit mass
and a vanishing first moment on ``(-1, beta]``.  Their partial moments
``nu_i(beta)`` are integrals of polynomials, hence polynomials in
``beta`` themselves, and are evaluated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import NonpositiveBandwidth, OutOfDomain

__all__ = [
    "Kernel",
    "BoundaryKernelFamily",
    "triweight",
    "boundary_family",
]

_poly = np.polynomial.polynomial


def _horner(coefficients, x):
    """``sum_j coefficients[j] * x^j`` by Horner's rule, skipping zero terms."""
    acc = coefficients[-1]
    for a in coefficients[-2::-1]:
        acc = acc * x
        if a:
            acc = acc + a
    return acc


def _integral(coefficients) -> float:
    """``int_{-1}^{1}`` of a polynomial, summed in exact rational arithmetic
    and rounded once, so that the triweight constants are correctly rounded."""
    even = enumerate(coefficients[::2])
    return float(sum(Fraction(2.0 * c) / (2 * j + 1) for j, c in even))


@dataclass(frozen=True)
class Kernel:
    """Symmetric polynomial kernel on [-1, 1].

    Attributes
    ----------
    name : str
        Identifier used by the CLI and by caches.
    coefficients : tuple of float
        ``k(u) = sum_j coefficients[j] * u**j`` on [-1, 1] and 0 outside.
        The polynomial must be even and integrate to one.

    The density ``k``, antiderivative ``K`` and derivative ``k_prime``
    take array_like ``u`` and return numpy values of its shape; outside
    [-1, 1] the density and derivative are 0 and ``K`` saturates at 0 or 1.
    ``K_window`` and ``k_window`` weight a list of points ``tau`` at once,
    ``K((x - tau) / h)`` and ``k((x - tau) / h) / h``, in one loop over
    Python floats, with the bits of the array route: the same IEEE
    operations in the same order.  ``m2``, ``l2_k`` and ``l2_kprime`` are
    the second moment and the integrals of ``k^2`` and ``k'^2``.
    """

    name: str
    coefficients: tuple[float, ...]

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if np.any(c[1::2]) or abs(_integral(c) - 1.0) > 1e-12:
            raise ValueError("kernel polynomial must be even with unit mass on [-1, 1]")

    @cached_property
    def _forms(self) -> tuple[tuple[float, ...], ...]:
        """Coefficients of ``A``, ``-2 A'`` and ``Q`` with ``k(u) = A(w)``,
        ``k'(u) = u * (-2 A'(w))`` and ``K(u) = 1/2 + u * Q(u^2)``.

        Symmetry makes ``k`` a polynomial in ``u^2``; writing it in
        ``w = 1 - u^2`` keeps its zeros at ``u = +-1`` exact, so values
        near the support ends keep their sign (for the triweight
        ``A(w) = (35/32) w^3``).
        """
        c = np.asarray(self.coefficients, dtype=float)
        A = np.polynomial.Polynomial(c[0::2])(np.polynomial.Polynomial([1.0, -1.0])).coef
        parts = (A, -2.0 * _poly.polyder(A), _poly.polyint(c)[1::2])
        return tuple(tuple(float(a) for a in part) for part in parts)

    @cached_property
    def _horner_steps(self) -> tuple[tuple[float, tuple[float, ...]], ...]:
        """Each form of :attr:`_forms` as the leading coefficient and the
        rest from the top down: the order in which :func:`_horner` reads
        them."""
        return tuple((form[-1], form[-2::-1]) for form in self._forms)

    def k_window(self, x: float, h: float, taus) -> list[float]:
        """``k((x - tau) / h) / h`` for each float ``tau`` in ``taus``."""
        top, rest = self._horner_steps[0]
        out = []
        for tau in taus:
            u = (x - tau) / h
            w = 1.0 - u * u
            if w >= 0.0:
                # _horner inline
                acc = top
                for a in rest:
                    acc = acc * w
                    if a:
                        acc = acc + a
                out.append(acc / h)
            else:
                out.append(0.0 / h)
        return out

    def K_window(self, x: float, h: float, taus) -> list[float]:
        """``K((x - tau) / h)`` for each float ``tau`` in ``taus``."""
        top, rest = self._horner_steps[2]
        out = []
        for tau in taus:
            u = (x - tau) / h
            u = -1.0 if u < -1.0 else 1.0 if u > 1.0 else u
            w = u * u
            # _horner inline
            acc = top
            for a in rest:
                acc = acc * w
                if a:
                    acc = acc + a
            v = 0.5 + u * acc
            out.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
        return out

    @cached_property
    def K_tails(self) -> tuple[float, float]:
        """``K(2.0)`` and ``K(-2.0)``: ``K(u)`` for every ``u > 1`` and
        every ``u < -1``."""
        return float(self.K(2.0)), float(self.K(-2.0))

    def k(self, u):
        u = np.asarray(u, dtype=float)
        w = 1.0 - u * u
        return np.where(w >= 0.0, _horner(self._forms[0], w), 0.0)

    def K(self, u):
        # np.minimum(np.maximum(...)) is np.clip without its Python-level
        # dispatch
        u = np.minimum(np.maximum(np.asarray(u, dtype=float), -1.0), 1.0)
        # near the support ends the sum cancels to a few ulps, which may
        # leave [0, 1]
        return np.minimum(np.maximum(0.5 + u * _horner(self._forms[2], u * u), 0.0), 1.0)

    def k_prime(self, u):
        u = np.asarray(u, dtype=float)
        w = 1.0 - u * u
        return np.where(w >= 0.0, u * _horner(self._forms[1], w), 0.0)

    @cached_property
    def m2(self) -> float:
        return _integral(_poly.polymul(self.coefficients, [0.0, 0.0, 1.0]))

    @cached_property
    def l2_k(self) -> float:
        return _integral(_poly.polymul(self.coefficients, self.coefficients))

    @cached_property
    def l2_kprime(self) -> float:
        d = _poly.polyder(self.coefficients)
        return _integral(_poly.polymul(d, d))


@lru_cache(maxsize=None)
def triweight() -> Kernel:
    """The triweight kernel ``k(u) = (35/32)(1-u^2)^3`` on [-1, 1]."""
    c = 35.0 / 32.0
    return Kernel("triweight", (c, 0.0, -3.0 * c, 0.0, 3.0 * c, 0.0, -c))


def check_bandwidth(h) -> None:
    """Raise :class:`NonpositiveBandwidth` unless ``h`` is positive and finite."""
    if not 0.0 < h < math.inf:
        raise NonpositiveBandwidth(f"bandwidth must be positive, got {h}")


class BoundaryKernelFamily:
    """Linearly corrected kernels for the left boundary region.

    For ``beta in [0, 1]`` the member kernel is

        ``k_beta(u) = (nu2 - nu1 * u) / (nu0 * nu2 - nu1^2) * k(u)``

    on ``(-1, beta]`` and 0 elsewhere, where
    ``nu_i(beta) = int_{-1}^{beta} u^i k(u) du`` are the partial moments
    of the base kernel.  By construction ``k_beta`` integrates to one with
    zero first moment on its support, and ``k_1 == k`` because the full
    moments are (1, 0, m2).  Each ``nu_i`` is the antiderivative of the
    polynomial ``u^i k(u)``, so it is evaluated exactly.
    """

    def __init__(self, base: Kernel):
        self.base = base
        self._nu = [
            _poly.polyint(_poly.polymul([0.0] * i + [1.0], base.coefficients), lbnd=-1.0)
            for i in range(3)
        ]

    def nu(self, i: int, beta):
        """Partial moment ``nu_{i, beta}``; ``beta`` may be an array."""
        if i not in (0, 1, 2):
            raise ValueError(f"moment order must be 0, 1, or 2, got {i}")
        beta = np.asarray(beta, dtype=float)
        if np.any(beta < 0.0) or np.any(beta > 1.0):
            raise OutOfDomain("beta must lie in [0, 1]")
        return _poly.polyval(beta, self._nu[i])

    def coefficients(self, beta):
        """Return ``(nu2, nu1, denom)`` of the correction at ``beta`` (scalar or array)."""
        nu0, nu1, nu2 = (self.nu(i, beta) for i in range(3))
        return nu2, nu1, nu0 * nu2 - nu1 * nu1


@lru_cache(maxsize=None)
def boundary_family(kernel: Kernel) -> BoundaryKernelFamily:
    """Shared per-kernel cache of :class:`BoundaryKernelFamily` instances."""
    return BoundaryKernelFamily(kernel)
