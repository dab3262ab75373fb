"""Kernel-smoothed empirical measures for current status data.

Given grouped observations ``(T_j, count, ones)`` this module tabulates,
on the uniform grid ``t_i = i * delta`` with ``delta = h / K`` over
``[0, T_max + h]``, the smoothed sub-density of the censoring times with
positive indicator,

    g1_n(t) = (1/n) sum_j ones_j * k_h(t - T_j),

its complement ``g0_n`` (indicator zero), their sum ``g_n``, the three
first derivatives, and the antiderivative of ``g_n`` obtained by
cumulative trapezoid quadrature.

The kernel is a polynomial, so binning is exact.  Write
``T_j = (l_j + r_j) * delta`` with an integer cell ``l_j`` and
``0 <= r_j < 1``.  Observation j reaches node ``l_j + m`` only for the
offsets ``m = 1 - K, ..., K``, with weight ``k((m - r_j) / K)``, a
polynomial in ``r_j`` whose coefficients depend on ``m`` alone.  Every
curve is therefore a short convolution of the per-cell moments
``sum w_j r_j^p`` with a per-``K`` table of those coefficients: one pass
for ``g0``, ``g1``, ``dg0`` and ``dg1``, with no binning error.

Near the origin (``t < h``, i.e. ``i < K``) the symmetric kernel would
spill mass below zero, so those nodes use the linear boundary correction
``(nu2 - nu1 u) / D * k(u)`` at ``beta = i / K``; its partial moments
``nu`` are closed-form polynomials in ``beta``, and the ``u k(u)`` part
reuses the same binned moments.  The correction reduces to the plain
kernel at ``t = h``, which keeps the tabulation continuous across the
seam.  Derivatives are exact kernel-derivative sums on ``t >= h``.  On
the boundary segment the corrected weight depends on ``t`` through both
the kernel argument and the shape parameter, so the derivative there is
taken as a finite difference of the tabulated values (centered, forward
at the origin node).

Several bandwidths of one sample are tabulated in chunks: their moment
segments share one buffer, ``2K`` zero cells apart, so one convolution
per class and power serves them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import InputError, OutOfDomain
from .kernels import Kernel, boundary_family, check_bandwidth
from .mle import ObservedSample

__all__ = ["SmoothedMeasures", "fit_smoothed"]

_poly = np.polynomial.polynomial

# Grid cells per bandwidth K: the spacing is h / K.
_CELLS = 32
# A fit keeps about 160 bytes per node (the grid, g0, g1, g and the
# binned moments), 194 once its derivatives and antiderivative are read,
# and peaks near 290 as a chunk of its own, so the ceiling bounds one fit
# near 300 MB; a bandwidth that needs more nodes is rejected as input.
_MAX_GRID_NODES = 2**20
# Bandwidths share a chunk while its observations x bandwidths and its
# moment cells stay within this budget, so its buffers stay under 2 MB.
_CHUNK_BUDGET = 8192

_CURVES = ("g0", "g1", "g", "dg0", "dg1", "dg", "G")

_DOMAIN_MESSAGE = "evaluation points must be finite and nonnegative"


def _as_array(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    # nan fails both comparisons; an empty array passes
    if not ((arr >= 0.0) & (arr < np.inf)).all():
        raise OutOfDomain(_DOMAIN_MESSAGE)
    return arr


@dataclass(frozen=True)
class SmoothedMeasures:
    """Tabulated smoothed measures on a uniform grid.

    Attributes
    ----------
    sample : ObservedSample
        The grouped observations the tabulation was built from.
    kernel : Kernel
        Base kernel on ``[-1, 1]``.
    h : float
        Bandwidth, strictly positive.
    grid : ndarray
        Uniform grid from 0 to at least ``T_max + h``.
    cells : int
        Grid cells per bandwidth ``K``; the spacing is ``h / K``.
    g0, g1, g : ndarray
        Smoothed sub-densities (indicator zero, indicator one, total)
        at the grid nodes.  ``g == g0 + g1`` holds to rounding.
    moments : ndarray
        The binned moments ``S[c, p, l]`` of :func:`_binned_moments`,
        ``c = 0`` for indicator zero and 1 for indicator one.
    dg0, dg1, dg : ndarray
        Their derivatives at the grid nodes.
    G : ndarray
        Cumulative trapezoid antiderivative of ``g``, zero at the origin.

    The derivatives and the antiderivative are computed on first read, the
    derivatives from the binned moments the fit keeps; a caller that
    reads only ``g0``, ``g1`` and ``g`` never pays for them.
    """

    sample: ObservedSample
    kernel: Kernel
    h: float
    cells: int
    grid: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    g: np.ndarray
    moments: np.ndarray = field(repr=False)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def _derivative(self, c: int, g: np.ndarray) -> np.ndarray:
        cells, h = self.cells, self.h
        delta = h / cells
        table = _bin_tables(self.kernel, cells).k_prime
        dg = _node_sums(self.moments[c], table, self.grid.size) / (self.sample.n * h * h)
        # The corrected weight depends on t through beta too, so the
        # boundary derivative is a grid difference.
        dg[0] = (g[1] - g[0]) / delta
        dg[1:cells] = (g[2 : cells + 1] - g[: cells - 1]) / (2.0 * delta)
        return dg

    def _integral(self, g: np.ndarray) -> np.ndarray:
        # scipy's cumulative_trapezoid(g, dx=dx, initial=0.0), term for term
        dx = self.h / self.cells
        return np.concatenate(([0.0], np.cumsum(dx * (g[1:] + g[:-1]) / 2.0)))

    @cached_property
    def dg0(self) -> np.ndarray:
        return self._derivative(0, self.g0)

    @cached_property
    def dg1(self) -> np.ndarray:
        return self._derivative(1, self.g1)

    @cached_property
    def dg(self) -> np.ndarray:
        return self.dg0 + self.dg1

    @cached_property
    def G(self) -> np.ndarray:
        return self._integral(self.g)

    def eval(self, which: str, t) -> np.ndarray | float:
        """Evaluate a tabulated curve by linear interpolation.

        Parameters
        ----------
        which : str
            One of ``g0, g1, g, dg0, dg1, dg, G``.
        t : array_like
            Evaluation points, all nonnegative.

        Returns
        -------
        ndarray or float
            Interpolated values; exact at grid nodes.  Beyond the grid
            the density and derivative curves are zero and the
            antiderivative stays at its terminal value.

        Raises
        ------
        OutOfDomain
            If any evaluation point is negative.
        """
        if which not in _CURVES:
            raise ValueError(f"unknown curve {which!r}; expected one of {_CURVES}")
        arr = _as_array(t)
        tab = getattr(self, which)
        right = float(tab[-1]) if which == "G" else 0.0
        out = np.interp(arr, self.grid, tab, left=tab[0], right=right)
        if np.ndim(t) == 0:
            return float(out)
        return out


def _check_bandwidth(span: float, h, cells: int) -> tuple[float, int]:
    """``(h, nodes)`` of the grid ``i * h / cells`` over ``[0, span + h]``,
    checked before anything is allocated."""
    check_bandwidth(h)
    h = float(h)
    nodes = np.ceil((span + h) / (h / cells) - 1e-9) + 1.0
    if not nodes <= _MAX_GRID_NODES:
        raise InputError(
            f"bandwidth {h:.6g} over [0, {span + h:.6g}] needs {nodes:.3g} grid nodes,"
            f" more than the ceiling {_MAX_GRID_NODES}"
        )
    return h, int(nodes)


def _offset_table(coefficients: np.ndarray, cells: int) -> np.ndarray:
    """Coefficients of ``r^p`` in ``poly((m - r) / cells)``.

    Row ``p``, column ``m + cells - 1`` for the offsets
    ``m = 1 - cells, ..., cells``.  By Taylor's theorem about ``m / cells``
    the coefficient is ``poly^(p)(m / cells) / p! * (-1 / cells)^p``.
    """
    x = np.arange(1 - cells, cells + 1) / cells
    rows = []
    d = np.asarray(coefficients, dtype=float)
    for p in range(d.size):
        rows.append(_poly.polyval(x, d) * (-1.0 / cells) ** p)
        d = _poly.polyder(d) / (p + 1)
    return np.array(rows)


@dataclass(frozen=True)
class _BinTables:
    """Coefficient tables for ``K`` grid cells per bandwidth.

    ``k[p, q]`` and ``k_prime[p, q]`` are the coefficients of ``r^p`` in
    ``k((m - r) / K)`` and ``k'((m - r) / K)`` for the offset
    ``m = q - K + 1`` from an observation's cell to a node.
    ``boundary[i, p, l]`` is the coefficient of ``r^p`` in the corrected
    weight ``(nu2 - nu1 u) / D * k(u)`` at ``beta = i / K`` of an
    observation in cell ``l``, where ``u = (i - l - r) / K``.
    """

    k: np.ndarray
    k_prime: np.ndarray
    boundary: np.ndarray


@lru_cache(maxsize=8)
def _bin_tables(kernel: Kernel, cells: int) -> _BinTables:
    c = np.asarray(kernel.coefficients, dtype=float)
    k = _offset_table(c, cells)
    u_k = _offset_table(_poly.polymul([0.0, 1.0], c), cells)
    nu2, nu1, denom = boundary_family(kernel).coefficients(np.arange(cells) / cells)
    # offset index of cell l from node i; negative where the cell is out of reach
    q = np.arange(cells)[:, None] - np.arange(2 * cells) + cells - 1
    k_padded = np.pad(k, ((0, 1), (0, 0)))
    corrected = (nu2 / denom)[:, None] * k_padded[:, q] - (nu1 / denom)[:, None] * u_k[:, q]
    return _BinTables(
        k=k,
        k_prime=_offset_table(_poly.polyder(c), cells),
        boundary=np.where(q >= 0, corrected, 0.0).transpose(1, 0, 2),
    )


def _binned_moments(
    times: np.ndarray, weights: np.ndarray, deltas, powers: int, gap: int
) -> tuple[np.ndarray, np.ndarray]:
    """``S[c, p, :]`` for each spacing in ``deltas``: segments one after
    another, ``gap`` zero cells apart, and their starts.

    Cell ``s + l`` of the segment at ``s`` sums ``weights[c, j] * r_j^p``
    over ``T_j = (l + r_j) * delta`` with ``0 <= r_j < 1``.  One power at
    a time, ``r^p`` is built by repeated multiplication, weighted into a
    ``(classes, spacings * n)`` buffer and summed cell by cell along each
    row: the products and sums ``np.vander`` and one ``reduceat`` would
    take for each spacing alone, so the same bits, with a fit of one
    bandwidth peaking near 56 bytes per observation.
    """
    x = times / np.asarray(deltas, dtype=float)[:, None]
    cell = np.floor(x)
    r = np.subtract(x, cell, out=x).ravel()
    cell = cell.astype(np.int64)
    steps = cell[:, -1] + 1 + gap
    bases = np.cumsum(steps) - steps
    cell = (cell + bases[:, None]).ravel()
    # times are sorted, so the observations of a cell are contiguous
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    filled = cell[starts]
    moments = np.zeros((len(weights), powers, cell[-1] + 1))
    # row c repeats weights[c] once per spacing, in the order of cell; C-ordered
    # weights keep it contiguous, which multiply and reduceat walk up to 3x faster
    w = np.tile(weights, len(deltas)) if len(deltas) > 1 else weights
    r_p, terms = np.ones_like(r), np.empty_like(w)
    for p in range(powers):
        np.multiply(w, r_p, out=terms)
        for c, row in enumerate(terms):
            moments[c, p, filled] = np.add.reduceat(row, starts)
        np.multiply(r_p, r, out=r_p)
    return moments, bases


def _node_sums(moments: np.ndarray, table: np.ndarray, count: int) -> np.ndarray:
    """``sum_l sum_p table[p, i - l + K - 1] * moments[p, l]`` at the
    nodes ``i = 0, ..., count - 1``: one short convolution per power."""
    cells = table.shape[1] // 2
    full = sum(np.convolve(moments[p], table[p]) for p in range(table.shape[0]))
    out = np.zeros(count)
    # full[q] belongs to node q - (K - 1)
    vals = full[cells - 1 : cells - 1 + count]
    out[: vals.size] = vals
    return out


def fit_smoothed(sample: ObservedSample, kernel: Kernel, h: float) -> SmoothedMeasures:
    """Tabulate the smoothed measures of a grouped sample.

    Parameters
    ----------
    sample : ObservedSample
        Grouped observation times with counts and positive-indicator
        counts, as built by :func:`curstat.mle.build_sample`.
    kernel : Kernel
        Base kernel; the boundary-corrected family is derived from it.
    h : float
        Bandwidth, strictly positive.  The grid is ``i * h / 32`` over
        ``[0, T_max + h]``.

    Returns
    -------
    SmoothedMeasures

    Raises
    ------
    NonpositiveBandwidth
        If ``h`` is not positive and finite.
    InputError
        If the grid would have more than ``2**20`` nodes.
    """
    return next(_fit_smoothed_many(sample, kernel, [h]))


def _fit_smoothed_many(sample: ObservedSample, kernel: Kernel, hs):
    """:func:`fit_smoothed` at each bandwidth of ``hs``, yielded in order,
    in chunks within ``_CHUNK_BUDGET`` observations x bandwidths and moment
    cells, or of one bandwidth.  A bad bandwidth raises its error before
    its chunk allocates anything, once the fits before it are yielded."""
    span = float(sample.times[-1])
    cells = _CELLS
    chunk, used = [], 0
    for h in hs:
        try:
            h, nodes = _check_bandwidth(span, h, cells)
        except InputError:
            yield from _fit_chunk(sample, kernel, chunk, cells)
            raise
        # the moment cells of the bandwidth's segment and its gap
        cost = int(span / (h / cells)) + 1 + 2 * cells
        if chunk and max(used + cost, (len(chunk) + 1) * sample.times.size) > _CHUNK_BUDGET:
            yield from _fit_chunk(sample, kernel, chunk, cells)
            chunk, used = [], 0
        chunk.append((h, nodes))
        used += cost
    yield from _fit_chunk(sample, kernel, chunk, cells)


def _fit_chunk(sample: ObservedSample, kernel: Kernel, chunk: list, cells: int):
    """The fits of a chunk of ``(h, nodes)``, one segment of the
    moments each; a fit keeps a view of its segment of the chunk's
    buffer, which the chunk budget bounds."""
    if not chunk:
        return
    tables = _bin_tables(kernel, cells)
    powers = tables.boundary.shape[1]
    weights = np.array([sample.counts - sample.ones, sample.ones], dtype=float)
    deltas, n = [h / cells for h, _ in chunk], sample.n
    moments, bases = _binned_moments(sample.times, weights, deltas, powers, 2 * cells)
    sizes = np.diff(bases, append=moments.shape[2] + 2 * cells) - 2 * cells
    sums = np.stack([_node_sums(m, tables.k, moments.shape[2] + 2 * cells) for m in moments])
    # the plain kernel is nonnegative; a vanishing sum may round below 0
    np.maximum(sums, 0.0, out=sums)
    # Nodes i < K (t < h) use the corrected kernel, which reaches the first
    # 2K cells; each segment that long takes tensordot's gemm, stacked.
    full = np.flatnonzero(sizes >= 2 * cells)
    near = moments[:, :, bases[full, None] + np.arange(2 * cells)]
    near = near.transpose(2, 0, 1, 3).reshape(full.size, len(moments), powers * 2 * cells)
    corrected = np.empty((len(chunk), len(moments), cells))
    corrected[full] = near @ tables.boundary.transpose(1, 2, 0).reshape(-1, cells)
    for (h, nodes), base, size, g_near in zip(chunk, bases, sizes, corrected):
        own = moments[:, :, base : base + size]
        dens = sums[:, base : base + nodes]
        if size < 2 * cells:
            # shorter than the table: numpy convolves it with the operands
            # swapped, so it takes a convolution of its own to keep the bits
            g_near = np.tensordot(own, tables.boundary[:, :, :size], axes=([1, 2], [1, 2]))
            dens = np.maximum([_node_sums(m, tables.k, nodes) for m in own], 0.0)
        g0, g1 = dens / (n * h)
        g0[:cells], g1[:cells] = g_near / (n * h)
        grid = np.arange(nodes) * (h / cells)
        yield SmoothedMeasures(sample, kernel, h, cells, grid, g0, g1, g0 + g1, own)
