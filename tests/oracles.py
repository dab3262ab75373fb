"""Independent slow-route oracles shared by the test modules.

Everything here recomputes a target quantity by brute force (dynamic
programming over a value grid, dense quadrature, golden-section search,
direct kernel sums, a monotone-chain convex hull in exact integer
arithmetic, pool adjacent violators and a per-line CSV reader as Python
loops) without touching the library's own algorithms, so the two
routes stay independent.  The rescaled kernel, the corrected boundary
kernel ``k_beta`` and the ``np.vander`` binned moments are the
library's earlier direct routes to the same quantities, and
:func:`fit_smoothed_per_h` is its earlier one-bandwidth smoothing, on the
library's own coefficient tables.  The other borrowing is the
closed-form boundary moments ``nu`` in :func:`direct_smoothed`, which are
checked against :func:`nu_moment` on their own, and the library's PAVA
solve in :func:`eager_hull`, checked against :func:`pava_blocks_loop`, so
that the hull's per-node members can be compared bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from curstat import smoothing
from curstat.errors import DegenerateSupport, InputError, OutOfDomain
from curstat.kernels import Kernel, boundary_family, check_bandwidth
from curstat.mle import pava_blocks


def hidden_x(truth, n: int, seed) -> np.ndarray:
    """The latent event times of ``sample_current_status(truth, n, seed)``:
    they are its generator's first draw."""
    return truth.sample_x(np.random.default_rng(seed), n)


def grid_mle_oracle(deltas, steps=400):
    """Maximize the current status log likelihood over monotone F on a grid.

    Dynamic program over F values in {0, 1/steps, ..., 1}: position i may
    use any grid value >= the value at position i-1.  Returns the argmax
    vector of F values at the observation positions (assumed ordered,
    distinct times).
    """
    grid = np.linspace(0.0, 1.0, steps + 1)
    with np.errstate(divide="ignore"):
        term1 = np.log(grid)
        term0 = np.log1p(-grid)
    n = len(deltas)
    dp = (term1 if deltas[0] else term0).copy()
    backptr = np.zeros((n, steps + 1), dtype=int)
    idx = np.arange(steps + 1)
    for i in range(1, n):
        prefix_max = np.maximum.accumulate(dp)
        arg = np.maximum.accumulate(np.where(dp >= prefix_max, idx, 0))
        backptr[i] = arg
        dp = prefix_max + (term1 if deltas[i] else term0)
    j = int(np.argmax(dp))
    out = np.empty(n)
    for i in range(n - 1, -1, -1):
        out[i] = grid[j]
        if i:
            j = backptr[i][j]
    return out


def simpson(values, spacing):
    """Composite Simpson rule over uniformly spaced values (odd count)."""
    values = np.asarray(values, dtype=float)
    w = np.ones(values.shape[-1])
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return (values * w).sum(axis=-1) * spacing / 3.0


def golden_section_min(fn, lo, hi, tol=1e-8, max_iter=200):
    """Golden-section minimizer of a unimodal scalar function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


# Simpson rules for the kernel constants and partial moments.  2001 nodes
# on [-1, 1] leave them accurate to ~1e-12 for polynomial kernels.
QUAD_NODES = 2001


def kernel_constants(kernel, nodes=QUAD_NODES):
    """``(m2, int k^2, int k'^2)`` by composite Simpson quadrature."""
    u = np.linspace(-1.0, 1.0, nodes)
    spacing = 2.0 / (nodes - 1)
    kv = np.asarray(kernel.k(u), dtype=float)
    kp = np.asarray(kernel.k_prime(u), dtype=float)
    return tuple(float(simpson(v, spacing)) for v in (u * u * kv, kv * kv, kp * kp))


def nu_moment(kernel, i, beta, nodes=QUAD_NODES):
    """Partial moment ``int_{-1}^{beta} u^i k(u) du`` by composite Simpson."""
    if i not in (0, 1, 2):
        raise ValueError(f"moment order must be 0, 1, or 2, got {i}")
    if not 0.0 <= beta <= 1.0:
        raise OutOfDomain(f"beta must lie in [0, 1], got {beta}")
    u = np.linspace(-1.0, beta, nodes)
    spacing = (beta + 1.0) / (nodes - 1)
    return float(simpson(np.asarray(kernel.k(u), dtype=float) * u**i, spacing))


@dataclass(frozen=True)
class ScaledKernel:
    """A kernel rescaled to bandwidth ``h``.

    ``K_h(u) = K(u/h)``, ``k_h(u) = k(u/h)/h`` and
    ``k_prime_h(u) = k'(u/h)/h^2``, so ``k_h`` integrates to one and is the
    derivative of ``K_h``.
    """

    base: Kernel
    h: float

    def __post_init__(self):
        check_bandwidth(self.h)

    def K_h(self, u):
        return self.base.K(np.asarray(u, dtype=float) / self.h)

    def k_h(self, u):
        return self.base.k(np.asarray(u, dtype=float) / self.h) / self.h

    def k_prime_h(self, u):
        return self.base.k_prime(np.asarray(u, dtype=float) / self.h) / (self.h * self.h)


def boundary_kernel(family, beta: float, u):
    """The corrected kernel ``k_beta`` of a boundary family at ``u``:
    ``(nu2 - nu1 u) / D * k(u)`` on ``(-1, beta]``, 0 elsewhere.

    For ``beta >= 1`` the correction is the identity and the base kernel
    is returned exactly.
    """
    u = np.asarray(u, dtype=float)
    if beta >= 1.0:
        return family.base.k(u)
    if beta < 0.0:
        raise OutOfDomain(f"beta must be nonnegative, got {beta}")
    nu2, nu1, denom = family.coefficients(beta)
    inside = (u > -1.0) & (u <= beta)
    vals = (nu2 - nu1 * u) / denom * family.base.k(u)
    return np.where(inside, vals, 0.0)


def binned_moments_vander(times, weights, delta, powers):
    """``S[c, p, l]`` of the binned smoothing through one ``np.vander``
    table and its ``(n, classes, powers)`` product with the weights."""
    x = times / delta
    cell = np.floor(x)
    terms = weights[:, :, None] * np.vander(x - cell, powers, increasing=True)[:, None, :]
    cell = cell.astype(np.int64)
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    moments = np.zeros((weights.shape[1], powers, cell[-1] + 1))
    moments[:, :, cell[starts]] = np.add.reduceat(terms, starts, axis=0).transpose(1, 2, 0)
    return moments


def fit_smoothed_per_h(sample, kernel, h, cells=32):
    """``fit_smoothed`` as one bandwidth's own fit at ``cells`` grid cells
    per bandwidth: the library's earlier route, with the
    :func:`binned_moments_vander` moments of that bandwidth alone, one
    convolution per power over them, and one ``np.tensordot`` for the
    boundary nodes."""
    check_bandwidth(h)
    h = float(h)
    span = float(sample.times[-1]) + h
    delta = h / cells
    nodes = np.ceil(span / delta - 1e-9) + 1.0
    if not nodes <= smoothing._MAX_GRID_NODES:
        raise InputError(
            f"bandwidth {h:.6g} over [0, {span:.6g}] needs {nodes:.3g} grid nodes,"
            f" more than the ceiling {smoothing._MAX_GRID_NODES}"
        )
    grid = np.arange(int(nodes)) * delta
    tables = smoothing._bin_tables(kernel, cells)
    n = sample.n
    weights = np.column_stack([sample.counts - sample.ones, sample.ones]).astype(float)
    moments = binned_moments_vander(sample.times, weights, delta, tables.boundary.shape[1])
    near = moments[:, :, : 2 * cells]
    corrected = np.tensordot(near, tables.boundary[:, :, : near.shape[2]], axes=([1, 2], [1, 2]))
    dens = []
    for m, g_near in zip(moments, corrected):
        full = sum(np.convolve(m[p], tables.k[p]) for p in range(tables.k.shape[0]))
        g = np.zeros(grid.size)
        vals = full[cells - 1 : cells - 1 + grid.size]
        g[: vals.size] = vals
        np.maximum(g, 0.0, out=g)
        g[:cells] = g_near
        g /= n * h
        dens.append(g)
    g0, g1 = dens
    return smoothing.SmoothedMeasures(
        sample=sample, kernel=kernel, h=h, cells=cells, grid=grid,
        g0=g0, g1=g1, g=g0 + g1, moments=moments,
    )


def _scatter_sums(grid, times, weights, kernel, h, n):
    """(1/n) sum_j w_j k_h(t_i - T_j) and its derivative, by direct sums.

    Each observation touches at most ``2h / spacing + 3`` consecutive
    nodes, so contributions are gathered over a fixed-width index
    window and summed with bincount.
    """
    npts = grid.size
    active = weights > 0.0
    if not np.any(active):
        return np.zeros(npts), np.zeros(npts)
    times = times[active]
    weights = weights[active]
    delta = grid[1] - grid[0]
    width = int(np.floor(2.0 * h / delta)) + 3
    lo = np.ceil((times - h) / delta - 1e-9).astype(np.int64)
    idx = lo[:, None] + np.arange(width)[None, :]
    inside = (idx >= 0) & (idx < npts)
    safe = np.clip(idx, 0, npts - 1)
    u = (grid[safe] - times[:, None]) / h
    inside &= np.abs(u) <= 1.0
    kv = np.where(inside, kernel.k(u), 0.0)
    kd = np.where(inside, kernel.k_prime(u), 0.0)
    flat = safe[inside]
    w = np.broadcast_to(weights[:, None], idx.shape)[inside]
    dens = np.bincount(flat, weights=w * kv[inside], minlength=npts)
    deriv = np.bincount(flat, weights=w * kd[inside], minlength=npts)
    return dens / (n * h), deriv / (n * h * h)


def direct_smoothed(sample, kernel, h, cells=32):
    """``(grid, g0, g1, dg0, dg1)`` by direct sums over the observations.

    The grid is ``i * h / cells`` over ``[0, T_max + h]``.  Nodes with
    ``t < h`` are recomputed one by one with the corrected kernel
    ``(nu2 - nu1 u) / D * k(u)``, with ``nu`` from the library's
    closed-form boundary family, and their derivatives are grid
    differences.
    """
    delta = h / cells
    npts = int(np.ceil((float(sample.times[-1]) + h) / delta - 1e-9)) + 1
    grid = np.arange(npts) * delta
    times, n = sample.times, sample.n
    weights = (sample.counts - sample.ones).astype(float), sample.ones.astype(float)
    family = boundary_family(kernel)
    out = []
    for w in weights:
        dens, deriv = _scatter_sums(grid, times, w, kernel, h, n)
        for i in np.flatnonzero(grid < h):
            nu2, nu1, denom = family.coefficients(grid[i] / h)
            hi = np.searchsorted(times, grid[i] + h, side="left")
            u = (grid[i] - times[:hi]) / h
            dens[i] = float(w[:hi] @ ((nu2 - nu1 * u) / denom * kernel.k(u))) / (n * h)
        for i in np.flatnonzero(grid < h):
            lo, hi = max(i - 1, 0), i + 1
            deriv[i] = (dens[hi] - dens[lo]) / ((hi - lo) * delta)
        out.extend((dens, deriv))
    g0, dg0, g1, dg1 = out
    return grid, g0, g1, dg0, dg1


# The step MLE as the greatest convex minorant of the cumulative sum
# diagram, by a monotone-chain scan with exact integer turn tests.

@dataclass(frozen=True)
class CusumDiagram:
    """Cumulative sum diagram; point 0 is the origin.

    ``x``/``y`` are the normalized coordinates.  When the diagram comes
    from an ``ObservedSample``, ``cum_counts``/``cum_ones`` hold the
    raw integer cumulative counts so the minorant can be computed with
    exact arithmetic; they are None for generic weighted diagrams.
    """

    x: np.ndarray
    y: np.ndarray
    cum_counts: np.ndarray | None = None
    cum_ones: np.ndarray | None = None


def cusum(sample) -> CusumDiagram:
    """Cumulative sum diagram of a grouped sample."""
    cc = np.concatenate(([0], np.cumsum(sample.counts)))
    co = np.concatenate(([0], np.cumsum(sample.ones)))
    n = cc[-1]
    return CusumDiagram(x=cc / n, y=co / n, cum_counts=cc, cum_ones=co)


def _lower_hull(x, y) -> list[int]:
    """Monotone-chain scan; returns vertex indices of the lower convex hull.

    Collinear middle points are dropped, so consecutive hull segments
    have strictly increasing slopes.
    """
    hull = [0]
    for i in range(1, len(x)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            # pop a if it lies on or above the chord from o to i
            if (x[a] - x[o]) * (y[i] - y[o]) - (y[a] - y[o]) * (x[i] - x[o]) <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def gcm_left_slopes(diagram: CusumDiagram) -> np.ndarray:
    """Left slopes of the greatest convex minorant at each diagram point.

    Returns one slope per point ``P_1 .. P_m``: the slope of the minorant
    segment whose x-interval ends at (or covers) that point.  Slopes are
    nondecreasing by construction.
    """
    if diagram.cum_counts is not None:
        # exact integer turn tests
        x = [int(v) for v in diagram.cum_counts]
        y = [int(v) for v in diagram.cum_ones]
    else:
        x = diagram.x
        y = diagram.y
    hull = _lower_hull(x, y)
    seg_slopes = np.array(
        [(y[b] - y[a]) / (x[b] - x[a]) for a, b in zip(hull[:-1], hull[1:])]
    )
    reps = np.diff(hull)
    return np.repeat(seg_slopes, reps)


def hull_mle(sample):
    """``(jump_times, values)`` of the step MLE read off the integer hull:
    the left slopes, with a jump wherever the slope increases."""
    slopes = gcm_left_slopes(cusum(sample))
    jump = slopes > np.concatenate(([0.0], slopes[:-1]))
    return sample.times[jump], slopes[jump]


def pava_blocks_loop(values, weights):
    """``(fitted, sizes)`` of pool adjacent violators as a Python loop.

    Each entry opens a block that is pooled with the blocks before it
    while their mean is strictly above its own, so equal neighbours stay
    apart and a block's value is its running weighted sum over its
    running weight.  No input validation.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    # per-block accumulators: weight sum, weighted value sum, size, mean
    bw: list[float] = []
    bwv: list[float] = []
    size: list[int] = []
    mean: list[float] = []
    for i in range(len(v)):
        cw, cwv, cs, cm = w[i], w[i] * v[i], 1, v[i]
        while mean and mean[-1] > cm:
            cw += bw.pop()
            cwv += bwv.pop()
            cs += size.pop()
            mean.pop()
            cm = cwv / cw
        bw.append(cw)
        bwv.append(cwv)
        size.append(cs)
        mean.append(cm)
    sizes = np.asarray(size, dtype=np.int64)
    return np.repeat(mean, sizes), sizes


# The hull fit's per-node members, built eagerly over the whole grid as
# fit_msle once did, before the fit kept only its PAVA solve.

def eager_hull(sm):
    """``(hull_vertices, touch_mask, F_tab)`` of ``fit_msle(sm)``, each over
    the whole grid, with the fit carried across inactive nodes by a running
    maximum of node indices; DegenerateSupport where no node is active."""
    grid = sm.grid
    w = sm.g * sm.spacing
    active = np.flatnonzero(w > 0.0)
    if active.size == 0:
        raise DegenerateSupport("smoothed density is zero everywhere on the grid")
    fitted, sizes = pava_blocks(sm.g1[active] / sm.g[active], w[active])

    vertices = active[np.cumsum(sizes) - 1]

    touch = np.zeros(grid.size, dtype=bool)
    touch[active[np.repeat(sizes == 1, sizes)]] = True

    F_tab = np.empty(grid.size)
    F_tab[active] = fitted
    pos = np.zeros(grid.size, dtype=np.int64)
    pos[active] = 1
    carry = np.maximum.accumulate(np.where(pos, np.arange(grid.size), -1))
    lead = carry < 0
    carry[lead] = active[0]
    F_tab = F_tab[carry]
    F_tab[lead] = fitted[0]
    return vertices, touch, F_tab


def eager_msle_F(sm, t: float) -> float:
    """``msle_F(fit_msle(sm), t)`` at one float ``t``: :func:`eager_hull`'s
    table at the node at or after ``t``, its last value beyond the grid."""
    F_tab = eager_hull(sm)[2]
    if not (np.isfinite(t) and t >= 0.0):
        raise OutOfDomain(smoothing._DOMAIN_MESSAGE)
    return float(F_tab[min(int(np.searchsorted(sm.grid, t)), F_tab.size - 1)])


def read_observations_loop(path: str) -> np.ndarray:
    """The observation CSV reader as a per-line Python loop: strip every
    line, skip blank and ``#`` lines, check the header, then ``float`` and
    check each row in turn, naming the first bad line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    rows = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if not header_seen:
            if fields != ["t", "delta"]:
                raise InputError(f"{path}:{lineno}: expected header 't,delta'")
            header_seen = True
            continue
        if len(fields) != 2:
            raise InputError(
                f"{path}:{lineno}: expected two fields, got {len(fields)}"
            )
        try:
            t = float(fields[0])
            d = float(fields[1])
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric row {line!r}") from None
        if not np.isfinite(t) or t < 0.0:
            raise InputError(f"{path}:{lineno}: observation time must be >= 0")
        if d not in (0.0, 1.0):
            raise InputError(f"{path}:{lineno}: delta must be 0 or 1, got {fields[1]}")
        rows.append((t, d))
    if not header_seen:
        raise InputError(f"{path}: empty input, expected header 't,delta'")
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.array(rows, dtype=float)
