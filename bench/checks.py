"""Correctness checks for curstat outputs, computed apart from the program.

Nothing here imports curstat.  The simulation truth, the triweight kernel
and the step MLE are recomputed from their definitions (closed forms,
Gauss-Legendre quadrature, scipy's isotonic regression), so a fault in the
program cannot also hide in its reference.

Every check returns a list of problems; an empty list means it passed.
The CLI prints nine significant digits, so comparisons allow half a unit
in the ninth digit of the printed value plus a small floating slack.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import leggauss
from scipy.optimize import isotonic_regression

# Interior of the built-in truth on which estimates are held to bands:
# inside the support of F0, where the inspection density is bounded away
# from zero and the boundary kernel is not in play.
INTERIOR = (3.0, 10.0)

# Below this size a printed value is compared by absolute error only; it
# covers cancellation in kernel tails, far below any error that matters.
ABS_TOL = 1e-12

# ---------------------------------------------------------------------------
# closed-form truth: events 2 + Gamma(4, 1), inspections Exponential(mean 3)


def _shift(x):
    return np.maximum(np.asarray(x, dtype=float) - 2.0, 0.0)


def F0(x):
    s = _shift(x)
    return 1.0 - np.exp(-s) * (1.0 + s + s * s / 2.0 + s**3 / 6.0)


def f0(x):
    s = _shift(x)
    return s**3 * np.exp(-s) / 6.0


def df0(x):
    s = _shift(x)
    return (3.0 * s**2 - s**3) * np.exp(-s) / 6.0


def d2f0(x):
    s = _shift(x)
    return (6.0 * s - 6.0 * s**2 + s**3) * np.exp(-s) / 6.0


def g(t):
    return np.exp(-np.asarray(t, dtype=float) / 3.0) / 3.0


def dg(t):
    return -g(t) / 3.0


def d2g(t):
    return g(t) / 9.0


# ---------------------------------------------------------------------------
# triweight kernel as a polynomial, constants by Gauss-Legendre quadrature

_k = Polynomial([1.0, 0.0, -1.0]) ** 3 * (35.0 / 32.0)
_K = _k.integ(lbnd=-1.0)
_dk = _k.deriv()
_nodes, _weights = leggauss(16)  # exact up to degree 31
M2 = float(_weights @ (_nodes**2 * _k(_nodes)))
R_K = float(_weights @ _k(_nodes) ** 2)
R_DK = float(_weights @ _dk(_nodes) ** 2)


def kernel(u):
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, _k(u), 0.0)


def kernel_cdf(u):
    u = np.asarray(u, dtype=float)
    return np.where(u <= -1.0, 0.0, np.where(u >= 1.0, 1.0, _K(u)))


# ---------------------------------------------------------------------------
# printed-number helpers


def half_unit(printed):
    """Half a unit in the ninth significant digit of each printed value."""
    x = np.abs(np.asarray(printed, dtype=float))
    out = np.zeros_like(x)
    nz = x > 0.0
    out[nz] = 0.5 * 10.0 ** (np.floor(np.log10(x[nz])) - 8)
    return out


def mismatch(printed, exact, extra=0.0):
    """Mask of printed values that are not ``exact`` to nine digits."""
    printed = np.asarray(printed, dtype=float)
    exact = np.asarray(exact, dtype=float)
    tol = half_unit(printed) + 1e-12 * np.abs(exact) + ABS_TOL + extra
    return ~(np.abs(printed - exact) <= tol)


def _report(name, what, t, bad, printed, exact):
    i = int(np.flatnonzero(bad)[0])
    return (
        f"{name}: {what} at {int(bad.sum())} of {bad.size} nodes, first t = {t[i]:.9g}: "
        f"printed {printed[i]:.9g}, expected {exact[i]:.9g}"
    )


def parse_csv(text: str) -> tuple[list[str], list[str], np.ndarray]:
    """Split CLI CSV output into comment lines, header and a float table."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    header = body[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]], dtype=float)
    return comments, header, rows.reshape(len(body) - 1, len(header))


# ---------------------------------------------------------------------------
# step MLE and smoothed MLE, recomputed


def isotonic_mle(obs_t, obs_d):
    """Step MLE of F: isotonic regression of the indicators grouped by time.

    Returns the distinct times and the fitted value at each of them.
    """
    times, inverse = np.unique(np.asarray(obs_t, dtype=float), return_inverse=True)
    counts = np.bincount(inverse)
    ones = np.bincount(inverse, weights=np.asarray(obs_d, dtype=float))
    fit = isotonic_regression(ones / counts, weights=counts, increasing=True).x
    return times, fit


def step_at(times, values, t):
    """Right-continuous step function through ``(times, values)``, 0 before."""
    idx = np.searchsorted(times, np.asarray(t, dtype=float), side="right") - 1
    return np.where(idx >= 0, values[np.clip(idx, 0, None)], 0.0)


def check_mle(t, mle_F, obs_t, obs_d) -> list[str]:
    times, fit = isotonic_mle(obs_t, obs_d)
    exact = step_at(times, fit, t)
    bad = mismatch(mle_F, exact)
    return [_report("mle_F", "differs from isotonic regression", t, bad, mle_F, exact)] if bad.any() else []


def check_smle(t, F_col, f_col, obs_t, obs_d, h_F, h_f) -> list[str]:
    """smle_F and smle_f against the kernel convolution of the isotonic MLE."""
    times, fit = isotonic_mle(obs_t, obs_d)
    masses = np.diff(fit, prepend=0.0)
    keep = masses > 0.0
    taus, masses = times[keep], masses[keep]
    problems = []
    for name, col, h, kern, scale in (
        ("smle_F", F_col, h_F, kernel_cdf, 1.0),
        ("smle_f", f_col, h_f, kernel, 1.0 / h_f),
    ):
        exact = kern((t[:, None] - taus[None, :]) / h) @ masses * scale
        bad = mismatch(col, exact)
        if bad.any():
            problems.append(_report(name, "differs from the smoothed isotonic MLE", t, bad, col, exact))
    return problems


# ---------------------------------------------------------------------------
# shape properties


def check_unit_interval(name, t, col) -> list[str]:
    bad = ~((col >= 0.0) & (col <= 1.0))
    return [_report(name, "outside [0, 1]", t, bad, col, np.clip(col, 0.0, 1.0))] if bad.any() else []


def check_nondecreasing(name, t, col, slack=0.0) -> list[str]:
    """Printed rounding is monotone, so an exact property survives it;
    ``slack`` admits a true decrease of that size plus its rounding."""
    drop = col[:-1] - col[1:]
    allow = (slack + 2.0 * half_unit(col[:-1])) if slack else 0.0
    bad = drop > allow
    return [_report(name, "decreases", t[1:], bad, col[1:], col[:-1])] if bad.any() else []


def check_nonnegative(name, t, col) -> list[str]:
    bad = ~(col >= 0.0)
    return [_report(name, "negative", t, bad, col, np.zeros_like(col))] if bad.any() else []


def check_hazard(name, t, lam, f, F) -> list[str]:
    """``lam == f / (1 - F)``, with the rounding of f and F carried through."""
    exact = f / (1.0 - F)
    carried = half_unit(f) / (1.0 - F) + np.abs(f) * half_unit(F) / (1.0 - F) ** 2
    bad = mismatch(lam, exact, extra=carried)
    return [_report(name, "is not f / (1 - F)", t, bad, lam, exact)] if bad.any() else []


# ---------------------------------------------------------------------------
# distance to the truth, bounded by the estimators' rates


def _interior_grid():
    return np.linspace(INTERIOR[0], INTERIOR[1], 701)


def _smooth_band(n, h, roughness, power, bias, s):
    """Twice sqrt(2 log n) standard deviations of the pointwise limit,
    variance F0(1-F0)/g * roughness / (n h^power), plus the largest
    asymptotic bias (1/2) m2 h^2 |b| over the interior."""
    sd = np.sqrt(F0(s) * (1.0 - F0(s)) / g(s) * roughness / (n * h**power)).max()
    return 2.0 * math.sqrt(2.0 * math.log(n)) * sd + 0.5 * M2 * h * h * np.abs(bias).max()


def band_F(n: int, h: float) -> float:
    """Sup-norm band for a smoothed distribution estimate at bandwidth h;
    the bias factor is the larger of f0' (SMLE) and f0' + 2 f0 g'/g (MSLE)."""
    s = _interior_grid()
    bias = np.maximum(np.abs(df0(s)), np.abs(df0(s) + 2.0 * f0(s) * dg(s) / g(s)))
    return _smooth_band(n, h, R_K, 1, bias, s)


def band_f(n: int, h: float) -> float:
    """Sup-norm band for a smoothed density estimate at bandwidth h;
    the bias factor is the larger of f0'' (SMLE) and its MSLE counterpart."""
    s = _interior_grid()
    q_ms = d2f0(s) + 2.0 * (d2g(s) * f0(s) + dg(s) * df0(s)) / g(s) - 2.0 * dg(s) ** 2 * f0(s) / g(s) ** 2
    return _smooth_band(n, h, R_DK, 3, np.maximum(np.abs(d2f0(s)), np.abs(q_ms)), s)


def band_mle(n: int) -> float:
    """Sup-norm band for the step MLE: the cube-root rate times the
    Chernoff scale (4 F0 (1-F0) f0 / g)^(1/3), with a (log n)^(1/3) sup
    factor and a margin of two."""
    s = _interior_grid()
    scale = np.cbrt(4.0 * F0(s) * (1.0 - F0(s)) * f0(s) / g(s)).max()
    return 2.0 * np.cbrt(math.log(n)) * scale * n ** (-1.0 / 3.0)


def check_band(name, t, col, truth, band) -> list[str]:
    inside = (t >= INTERIOR[0]) & (t <= INTERIOR[1])
    err = np.abs(col[inside] - truth(t[inside]))
    if err.size == 0:
        return [f"{name}: no grid node in the interior {INTERIOR}"]
    if err.max() > band:
        i = int(np.argmax(err))
        return [f"{name}: sup error {err.max():.4g} on {INTERIOR} at t = {t[inside][i]:.6g} exceeds the band {band:.4g}"]
    return []


# ---------------------------------------------------------------------------
# bandwidth-constant table


def c_star_F(method: str, t: float) -> float:
    """aMSE-optimal constant for the distribution target (alpha = 1/5)."""
    V = F0(t) * (1.0 - F0(t)) / g(t) * R_K
    b = df0(t) if method == "smle" else df0(t) + 2.0 * f0(t) * dg(t) / g(t)
    return float((V / (M2**2 * b**2)) ** 0.2)


def _table_meta(comments):
    meta = {}
    for line in comments:
        for part in line.lstrip("# ").split(","):
            key, sep, value = part.partition(" = ")
            if sep:
                meta[key.strip()] = value.strip()
    return meta


def check_table(text: str, expect: dict) -> list[str]:
    """Checks of a ``reproduce-table1`` output.

    ``expect`` holds the requested method, n, m, B and seed.  Every c
    must lie in its candidate grid, every h must equal c n^-alpha, and
    the theory row must equal the closed-form optimal constants.
    """
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    meta = _table_meta(comments)
    problems = [
        f"table header echoes {key} = {meta.get(key)!r}, requested {value}"
        for key, value in expect.items()
        if meta.get(key) != str(value)
    ]
    if meta.get("target") != "F":
        return problems + [f"table checks cover target F only, got {meta.get('target')!r}"]
    n = int(expect["n"])
    scale = n ** -0.2
    points = [float(col.split("@")[1]) for col in body[0][1::2]]
    labels = [row[0] for row in body[1:]]
    for kind in ("bootstrap", "mc-sim", "theory"):
        if not any(label.startswith(kind) for label in labels):
            problems.append(f"table has no {kind} row")
    for row in body[1:]:
        label, cells = row[0], np.array([float(v) for v in row[1:]])
        cs, hs = cells[0::2], cells[1::2]
        if cs.size != len(points):
            problems.append(f"row {label!r} has {cells.size} cells for {len(points)} points")
            continue
        carried = scale * half_unit(cs)
        bad = mismatch(hs, cs * scale, extra=carried)
        if bad.any():
            problems.append(f"row {label!r}: h != c n^-1/5 at t = {points[int(np.flatnonzero(bad)[0])]:g}")
        if label.startswith("bootstrap c0="):
            c0 = float(label.split("=")[1])
            lo, hi = c0 / 10.0, 10.0 * c0
        elif label.startswith("mc-sim"):
            lo, hi = 1.0, 25.0
        elif label == "theory":
            exact = np.array([c_star_F(expect["method"], p) for p in points])
            bad = mismatch(cs, exact)
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                problems.append(
                    f"theory row: c at t = {points[i]:g} is {cs[i]:.9g}, closed form gives {exact[i]:.9g}"
                )
            continue
        else:
            problems.append(f"unknown table row {label!r}")
            continue
        slack = half_unit(cs)
        out = (cs < lo - slack) | (cs > hi + slack)
        if out.any():
            i = int(np.flatnonzero(out)[0])
            problems.append(f"row {label!r}: c = {cs[i]:.9g} at t = {points[i]:g} lies outside its grid [{lo:g}, {hi:g}]")
    return problems
