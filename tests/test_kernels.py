import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from curstat.errors import NonpositiveBandwidth, OutOfDomain
from curstat.kernels import BoundaryKernelFamily, Kernel, boundary_family, triweight

from oracles import ScaledKernel, boundary_kernel, kernel_constants, nu_moment


def simpson(values, spacing):
    w = np.ones(len(values))
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return float((values * w).sum() * spacing / 3.0)


# --- base triweight -------------------------------------------------------

def test_triweight_pointwise_values():
    kern = triweight()
    assert float(kern.k(0.0)) == pytest.approx(35.0 / 32.0, abs=1e-15)
    assert float(kern.k(1.0)) == 0.0
    assert float(kern.k(-1.0)) == 0.0
    assert float(kern.k(2.0)) == 0.0
    assert float(kern.K(0.0)) == pytest.approx(0.5, abs=1e-15)
    assert float(kern.K(-1.0)) == 0.0
    assert float(kern.K(1.0)) == pytest.approx(1.0, abs=1e-14)
    assert float(kern.K(5.0)) == pytest.approx(1.0, abs=1e-14)
    assert float(kern.k_prime(0.0)) == 0.0


def test_constants_match_closed_forms():
    # m2 = 1/9, int k^2 = 350/429, int k'^2 = 35/11: integrals of the
    # degree-6 polynomial, summed exactly and rounded once.
    kern = triweight()
    assert kern.m2 == 1.0 / 9.0
    assert kern.l2_k == 350.0 / 429.0
    assert kern.l2_kprime == 35.0 / 11.0


def test_exact_constants_match_simpson_oracle():
    kern = triweight()
    m2, l2k, l2kp = kernel_constants(kern)
    assert m2 == pytest.approx(kern.m2, abs=1e-12)
    assert l2k == pytest.approx(kern.l2_k, abs=1e-12)
    assert l2kp == pytest.approx(kern.l2_kprime, abs=1e-12)


def test_kernel_rejects_odd_or_unnormalized_polynomial():
    with pytest.raises(ValueError):
        Kernel("odd", (0.5, 0.1))
    with pytest.raises(ValueError):
        Kernel("heavy", (1.0,))
    # a non-finite coefficient fails the same check, not Fraction's
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="must be even with unit mass"):
            Kernel("x", (bad,))
        with pytest.raises(ValueError, match="must be even with unit mass"):
            Kernel("x", (0.5, 0.0, bad))
    assert Kernel("uniform", (0.5,)).l2_k == 0.5


_KERNELS = (
    triweight(),
    Kernel("epanechnikov", (0.75, 0.0, -0.75)),
    Kernel("uniform", (0.5,)),
)


# kernel arguments at and next to the support ends, signed zeros, and
# extremes, as u = (0.0 - tau) / 1.0
_SPECIAL_U = (
    1.0,
    -1.0,
    float(np.nextafter(1.0, 2.0)),
    float(np.nextafter(-1.0, -2.0)),
    float(np.nextafter(1.0, 0.0)),
    float(np.nextafter(-1.0, 0.0)),
    -0.9999999999999973,  # the triweight K sum rounds below 0 here
    0.0,
    -0.0,
    1e-300,
    -1e-300,
    1e300,
    -1e300,
)


@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    h=st.floats(min_value=1e-300, max_value=1e300),
    taus=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
)
@example(x=0.0, h=1.0, taus=[-u for u in _SPECIAL_U])
@example(x=3.0, h=1.0, taus=[2.0, 4.0, float(np.nextafter(2.0, 0.0)), 3.0])
@example(x=5.0, h=0.25, taus=(np.arange(40) / 8.0).tolist())
def test_window_matches_array_route(x, h, taus):
    for kern in _KERNELS:
        with np.errstate(all="ignore"):  # numpy warns where u * u overflows
            u = (x - np.array(taus, dtype=float)) / h
            want_K = kern.K(u)
            want_k = kern.k(u) / h
        got_K = kern.K_window(x, h, taus)
        got_k = kern.k_window(x, h, taus)
        assert all(type(v) is float for v in got_K + got_k), kern.name
        assert np.array(got_K, dtype=float).tobytes() == want_K.tobytes(), kern.name
        assert np.array(got_k, dtype=float).tobytes() == want_k.tobytes(), kern.name


def test_kernel_pickles_after_its_windows_are_compiled():
    for kern in _KERNELS:
        kern.K_window(0.0, 1.0, [0.5])
        kern.k_window(0.0, 1.0, [0.5])
        back = pickle.loads(pickle.dumps(kern))
        assert back == kern
        assert back.K_window(0.0, 1.0, [0.5]) == kern.K_window(0.0, 1.0, [0.5])
        assert back.k_window(0.0, 1.0, [0.5]) == kern.k_window(0.0, 1.0, [0.5])


def test_first_moment_vanishes_by_symmetry():
    kern = triweight()
    u = np.linspace(-1.0, 1.0, 2001)
    assert abs(simpson(u * kern.k(u), 2.0 / 2000)) < 1e-12


def test_k_prime_is_derivative_of_k():
    kern = triweight()
    rng = np.random.default_rng(7)
    u = rng.uniform(-0.95, 0.95, 50)
    step = 1e-5
    fd = (kern.k(u + step) - kern.k(u - step)) / (2 * step)
    np.testing.assert_allclose(kern.k_prime(u), fd, atol=1e-6)


# --- scaled kernels -------------------------------------------------------

@pytest.mark.parametrize("h", [0.1, 1.0, 3.0])
def test_scaled_kernel_integrates_to_one(h):
    sk = ScaledKernel(triweight(), h)
    u = np.linspace(-h, h, 4001)
    assert simpson(sk.k_h(u), 2 * h / 4000) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("h", [0.1, 1.0, 3.0])
def test_scaled_cdf_derivative_matches_density(h):
    sk = ScaledKernel(triweight(), h)
    rng = np.random.default_rng(21)
    u = rng.uniform(-0.9 * h, 0.9 * h, 50)
    step = 1e-5
    fd = (sk.K_h(u + step) - sk.K_h(u - step)) / (2 * step)
    np.testing.assert_allclose(sk.k_h(u), fd, atol=1e-6)


@pytest.mark.parametrize("h", [0.1, 1.0, 3.0])
def test_scaled_density_derivative_matches_fd(h):
    sk = ScaledKernel(triweight(), h)
    rng = np.random.default_rng(5)
    u = rng.uniform(-0.9 * h, 0.9 * h, 50)
    step = 1e-6 * h
    fd = (sk.k_h(u + step) - sk.k_h(u - step)) / (2 * step)
    scale = np.maximum(np.abs(fd), 1e-3 / h**2)
    np.testing.assert_array_less(np.abs(sk.k_prime_h(u) - fd) / scale, 1e-5)


def test_scaled_kernel_rejects_bad_bandwidth():
    with pytest.raises(NonpositiveBandwidth):
        ScaledKernel(triweight(), 0.0)
    with pytest.raises(NonpositiveBandwidth):
        ScaledKernel(triweight(), -1.0)


# --- partial moments ------------------------------------------------------

def test_nu_moment_closed_forms():
    kern = triweight()
    # nu_{1,beta} has antiderivative -(35/256)(1-u^2)^4
    assert nu_moment(kern, 0, 0.0) == pytest.approx(0.5, abs=1e-10)
    assert nu_moment(kern, 1, 0.0) == pytest.approx(-35.0 / 256.0, abs=1e-10)
    assert nu_moment(kern, 2, 1.0) == pytest.approx(1.0 / 9.0, abs=1e-10)
    assert nu_moment(kern, 0, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert nu_moment(kern, 1, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_family_nu_matches_simpson_oracle():
    kern = triweight()
    fam = boundary_family(kern)
    betas = np.linspace(0.0, 1.0, 33)
    for i in range(3):
        direct = np.array([nu_moment(kern, i, b) for b in betas])
        np.testing.assert_allclose(fam.nu(i, betas), direct, rtol=0, atol=1e-12)


def test_family_determinant_positive():
    fam = boundary_family(triweight())
    betas = np.linspace(0.0, 1.0, 101)
    nu0 = fam.nu(0, betas)
    nu1 = fam.nu(1, betas)
    nu2 = fam.nu(2, betas)
    assert np.all(nu0 * nu2 - nu1**2 > 0)


def test_nu_moment_rejects_bad_inputs():
    kern = triweight()
    with pytest.raises(ValueError):
        nu_moment(kern, 3, 0.5)
    with pytest.raises(OutOfDomain):
        nu_moment(kern, 0, 1.5)


@pytest.mark.parametrize("beta", [float("nan"), [0.5, float("nan")], -0.1, 1.5])
def test_family_nu_rejects_beta_outside_the_unit_interval(beta):
    with pytest.raises(OutOfDomain):
        boundary_family(triweight()).nu(0, beta)


# --- boundary kernels -----------------------------------------------------

def test_beta_one_is_base_kernel():
    kern = triweight()
    fam = boundary_family(kern)
    u = np.linspace(-1.2, 1.2, 501)
    np.testing.assert_allclose(boundary_kernel(fam, 1.0, u), kern.k(u), atol=1e-14)


def test_moment_restoration_on_dense_beta_grid():
    kern = triweight()
    fam = boundary_family(kern)
    for beta in np.linspace(0.0, 1.0, 101):
        u = np.linspace(-1.0, beta, 2001)
        vals = boundary_kernel(fam, beta, u)
        sp = (beta + 1.0) / 2000
        assert abs(simpson(vals, sp) - 1.0) < 1e-8
        assert abs(simpson(u * vals, sp)) < 1e-8


def test_boundary_kernel_zero_outside_support():
    fam = boundary_family(triweight())
    assert float(boundary_kernel(fam, 0.5, 0.7)) == 0.0
    assert float(boundary_kernel(fam, 0.5, -1.0)) == 0.0
    assert float(boundary_kernel(fam, 0.5, 0.5)) != 0.0  # right endpoint included


def test_family_cache_returns_same_object():
    kern = triweight()
    assert boundary_family(kern) is boundary_family(kern)
    assert isinstance(boundary_family(kern), BoundaryKernelFamily)
