"""Theta evaluation against brute-force series and the classical identities."""

import mpmath
import numpy as np
import pytest

from finiteq import theta2, theta3, theta3_derivative


# --- independent oracles: plain wide-window summation, no recentering -------

def theta3_brute(u, tau, n_max=60):
    n = np.arange(-n_max, n_max + 1)
    return complex(np.sum(np.exp(1j * np.pi * tau * n**2 + 2j * n * u)))


def theta2_brute(u, tau, n_max=60):
    n = np.arange(-n_max, n_max + 1)
    return complex(np.sum(np.exp(1j * np.pi * tau * (n + 0.5) ** 2 + 1j * (2 * n + 1) * u)))


def theta3_derivative_brute(u, tau, n_max=60):
    n = np.arange(-n_max, n_max + 1)
    return complex(np.sum(2j * n * np.exp(1j * np.pi * tau * n**2 + 2j * n * u)))


# frozen from theta3_brute / theta2_brute at n_max = 60
THETA3_AT_0_I = 1.0864348112133082
THETA2_AT_0_I = 0.9135791381561168


def test_theta3_frozen_value():
    assert abs(theta3_brute(0, 1j) - THETA3_AT_0_I) < 1e-15
    assert abs(theta3(0, 1j) - THETA3_AT_0_I) < 1e-14


def test_theta2_frozen_value():
    assert abs(theta2_brute(0, 1j) - THETA2_AT_0_I) < 1e-15
    assert abs(theta2(0, 1j) - THETA2_AT_0_I) < 1e-14


def test_theta3_vanishes_on_zero_lattice():
    for k in (-1, 0, 2):
        for ell in (-1, 0, 1):
            u = (2 * k + 1) * np.pi / 2 + (2 * ell + 1) * np.pi * 1j / 2
            assert abs(theta3(u, 1j)) < 1e-12


def test_theta3_pi_periodic():
    u = 0.3
    assert abs(theta3(u + np.pi, 1j) - theta3(u, 1j)) < 1e-13


def test_theta2_antiperiodic():
    u = 0.2
    assert abs(theta2(u + np.pi, 2j) + theta2(u, 2j)) < 1e-13


def test_theta2_vanishes_at_half_pi():
    assert abs(theta2(np.pi / 2, 1j)) < 1e-14


def test_theta3_derivative_odd_symmetry_at_origin():
    assert abs(theta3_derivative(0, 1j)) < 1e-14


def test_theta3_derivative_central_difference():
    u, h = 0.4 + 0.1j, 1e-6
    fd = (theta3(u + h, 1j) - theta3(u - h, 1j)) / (2 * h)
    assert abs(theta3_derivative(u, 1j) - fd) < 1e-8


def test_theta3_derivative_matches_brute():
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        assert abs(theta3_derivative(u, 1j) - theta3_derivative_brute(u, 1j)) < 1e-12


def test_theta3_derivative_nonzero_at_simple_zero():
    u = np.pi / 2 + np.pi * 1j / 2
    assert abs(theta3(u, 1j)) < 1e-12
    assert abs(theta3_derivative(u, 1j)) > 0.1


def test_matches_brute_force_at_random_points():
    rng = np.random.default_rng(11)
    for tau in (1j, 0.5 + 1.5j, 1j / 3):
        for _ in range(8):
            u = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
            ref = theta3_brute(u, tau, n_max=120)
            assert abs(theta3(u, tau) - ref) <= 1e-12 * (1 + abs(ref))
            ref2 = theta2_brute(u, tau, n_max=120)
            assert abs(theta2(u, tau) - ref2) <= 1e-12 * (1 + abs(ref2))


def test_quasi_periodicity():
    rng = np.random.default_rng(3)
    u = rng.uniform(0, np.pi, 40) + 1j * rng.uniform(0, np.pi, 40)
    for tau in (1j, 2j, 1j / 3):
        lhs = theta3(u + np.pi * tau, tau)
        rhs = np.exp(-1j * np.pi * tau - 2j * u) * theta3(u, tau)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-12


def test_modular_transform():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = complex(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        lhs = theta3(u, tau)
        rhs = (-1j * tau) ** -0.5 * np.exp(u**2 / (1j * np.pi * tau)) * theta3(u / tau, -1 / tau)
        assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_vector_input_matches_scalar():
    u = np.array([0.1 + 0.2j, 1.0 - 0.4j, -2.0 + 1.1j])
    vec = theta3(u, 1j / 5)
    for i, ui in enumerate(u):
        assert abs(vec[i] - theta3(complex(ui), 1j / 5)) < 1e-14


def test_large_imaginary_argument_recentring():
    # dominant series index far from zero; brute force needs a wide window
    u = 0.7 + 6.0j
    tau = 1j / 4
    ref = theta3_brute(u, tau, n_max=300)
    assert abs(theta3(u, tau) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("bad_tau", [1.0, -1j, 2 - 0.5j, 0j])
def test_rejects_lower_half_plane(bad_tau):
    with pytest.raises(ValueError):
        theta3(0.3, bad_tau)
    with pytest.raises(ValueError):
        theta2(0.3, bad_tau)


def test_rejects_nonfinite_arguments():
    with pytest.raises(ValueError):
        theta3(np.nan, 1j)
    with pytest.raises(ValueError):
        theta3(np.inf + 0j, 1j)
    with pytest.raises(ValueError):
        theta3(0.1, complex(np.nan, 1.0))


@pytest.mark.parametrize("fn, kind, derivative", [(theta2, 2, 0), (theta3, 3, 0), (theta3_derivative, 3, 1)])
def test_overflow_raises_and_nearby_value_matches_mpmath(fn, kind, derivative):
    # |theta(u; i)| grows like exp(Im(u)^2 / pi): at Im(u) = 300 that is
    # exp(28648), far beyond the double range, and at Im(u) = 40 about 1e221
    with pytest.raises(RuntimeError, match=rf"^{fn.__name__} is not finite at u = 300j"):
        fn(300j, 1j)
    with pytest.raises(RuntimeError, match=rf"^{fn.__name__} is not finite"):
        fn(np.array([0.1, 300j]), 1j)
    u = 0.3 + 40j
    with mpmath.workdps(40):
        ref = mpmath.jtheta(kind, mpmath.mpc(u), mpmath.exp(-mpmath.pi), derivative)
    got = fn(u, 1j)
    assert np.isfinite(got)
    assert abs(mpmath.mpc(got) - ref) <= 1e-12 * abs(ref)
