"""The windowed theta kernel and the coherent closed forms, against brute force and mpmath."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finiteq import (
    SystemParams,
    coherent_form,
    coherent_normalization,
    coherent_normalization_closed,
    coherent_overlap,
    coherent_overlap_direct,
    momentum_form,
    theta2,
    theta3,
    theta3_derivative,
)

finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-3, 3, **finite), st.floats(-2, 2, **finite),
       st.floats(-1, 1, **finite), st.floats(0.05, 3, **finite))
def test_theta_matches_brute_force(re_u, im_u, re_tau, im_tau):
    # |tau| < 1 takes the Jacobi transform; errors are judged against the moduli of the plain series
    u, tau = complex(re_u, im_u), complex(re_tau, im_tau)
    n = np.arange(-400, 401)
    theta3_terms = np.exp(1j * np.pi * tau * n**2 + 2j * n * u)
    theta2_terms = np.exp(1j * np.pi * tau * (n + 0.5) ** 2 + 1j * (2 * n + 1) * u)
    for value, terms in ((theta3(u, tau), theta3_terms), (theta2(u, tau), theta2_terms),
                         (theta3_derivative(u, tau), 2j * n * theta3_terms)):
        assert abs(value - np.sum(terms)) <= 1e-12 * np.sum(np.abs(terms))


def mp_theta3(u, tau):
    """(theta3(u; tau), sum of the moduli of its summed terms) at 50 digits.

    For |tau| < 1 the Jacobi-transformed series is summed, and the moduli
    are those of its terms times the modulus of the transform's prefactor.
    Every term within 120 e-folds of the largest is kept.
    """
    with mpmath.workdps(50):
        u, tau = mpmath.mpc(u), mpmath.mpc(tau)
        pref = mpmath.mpf(1)
        if abs(tau) < 1:
            pref = (-1j * tau) ** -0.5 * mpmath.exp(u * u / (1j * mpmath.pi * tau))
            u, tau = u / tau, -1 / tau
        center = int(mpmath.nint(-u.imag / (mpmath.pi * tau.imag)))
        half = int(mpmath.ceil(mpmath.sqrt(120 / (mpmath.pi * tau.imag)))) + 2
        terms = [mpmath.exp(1j * mpmath.pi * tau * n * n + 2j * n * u)
                 for n in range(center - half, center + half + 1)]
        return pref * mpmath.fsum(terms), abs(pref) * mpmath.fsum(abs(t) for t in terms)


def mp_kernel(splus, sminus, d, lam):
    """The lattice sum K(s+, s-) of the closed forms and its modulus sum, at 50 digits."""
    with mpmath.workdps(50):
        lam, pi = mpmath.mpf(lam), mpmath.pi
        value = scale = 0
        for j in (0, 1):
            a, ma = mp_theta3(mpmath.mpc(splus) * mpmath.sqrt(pi * d / 8) + j * pi * d / 2, 0.5j * d / lam**2)
            b, mb = mp_theta3(mpmath.mpc(sminus) * mpmath.sqrt(pi / (8 * d)) + j * pi / 2,
                              0.5j / (d * lam**2))
            value, scale = value + a * b / 2, scale + ma * mb / 2
        return value, scale


DOUBLE_MAX = mpmath.mpf(np.finfo(float).max)


def assert_close_or_raises(evaluate, ref, scale, size):
    """The value close to ref, or a RuntimeError where |ref| exceeds the double range.

    The error is judged against the modulus sum `scale` of the summed
    terms, times 1 + `size`: the exponents of the log form, quadratic in
    the arguments and of order `size`, each round to eps times their size.
    """
    if abs(ref) > DOUBLE_MAX:
        with pytest.raises(RuntimeError, match="not finite"):
            evaluate()
        return
    got = complex(evaluate())
    assert np.isfinite(got)
    assert abs(mpmath.mpc(got) - ref) <= 1e-14 * (1 + size) * scale + 1e-300


@pytest.mark.parametrize("d", [1, 2, 7, 64, 256, 1000])
def test_closed_forms_match_mpmath(d):
    for lam in (0.3, 1.0, 2.5):
        params = SystemParams(d, lam)
        W, H = params.cell_width, params.cell_height
        for h in (0.0, 0.5, 0.9, 0.999):
            z = complex(0.37 * W, h * H)
            a1, a2 = complex(0.23 * W, h * H), complex(0.71 * W, -0.4 * h * H)
            zz, b1, b2 = mpmath.mpc(z), mpmath.mpc(a1), mpmath.mpc(a2)
            size = (abs(z) ** 2 + abs(a1) ** 2 + abs(a2) ** 2) / lam**2
            with mpmath.workdps(50):
                m = 1 % d
                u = mpmath.pi * m / d - 1j * lam * zz * mpmath.sqrt(mpmath.pi / (2 * d))
                theta, mod = mp_theta3(u, 1j * mpmath.mpf(lam) ** 2 / d)
                pref = lam * mpmath.pi**-0.25 * mpmath.exp(-zz * zz / 2)
                assert_close_or_raises(lambda: momentum_form(m, params, z), pref * theta, abs(pref) * mod, size)

                n1, n2 = coherent_normalization(a1, params), coherent_normalization(a2, params)
                pref = mpmath.pi**-0.5 / lam / mpmath.sqrt(n2 / d) * mpmath.exp(0.5j * b2.imag * b2)
                k, mod = mp_kernel((zz + b2) / lam, (zz - b2) / lam, d, lam)
                assert_close_or_raises(lambda: coherent_form(a2, params, z), pref * k, abs(pref) * mod, size)

                pref = mpmath.pi**-0.5 / lam**2 * mpmath.exp(-b1.imag**2)
                k, mod = mp_kernel(2 * b1.real / lam, -2j * b1.imag / lam, d, lam)
                assert_close_or_raises(lambda: coherent_normalization_closed(a1, params),
                                       pref * k, abs(pref) * mod, size)
                assert abs(coherent_normalization_closed(a1, params) - n1) <= 1e-10 * max(n1, 1.0)

                pref = (mpmath.pi**-0.5 / lam**2 / mpmath.sqrt(n1 * n2)
                        * mpmath.exp(-0.5j * b1.imag * mpmath.conj(b1) + 0.5j * b2.imag * b2))
                k, mod = mp_kernel((mpmath.conj(b1) + b2) / lam, (mpmath.conj(b1) - b2) / lam, d, lam)
                assert_close_or_raises(lambda: coherent_overlap(a1, a2, params), pref * k, abs(pref) * mod,
                                       size)
                assert abs(coherent_overlap(a1, a2, params) - coherent_overlap_direct(a1, a2, params)) <= 1e-9

