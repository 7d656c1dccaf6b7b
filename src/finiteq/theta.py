"""Jacobi theta functions on the upper half tau-plane.

Series conventions used throughout the package::

    theta3(u; tau) = sum_n exp(i pi tau n^2 + 2 i n u)
    theta2(u; tau) = sum_n exp(i pi tau (n + 1/2)^2 + i (2n + 1) u)

with the sums over all integers n and Im(tau) > 0.  ``theta3`` is
pi-periodic in u and quasi-periodic under u -> u + pi*tau:

    theta3(u + pi*tau; tau) = exp(-i pi tau - 2 i u) theta3(u; tau)

theta3 is evaluated in log form, exp(s) v.  For |tau| < 1 the Jacobi
transform (DLMF 20.7.32)

    theta3(u; tau) = (-i tau)**-1/2 exp(u^2 / (i pi tau)) theta3(u / tau; -1 / tau)

first raises Im(tau) to Im(tau) / |tau|^2.  Then the 2K + 1 terms around
the largest one are summed, K = ceil(sqrt(ln(1/tol) / (pi Im tau))) + 1,
beyond which every term lies below tol of the largest; the log of the
largest term goes to s, so no term overflows whatever |Im u| is.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["theta2", "theta3", "theta3_derivative"]


def _check_args(u, tau, tol):
    tau = complex(tau)
    if not (np.isfinite(tau) and tau.imag > 0.0):
        raise ValueError(f"tau must be finite and lie in the upper half-plane, got {tau}")
    if not (tol > 0.0):
        raise ValueError(f"truncation tolerance must be positive, got {tol}")
    u = np.asarray(u, dtype=complex)
    if not np.all(np.isfinite(u)):
        raise ValueError("argument u must be finite")
    return u, tau


def _reduce(u):
    """u moved by a multiple of the period pi into |Re(u)| <= pi/2."""
    return u - np.pi * np.rint(u.real / np.pi)


def _window(u, tau, tol):
    """(s, n, terms, ds, dn): theta3(u; tau) = exp(s) sum_n terms, d/du theta3 = exp(s) sum_n (ds + dn n) terms.

    The terms run along a new last axis.
    """
    u, tau = _check_args(u, tau, tol)
    u = _reduce(u)
    s, ds, dn = np.zeros_like(u), np.zeros_like(u), 2j
    if abs(tau) < 1.0:
        s = u * u / (1j * np.pi * tau) - 0.5 * np.log(-1j * tau)
        ds, dn = 2 * u / (1j * np.pi * tau), 2j / tau
        u, tau = _reduce(u / tau), -1 / tau
    K = math.ceil(math.sqrt(max(math.log(1 / tol), 0.0) / (np.pi * tau.imag))) + 1
    # |term| peaks where d/dn [ -pi Im(tau) n^2 - 2 n Im(u) ] = 0
    center = np.rint(-u.imag / (np.pi * tau.imag))
    k, c = np.arange(-K, K + 1), center[..., None]
    terms = np.exp(1j * np.pi * tau * (2 * c + k) * k + 2j * k * u[..., None])
    return s + 1j * np.pi * tau * center**2 + 2j * center * u, c + k, terms, ds, dn


def _log_theta3(u, tau, tol: float = 1e-14):
    """(s, v) with theta3(u; tau) = exp(s) v, both of the shape of u."""
    s, _, terms, _, _ = _window(u, tau, tol)
    return s, terms.sum(axis=-1)


def _exp(s, v):
    """exp(s) v, finite wherever its modulus is within the double range (inf beyond)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = np.exp(s + np.log(v))
    return complex(values) if values.ndim == 0 else values


def theta3(u, tau, tol: float = 1e-14):
    """theta3(u; tau) = sum_n exp(i pi tau n^2 + 2 i n u), of the shape of u (complex scalar or array).

    Im(tau) > 0; tol is the relative truncation tolerance of the lattice sum.
    """
    return _exp(*_log_theta3(u, tau, tol))


def theta2(u, tau, tol: float = 1e-14):
    """theta2(u; tau) = sum_n exp(i pi tau (n + 1/2)^2 + i (2n + 1) u).

    Evaluated as exp(i pi tau / 4 + i u) theta3(u + pi tau / 2; tau).
    Satisfies theta2(u + pi; tau) = -theta2(u; tau) and vanishes at u = pi/2.
    """
    u, tau = _check_args(u, tau, tol)
    s, v = _log_theta3(u + 0.5 * np.pi * tau, tau, tol)
    return _exp(s + 0.25j * np.pi * tau + 1j * u, v)


def theta3_derivative(u, tau, tol: float = 1e-14):
    """d/du theta3(u; tau) = sum_n 2 i n exp(i pi tau n^2 + 2 i n u), on the window of :func:`theta3`."""
    s, n, terms, ds, dn = _window(u, tau, tol)
    return _exp(s, np.sum((ds[..., None] + dn * n) * terms, axis=-1))
