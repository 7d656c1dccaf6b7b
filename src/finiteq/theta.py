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
the largest one are summed, K = ceil(sqrt(ln(1/tol) / (pi Im tau))) + 1
with tol = _TOL = 1e-14, beyond which every term lies below tol of the
largest; the log of the largest term goes to s, so no term overflows
whatever |Im u| is.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["theta2", "theta3", "theta3_derivative"]

_TOL = 1e-14  # the relative truncation tolerance of the lattice sum


def _check_args(u, tau):
    tau = complex(tau)
    if not (np.isfinite(tau) and tau.imag > 0.0):
        raise ValueError(f"tau must be finite and lie in the upper half-plane, got {tau}")
    return _finite(u, "argument u"), tau


def _reduce(u):
    """u moved by a multiple of the period pi into |Re(u)| <= pi/2."""
    return u - np.pi * np.rint(u.real / np.pi)


def _window(u, tau):
    """(s, n, terms, ds, dn): theta3(u; tau) = exp(s) sum_n terms, d/du theta3 = exp(s) sum_n (ds + dn n) terms.

    The terms run along a new last axis.
    """
    u, tau = _check_args(u, tau)
    u = _reduce(u)
    s, ds, dn = np.zeros_like(u), np.zeros_like(u), 2j
    if abs(tau) < 1.0:
        s = u * u / (1j * np.pi * tau) - 0.5 * np.log(-1j * tau)
        ds, dn = 2 * u / (1j * np.pi * tau), 2j / tau
        u, tau = _reduce(u / tau), -1 / tau
    K = math.ceil(math.sqrt(math.log(1 / _TOL) / (np.pi * tau.imag))) + 1
    # |term| peaks where d/dn [ -pi Im(tau) n^2 - 2 n Im(u) ] = 0
    center = np.rint(-u.imag / (np.pi * tau.imag))
    k, c = np.arange(-K, K + 1), center[..., None]
    terms = np.exp(1j * np.pi * tau * (2 * c + k) * k + 2j * k * u[..., None])
    return s + 1j * np.pi * tau * center**2 + 2j * center * u, c + k, terms, ds, dn


def _log_theta3(u, tau):
    """(s, v) with theta3(u; tau) = exp(s) v, both of the shape of u."""
    s, _, terms, _, _ = _window(u, tau)
    return s, terms.sum(axis=-1)


def _finite(values, what: str, dtype=complex) -> np.ndarray:
    """values as an array of `dtype`: how every entry checks its inputs, as :func:`_lift` checks outputs.

    ValueError names `what` and its first value that is not finite.
    """
    values = np.asarray(values, dtype=dtype)
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:  # a third of the fixed cost of finite.all()
        raise ValueError(f"{what} must be finite, got {values[~finite][0]}")
    return values


def _square(values, what: str, d=None) -> np.ndarray:
    """values as a finite complex n x n array, n >= 1 and n = d if given: the shape rule beside :func:`_finite`."""
    values = _finite(values, what)
    n = values.shape[0] if d is None and values.ndim else d
    if not n or values.shape != (n, n):
        shape = "square and non-empty" if d is None else f"{d}x{d}"
        raise ValueError(f"{what} must be {shape}, got shape {values.shape}")
    return values


def _integer(value, what: str, low=None) -> int:
    """value as a Python int, exact at any size, from an int, numpy int or integral float: the integer rule beside
    :func:`_finite`.  Anything else, bools and lists too, or a value below `low` raises ValueError naming `what`."""
    if not isinstance(value, bool) and (isinstance(value, (int, np.integer))
                                        or isinstance(value, (float, np.floating)) and value.is_integer()):
        if low is None or value >= low:
            return int(value)
    raise ValueError(f"{what} must be an integer{'' if low is None else f' of at least {low}'}, got {value}")


def _integers(values, what: str, low=None):
    """A list, tuple or array as an int array (an int array unchanged) by the rule of :func:`_integer`, else one int."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        return _integer(values, what, low)
    ints = np.asarray(values)
    bad = (ints.dtype == bool) | (np.zeros(ints.shape, dtype=bool) if low is None else ints < low)  # any bool fails
    if ints.dtype.kind not in "iub":
        ints = np.asarray(values, dtype=float)
        bad |= ~np.isfinite(ints) | (ints != np.trunc(ints))
    if bad.any():
        raise ValueError(f"{what} must be integers{'' if low is None else f' of at least {low}'}, got {ints[bad][0]}")
    return ints.astype(int) if ints.dtype.kind == "f" else ints


def _positive(value, what: str) -> float:
    """value as a finite positive float, the rule for scales and lengths; otherwise ValueError names `what`."""
    if (not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))
            and 0.0 < value < math.inf):
        return float(value)
    raise ValueError(f"{what} must be finite and positive, got {value}")


def _lift(s, v, what: str, at, context: str, name: str = "z"):
    """exp(s) v, taken as v e^{s/2} e^{s/2}: how every evaluator turns its scaled value into a double.

    Where the value is not finite, RuntimeError names `what`, the first such
    point of `at` (called `name`) and the `context` of the call.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.exp(0.5 * s)
        values = v * half * half
    bad = ~np.isfinite(values)
    if np.any(bad):
        where = complex(np.broadcast_to(at, bad.shape)[bad][0])
        raise RuntimeError(f"{what} is not finite at {name} = {where} for {context}: "
                           f"its value exceeds the double range there")
    return complex(values) if np.ndim(values) == 0 else values


def theta3(u, tau):
    """theta3(u; tau) = sum_n exp(i pi tau n^2 + 2 i n u), of the shape of u (complex scalar or array).

    Im(tau) > 0; the lattice sum is truncated at relative tolerance _TOL = 1e-14.
    RuntimeError where the value exceeds the double range.
    """
    return _lift(*_log_theta3(u, tau), "theta3", u, f"tau = {tau}", "u")


def theta2(u, tau):
    """theta2(u; tau) = sum_n exp(i pi tau (n + 1/2)^2 + i (2n + 1) u).

    Evaluated as exp(i pi tau / 4 + i u) theta3(u + pi tau / 2; tau).
    Satisfies theta2(u + pi; tau) = -theta2(u; tau) and vanishes at u = pi/2.
    """
    u, tau = _check_args(u, tau)
    s, v = _log_theta3(u + 0.5 * np.pi * tau, tau)
    return _lift(s + 0.25j * np.pi * tau + 1j * u, v, "theta2", u, f"tau = {tau}", "u")


def theta3_derivative(u, tau):
    """d/du theta3(u; tau) = sum_n 2 i n exp(i pi tau n^2 + 2 i n u), on the window of :func:`theta3`."""
    s, n, terms, ds, dn = _window(u, tau)
    v = np.sum((ds[..., None] + dn * n) * terms, axis=-1)
    return _lift(s, v, "theta3_derivative", u, f"tau = {tau}", "u")
