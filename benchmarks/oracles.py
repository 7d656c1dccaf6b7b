"""Reference computations made apart from finiteq, used to check its outputs.

Nothing here imports finiteq: the theta series come from mpmath's
``jtheta`` at 30 digits, the Hermite functions, displacements and the
Fourier matrix from their definitions in numpy, and the lattice rule from
its closed form.  The conventions are those documented in the package
README (theta3(u; tau) = sum_n exp(i pi tau n^2 + 2 i n u), the half-angle
displacement phase, the Fourier matrix with entries d**-0.5 exp(+2 pi i m n/d)).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

mpmath.mp.dps = 30


def f_reference(amps, d: int, lam: float, z: complex, derivative: bool = False):
    """f(z) (or f'(z)) of the state with amplitudes `amps`, and its scale.

    f(z) = pi**-1/4 sum_m a_m theta3[pi m/d - (z/lam) sqrt(pi/2d); i/(d lam^2)].
    The scale is the same sum with every term replaced by its modulus: an
    error measured against it is a relative error that stays meaningful
    near the zeros of f, where the terms cancel.
    """
    q = mpmath.exp(-mpmath.pi / (d * lam * lam))
    c = mpmath.sqrt(mpmath.pi / (2 * d)) / lam
    zz = mpmath.mpc(z.real, z.imag)
    acc = mpmath.mpc(0)
    scale = mpmath.mpf(0)
    for m, a in enumerate(amps):
        if a == 0:
            continue
        t = mpmath.jtheta(3, mpmath.pi * m / d - c * zz, q, 1 if derivative else 0)
        a = mpmath.mpc(a.real, a.imag)
        acc += a * t
        scale += abs(a) * abs(t)
    pref = mpmath.pi ** mpmath.mpf(-0.25) * (-c if derivative else 1)
    return complex(pref * acc), float(abs(pref) * scale)


def vanishing_ratio(amps, d: int, lam: float, z0: complex, radius: float, n: int = 6) -> float:
    """|f(z0)| over the mean |f| on a circle of `radius` around z0.

    Small when f has a zero at z0: for a zero displaced by eps from z0 the
    ratio is about eps / radius (simple zero) or (eps / radius)**2 (double).
    """
    at, _ = f_reference(amps, d, lam, z0)
    ring = [abs(f_reference(amps, d, lam, z0 + radius * np.exp(2j * np.pi * k / n))[0])
            for k in range(n)]
    return abs(at) / float(np.mean(ring))


def lattice_residual(total: complex, d: int, lam: float) -> float:
    """Distance of a zero sum from the lattice
    sqrt(pi/2) d**1.5 (lam + i/lam) + sqrt(2 pi d) (M lam + i N/lam)."""
    base = math.sqrt(math.pi / 2) * d**1.5 * complex(lam, 1.0 / lam)
    step = math.sqrt(2 * math.pi * d)
    rem = complex(total) - base
    M = round(rem.real / (step * lam))
    N = round(rem.imag * lam / step)
    return abs(rem - step * complex(M * lam, N / lam))


def lattice_target(d: int, lam: float, M: int, N: int) -> complex:
    """The zero sum the lattice rule allows for the integers (M, N)."""
    base = math.sqrt(math.pi / 2) * d**1.5 * complex(lam, 1.0 / lam)
    return base + math.sqrt(2 * math.pi * d) * complex(M * lam, N / lam)


def hermite(n: int, x) -> np.ndarray:
    """Normalized Hermite function by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.pi**-0.25 * np.exp(-0.5 * x * x)
    for k in range(n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev
    return cur


def hermite_state(n: int, d: int) -> np.ndarray:
    """Normalized lattice sum sum_w phi_n(sqrt(2 pi/d)(m + d w)), lam = 1."""
    step = math.sqrt(2 * math.pi / d)
    w = np.arange(-40, 41)
    x = step * (np.arange(d)[:, None] + d * w[None, :])
    v = hermite(n, x).sum(axis=1).astype(complex)
    return v / np.linalg.norm(v)


def fourier(d: int) -> np.ndarray:
    m = np.arange(d)
    return np.exp(2j * np.pi * np.outer(m, m) / d) / math.sqrt(d)


def displacement(d: int, alpha: int, beta: int) -> np.ndarray:
    """D(alpha, beta)|m> = exp(i pi (alpha beta + 2 alpha m)/d) |m + beta>."""
    m = np.arange(d)
    mat = np.zeros((d, d), dtype=complex)
    mat[(m + beta) % d, m] = np.exp(1j * np.pi * ((alpha * beta + 2 * alpha * m) % (2 * d)) / d)
    return mat


def operator_from_table(table: np.ndarray) -> np.ndarray:
    """d**-1 sum_ab table[a, b] D(a, b)^dagger."""
    d = table.shape[0]
    op = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            op += table[a, b] * displacement(d, a, b).conj().T
    return op / d


def f_dual(amps, d: int, lam: float, z, derivative: bool = False):
    """f(z) (or f'(z)) at many points through the dual theta series.

    The modular transformation turns each theta3 of the representation into
    a Gaussian lattice sum,

        theta3(u; i/(d lam^2)) = sqrt(d) lam sum_n exp(-d lam^2 (u - pi n)^2 / pi),

    a different series from the one finiteq sums.  The common factor
    exp(d lam^2 Im(u)^2 / pi), the same for every m at one z, is split off
    so that no term overflows.  Returns (value, scale, log_factor) with
    f(z) = value * exp(log_factor); `scale` is the matching sum of moduli.
    """
    amps = np.asarray(amps, dtype=complex)
    z = np.asarray(z, dtype=complex).ravel()
    c = math.sqrt(math.pi / (2 * d)) / lam
    k = d * lam * lam / math.pi
    u = np.pi * np.arange(d)[None, :] / d - c * z[:, None]
    log_factor = k * (c * z.imag) ** 2
    reach = math.sqrt(45.0 / k)
    n = np.arange(math.floor((u.real.min() - reach) / np.pi), math.ceil((u.real.max() + reach) / np.pi) + 1)
    x = u[:, :, None] - np.pi * n
    terms = np.exp(-k * x * x - log_factor[:, None, None])
    if derivative:
        terms = -2.0 * k * x * terms
    th = math.sqrt(k * math.pi) * terms.sum(axis=2)
    pref = np.pi**-0.25 * (-c if derivative else 1.0)
    return pref * (th @ amps), abs(pref) * (np.abs(th) @ np.abs(amps)), log_factor


def vanishing_ratio_dual(amps, d: int, lam: float, z0, radius: float, n: int = 6) -> np.ndarray:
    """vanishing_ratio for many centres at once, through :func:`f_dual`."""
    z0 = np.asarray(z0, dtype=complex).ravel()
    ring = z0[:, None] + radius * np.exp(2j * np.pi * np.arange(n) / n)[None, :]
    v0, _, l0 = f_dual(amps, d, lam, z0)
    vr, _, lr = f_dual(amps, d, lam, ring)
    log_ring = (np.log(np.abs(vr)) + lr).reshape(ring.shape)
    top = log_ring.max(axis=1)
    log_mean = top + np.log(np.mean(np.exp(log_ring - top[:, None]), axis=1))
    return np.exp(np.log(np.abs(v0)) + l0 - log_mean)
