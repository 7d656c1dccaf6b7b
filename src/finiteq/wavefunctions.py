"""Square-integrable reference wavefunctions on the real line.

Three families feed the line-to-cycle transform: harmonic-oscillator
eigenfunctions (``HermiteNumber``), displaced Gaussians
(``GaussianCoherent``), and tabulated data (``SampledGrid``).  Each exposes

* ``__call__(x)``         -- pointwise values, vectorized, and
* ``centre``              -- a point in the bulk of |psi|, where the transform starts its sums;

the Hermite and Gaussian families also give, in closed form,

* ``fourier_at(p)``       -- values of (2 pi)**-0.5 Integral psi(x) e^{+ipx} dx (not used by the transform).

The plus-sign kernel is used so that the Hermite functions transform with
eigenvalue i**N and a displaced Gaussian with label A transforms into the
one with label iA, both without extra prefactors.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

from .theta import _finite, _integer

__all__ = [
    "hermite_function",
    "HermiteNumber",
    "GaussianCoherent",
    "SampledGrid",
    "sampled_from_csv",
]


def _hermite_functions(x):
    """phi_0, phi_1, ... at x, without end, by the stable two-term recurrence

        phi_{k+1} = x sqrt(2/(k+1)) phi_k - sqrt(k/(k+1)) phi_{k-1}

    from phi_0 = pi**-0.25 exp(-x^2/2), which avoids the factorial overflow
    of the monomial form well past n = 50; a series sum_n c_n phi_n takes one pass.
    """
    x = np.asarray(x, dtype=float)
    phi_prev, phi = 0.0, np.pi ** -0.25 * np.exp(-0.5 * x * x)
    for k in itertools.count():
        yield phi
        phi_prev, phi = phi, x * np.sqrt(2.0 / (k + 1)) * phi - np.sqrt(k / (k + 1.0)) * phi_prev


def hermite_function(n: int, x) -> np.ndarray:
    """Normalized harmonic-oscillator eigenfunction of index n, by :func:`_hermite_functions`."""
    n = _integer(n, "Hermite index", 0)
    return next(itertools.islice(_hermite_functions(_finite(x, "x", float)), n, None))


class HermiteNumber:
    """The n-th oscillator eigenfunction; Fourier eigenvector with value i**n."""

    def __init__(self, n: int):
        self.n = _integer(n, "Hermite index", 0)

    def __call__(self, x):
        return hermite_function(self.n, x).astype(complex)

    @property
    def centre(self) -> float:
        return 0.0

    def fourier_at(self, p):
        return (1j) ** self.n * hermite_function(self.n, p)

    def __repr__(self):
        return f"HermiteNumber({self.n})"


class GaussianCoherent:
    """Displaced Gaussian pi**-0.25 exp(-x^2/2 + A x - Re(A) A / 2)."""

    def __init__(self, label: complex):
        self.label = complex(label)
        _finite(self.label, "Gaussian label")

    def __call__(self, x):
        x = _finite(x, "x", float)
        a = self.label  # the exponent below has no terms of size |A|^2, whose rounding would not cancel
        return np.pi ** -0.25 * np.exp(-0.5 * (x - a.real) ** 2 + 1j * a.imag * (x - 0.5 * a.real))

    @property
    def centre(self) -> float:
        return self.label.real

    def fourier_at(self, p):
        # the plus-kernel transform maps label A to iA with no prefactor
        return GaussianCoherent(1j * self.label)(p)

    def __repr__(self):
        return f"GaussianCoherent({self.label})"


_SUPPORT_TOL = 1e-12  # the largest edge-to-peak modulus ratio at which SampledGrid reads 0 off its grid


class SampledGrid:
    """Wavefunction tabulated on an ascending real grid.

    Off-grid queries interpolate with a cubic spline.  Queries outside the
    tabulated range return zero, which is only legitimate when the data has
    decayed at the grid edges, to _SUPPORT_TOL = 1e-12 of its peak modulus;
    otherwise the call raises.
    """

    def __init__(self, x, values):
        # imported here: scipy.interpolate is most of the import time of finiteq
        from scipy.interpolate import CubicSpline

        self.x = _finite(x, "grid", float).reshape(-1)
        self.values = _finite(values, "values").reshape(-1)
        if self.x.size != self.values.size:
            raise ValueError("grid and values must have the same length")
        if self.x.size < 4:
            raise ValueError("need at least 4 grid points")
        if np.any(np.diff(self.x) <= 0):
            raise ValueError("grid must be strictly increasing")
        peak = np.max(np.abs(self.values))
        if peak == 0.0:
            raise ValueError("sampled wavefunction is identically zero")
        self._edge_ratio = max(abs(self.values[0]), abs(self.values[-1])) / peak
        self._spline = CubicSpline(self.x, self.values)

    def __call__(self, x):
        x = _finite(x, "x", float)
        inside = (x >= self.x[0]) & (x <= self.x[-1])
        if not np.all(inside) and self._edge_ratio > _SUPPORT_TOL:
            raise ValueError(
                "grid support too small: values at the grid edges have not "
                f"decayed (edge/peak = {self._edge_ratio:.2e}) but points outside "
                "the grid were requested"
            )
        out = np.zeros(np.shape(x), dtype=complex)
        vals = self._spline(np.atleast_1d(x)[np.atleast_1d(inside)])
        if out.ndim == 0:
            return complex(vals[0]) if inside else 0j
        out[inside] = vals
        return out

    @property
    def centre(self) -> float:
        return float(self.x[np.argmax(np.abs(self.values))])

    def __repr__(self):
        return f"SampledGrid(n={self.x.size}, range=[{self.x[0]:g}, {self.x[-1]:g}])"


def sampled_from_csv(path) -> SampledGrid:
    """Load a SampledGrid from CSV rows ``x,re,im``; the first row is a header when its first cell is not a number."""
    xs, vals = [], []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or not row[0].strip():
                continue
            if i == 0:
                try:
                    float(row[0])
                except ValueError:
                    continue  # a header: its first cell is not a number
            try:
                x, value = float(row[0]), complex(float(row[1]), float(row[2]))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"malformed CSV row {i + 1} {row!r}: needs numbers x,re,im") from exc
            xs.append(x)
            vals.append(value)
    if not xs:
        raise ValueError(f"no data rows found in {path}")
    return SampledGrid(np.array(xs), np.array(vals))
