"""Entire-function representation of states on the fundamental cell.

A state with position amplitudes f_m is represented by

    f(z) = pi**-1/4 sum_m theta3[pi m / d - (z/lam) sqrt(pi/2d); i/(d lam^2)] f_m

which is entire, periodic with period sqrt(2 pi d) lam along the real axis
and quasi-periodic with period sqrt(2 pi d)/lam along the imaginary axis:

    f(z + i sqrt(2 pi d)/lam) = f(z) exp[pi d / lam^2 - i sqrt(2 pi d) z / lam].

|f| grows like exp(Im(z)^2 / 2) up the cell.  Swapping the two sums, with
z = x + iy, c = sqrt(pi/2d)/lam and kappa = c d lam^2 / pi, gives the
weighted series

    exp(-y^2/2) f(z) = pi**-1/4 sum_m f_m sum_n exp(-pi (n - kappa y)^2 / (d lam^2) - 2icnx) e^{2 pi i n m/d}

with terms of modulus at most |f_m|.  f, f', displaced f and the operator
kernels are all evaluated from it (:func:`finiteq.zak.weighted_thetas`), so
f raises only where |f| itself exceeds the double range.

The bilinear pairing sum_m f_m g_m is recovered from the cell integral

    (2 pi)**-1/2 d**-3/2 lam**-1 Int_S d2z exp(-Im(z)^2) f(z) g(z*)

and operators act either through their matrix, through a two-argument theta
kernel integrated over the cell, or through the displaced-state expansion of
their phase-space table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import FiniteState, displaced_state, position_state
from .theta import theta2, theta3
from .zak import (
    _THETA_CUT,
    SystemParams,
    _parity_form,
    _theta_scales,
    coherent_normalization,
    coherent_state_closed,
    coherent_unnormalized,
    weighted_thetas,
)

__all__ = [
    "AnalyticState",
    "OperatorKernel",
    "position_form",
    "momentum_form",
    "coherent_form",
    "scalar_product",
    "displaced_f",
    "kernel_eval",
    "kernel_apply",
    "apply_weyl_expansion",
    "coherent_identity_matrix",
    "gauss_legendre_cell",
    "QUAD_LEVELS",
]

QUAD_LEVELS = (32, 64, 128)


@dataclass
class AnalyticState:
    """A finite state paired with system parameters, evaluable as f(z)."""

    state: FiniteState
    params: SystemParams

    def __post_init__(self):
        if self.state.d != self.params.d:
            raise ValueError(
                f"state dimension {self.state.d} does not match params.d = {self.params.d}"
            )

    def _weighted(self, z, derivative: bool = False) -> np.ndarray:
        """exp(-Im(z)^2 / 2) f(z), or the same weight times f'(z); O(1) for every d."""
        return np.pi ** -0.25 * (weighted_thetas(z, self.params, derivative) @ self.state.components)

    def _evaluate(self, z, derivative: bool, what: str):
        z = np.asarray(z, dtype=complex)
        zz = np.atleast_1d(z)
        with np.errstate(over="ignore", invalid="ignore"):
            # exp(y^2/2) in two halves, so f is finite wherever |f| is
            half = np.exp(0.25 * zz.imag**2)
            values = self._weighted(zz, derivative) * half * half
        bad = ~np.isfinite(values)
        if np.any(bad):
            raise RuntimeError(f"{what} is not finite at z = {complex(zz[bad][0])} for d = "
                               f"{self.params.d}: |f| exceeds the double range there")
        return complex(values[0]) if z.ndim == 0 else values

    def __call__(self, z):
        return self._evaluate(z, False, "f")

    def derivative(self, z):
        """df/dz, from the termwise derivative of the weighted series."""
        return self._evaluate(z, True, "f'")

    def laurent_terms(self, y0: float, y1: float):
        """The terms of f that matter at heights y0 <= Im(z) <= y1.

        Swapping the two sums of the theta form gives a Laurent series in w:

            f(z) = pi**-1/4 sum_k exp(-pi k^2 / (d lam^2)) G_{k mod d} w^k,
            w = exp(-2icz),  c = sqrt(pi/2d) / lam,  G = d ifft(f_m),

        whose k-th term is largest at the height k / kappa, kappa = c d lam^2 / pi.
        Only k within K = sqrt(41 d lam^2 / pi) of [kappa y0, kappa y1] are
        kept: the Gaussian weight of every other term lies below e^-41 of the
        largest weight at each height of the range.  Entries of G at the
        rounding level of the FFT are set to zero: they stand for exact zeros
        (of parity or momentum states).  End terms below e^-41 of the largest
        term at both ends of the range are dropped too.  Either kind, left as
        a leading term, would add spurious roots far outside the range and
        spoil the accuracy of the roots inside it.  Returns (k, a, s), the
        terms rescaled to the mid height ym in log space so that nothing
        overflows at any d:

            f(z) = exp(s) sum_k a_k v^k,   v = w exp(-2 c ym).
        """
        d, lam = self.params.d, self.params.lam
        c, kappa, K = _theta_scales(self.params)
        k = np.arange(math.floor(kappa * y0 - K), math.ceil(kappa * y1 + K) + 1)
        exponent = -np.pi * k**2 / (d * lam**2) + c * k * (y0 + y1)
        s = float(np.max(exponent))
        G = d * np.fft.ifft(self.state.components)
        G[np.abs(G) <= d * np.finfo(float).eps * np.max(np.abs(G))] = 0.0
        a = np.pi ** -0.25 * G[k % d] * np.exp(exponent - s)
        tilt = c * (y1 - y0) * k  # log |v|^k at y1, and minus it at y0
        with np.errstate(divide="ignore", invalid="ignore"):
            log_a = np.log(np.abs(a))
            top, bottom = log_a + tilt, log_a - tilt
            kept = np.flatnonzero((a != 0) & ((top >= np.max(top) - _THETA_CUT)
                                              | (bottom >= np.max(bottom) - _THETA_CUT)))
        if kept.size == 0:
            return k[:0], a[:0], s
        ends = slice(kept[0], kept[-1] + 1)
        return k[ends], a[ends], s

    def inner_product_form(self, z: complex) -> complex:
        """The defining overlap expression N(z)^(1/2) sqrt(d) lam e^{-i Im(z) z / 2} <<z*|f>>.

        Slower than direct evaluation; kept as a consistency path.
        """
        z = complex(z)
        d, lam = self.params.d, self.params.lam
        coh = coherent_state_closed(np.conj(z), self.params)
        ov = coh.inner(self.state)
        norm = coherent_normalization(z, self.params)
        return complex(math.sqrt(norm * d) * lam * np.exp(-0.5j * z.imag * z) * ov)


def position_form(m: int, params: SystemParams, z):
    """Representation of the m-th position state: pi**-1/4 theta3[pi m/d - c z; i/(d lam^2)]."""
    return AnalyticState(position_state(m, params.d), params)(z)


def momentum_form(m: int, params: SystemParams, z):
    """Closed form for the m-th momentum state:

    lam pi**-1/4 exp(-z^2/2) theta3[pi m/d - i lam z sqrt(pi/2d); i lam^2/d].
    """
    d, lam = params.d, params.lam
    z = np.asarray(z, dtype=complex)
    u = np.pi * (int(m) % d) / d - 1j * lam * z * math.sqrt(np.pi / (2 * d))
    return lam * np.pi ** -0.25 * np.exp(-0.5 * z * z) * theta3(u, 1j * lam**2 / d)


def coherent_form(label, params: SystemParams, z, form: str = "auto"):
    """Closed theta-product form of the representation of a coherent state.

    For odd d the sum of two theta products, for even d a single product;
    ``form='auto'`` dispatches on the parity of d.  Matches evaluating the
    state of :func:`finiteq.zak.coherent_state_closed` through AnalyticState.
    """
    d, lam = params.d, params.lam
    a = complex(label)
    z = np.asarray(z, dtype=complex)
    nc = coherent_normalization(a, params)
    pref = np.pi ** -0.5 / lam * math.sqrt(d / nc) * np.exp(0.5j * a.imag * a)
    minus = theta3((z - a) / lam * math.sqrt(np.pi / (2 * d)), 2j / (d * lam**2))
    if _parity_form(form, d) == "even":
        plus = theta3((z + a) / lam * math.sqrt(np.pi * d / 8), 0.5j * d / lam**2)
        return pref * plus * minus
    u1 = (z + a) / lam * math.sqrt(np.pi * d / 2)
    tau1 = 2j * d / lam**2
    return pref * (
        theta3(u1, tau1) * minus
        + theta2(u1, tau1) * theta2((z - a) / lam * math.sqrt(np.pi / (2 * d)), 2j / (d * lam**2))
    )


# ---------------------------------------------------------------------------
# cell quadrature


def gauss_legendre_cell(params: SystemParams, n: int):
    """Tensor Gauss-Legendre nodes and weights on the fundamental cell.

    Returns (z, w) with z complex nodes of shape (n*n,) and w the matching
    product weights.
    """
    x, wx = np.polynomial.legendre.leggauss(n)
    a, b = params.a, params.b
    width, height = params.cell_width, params.cell_height
    xr = a + 0.5 * width * (x + 1.0)
    yr = b + 0.5 * height * (x + 1.0)
    wr = 0.5 * width * wx
    wi = 0.5 * height * wx
    z = (xr[:, None] + 1j * yr[None, :]).ravel()
    w = (wr[:, None] * wi[None, :]).ravel()
    return z, w


def _refined_quadrature(evaluate, tol: float, label: str):
    """Run `evaluate(n)` over QUAD_LEVELS until two levels agree within tol.

    The tolerance is absolute for values up to 1 and relative above, where
    the integrand carries the exp(Im(z)^2 / 2) growth of f.
    """
    prev = None
    for n in QUAD_LEVELS:
        cur = evaluate(n)
        if prev is not None and np.max(np.abs(cur - prev)) <= tol * max(1.0, np.max(np.abs(cur))):
            return cur
        prev = cur
    raise RuntimeError(
        f"{label}: quadrature did not converge to {tol} at {QUAD_LEVELS[-1]} points per axis"
    )


def scalar_product(f: AnalyticState, g: AnalyticState, tol: float = 1e-6) -> complex:
    """Bilinear pairing sum_m f_m g_m evaluated as a cell integral.

    (2 pi)**-1/2 d**-3/2 lam**-1 Int_S d2z e^{-Im(z)^2} f(z) g(z*), with
    tensor Gauss-Legendre refinement 32 -> 64 -> 128 points per axis.
    """
    if f.params != g.params:
        raise ValueError("states must share the same system parameters")
    p = f.params
    pref = (2 * np.pi) ** -0.5 * p.d ** -1.5 / p.lam

    def evaluate(n):
        z, w = gauss_legendre_cell(p, n)
        return pref * np.sum(w * f._weighted(z) * g._weighted(np.conj(z)))

    return complex(_refined_quadrature(evaluate, tol, "scalar_product"))


# ---------------------------------------------------------------------------
# displacements


def displaced_f(s: AnalyticState, alpha: int, beta: int, z):
    """Evaluate [D(alpha, beta) f](z), the representation of the displaced state.

    Labels are arbitrary integers, with the phase convention of
    :func:`finiteq.hilbert.displacement`.
    """
    moved = AnalyticState(displaced_state(s.state, (alpha, beta)), s.params)
    return moved._evaluate(z, False, "displaced f")


# ---------------------------------------------------------------------------
# operators


@dataclass
class OperatorKernel:
    """A d x d operator paired with parameters, as a two-argument theta kernel."""

    matrix: np.ndarray
    params: SystemParams

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.params.d
        if self.matrix.shape != (d, d):
            raise ValueError(f"operator must be {d}x{d}, got {self.matrix.shape}")


def kernel_eval(kernel: OperatorKernel, z, zeta_star):
    """Kernel value pi**-1/2 d**-1 sum_mn Omega_mn theta3[..z..] theta3[..zeta*..]."""
    p = kernel.params
    val = np.einsum("...m,mn,...n->...", weighted_thetas(z, p), kernel.matrix, weighted_thetas(zeta_star, p))
    return np.pi ** -0.5 / p.d * val * np.exp(0.5 * (np.imag(z) ** 2 + np.imag(zeta_star) ** 2))


def kernel_apply(kernel: OperatorKernel, f: AnalyticState, z, tol: float = 1e-6) -> complex:
    """(Omega f)(z) = (2 pi d)**-1/2 lam**-1 Int_S d2zeta e^{-Im(zeta)^2} K(z, zeta*) f(zeta).

    The Gaussian weight matches the scalar-product weight, which is what makes
    the identity operator act as the identity; cell-size periods apply.  It is
    split between the weighted theta(zeta*) and f(zeta), which are O(1).
    """
    if f.params != kernel.params:
        raise ValueError("state and kernel must share the same system parameters")
    p = kernel.params
    z = complex(z)
    pref = (2 * np.pi * p.d) ** -0.5 / p.lam
    row = np.pi ** -0.5 / p.d * math.exp(0.5 * z.imag**2) * (weighted_thetas(z, p) @ kernel.matrix)

    def evaluate(n):
        zeta, w = gauss_legendre_cell(p, n)
        kvals = weighted_thetas(np.conj(zeta), p) @ row
        return pref * np.sum(w * kvals * f._weighted(zeta))

    return complex(_refined_quadrature(evaluate, tol, "kernel_apply"))


def apply_weyl_expansion(table: np.ndarray, f: AnalyticState, z) -> complex:
    """Apply an operator given by its phase-space table, as a displaced-f sum.

    Omega = d**-1 sum_ab table[a, b] D(a, b)^dagger with integer labels
    (-a, -b) fed straight to :func:`displaced_f`.
    """
    d = f.params.d
    table = np.asarray(table, dtype=complex)
    if table.shape != (d, d):
        raise ValueError(f"table must be {d}x{d}, got {table.shape}")
    acc = 0j
    for alpha in range(d):
        for beta in range(d):
            if table[alpha, beta] == 0:
                continue
            acc += table[alpha, beta] * displaced_f(f, -alpha, -beta, z)
    return complex(acc / d)


# ---------------------------------------------------------------------------
# resolution of the identity over the cell


def coherent_identity_matrix(params: SystemParams, tol: float = 1e-6) -> np.ndarray:
    """lam (2 pi d)**-1/2 Int_S N(A) |A>><<A| d2A, as a d x d matrix.

    Converges to the identity; evaluated with the same refined tensor
    Gauss-Legendre scheme as the scalar product.  The normalization factor
    cancels against the projector so the integrand is the outer product of
    the unnormalized theta-form amplitudes.
    """
    pref = params.lam * (2 * np.pi * params.d) ** -0.5

    def evaluate(n):
        z, w = gauss_legendre_cell(params, n)
        t = coherent_unnormalized(z, params)  # shape (n*n, d)
        return pref * np.einsum("k,km,kn->mn", w, t, np.conj(t))

    return _refined_quadrature(evaluate, tol, "coherent_identity_matrix")
