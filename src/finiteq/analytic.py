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

with terms of modulus at most |f_m|.  Summing over m first leaves one
Gaussian-weighted series in the spectrum G = d ifft(f_m) of the state,

    exp(-y^2/2) f(z) = pi**-1/4 sum_n exp(-pi (n - kappa y)^2 / (d lam^2) - 2icnx) G_{n mod d},

whose live terms, the n within sqrt(41 d lam^2 / pi) of kappa y, give f,
f', displaced f and the cell quadratures at O(lam sqrt(d)) terms per point
or row of nodes.  On a tensor grid, such as x[None, :] + 1j y[:, None]
for a plot of f, the terms factor into row factors (the Gaussian times the
gathered G), column factors exp(-2icjx) and one phase per node, and f sums
the grid as one matrix product; the quadratures sum over x in closed form.
f raises only where |f| itself exceeds the double range.  The
operator kernels and the coherent amplitudes, which need all d values
theta_m(z) at a point, use :func:`finiteq.zak.weighted_thetas`.

The bilinear pairing sum_m f_m g_m is recovered from the cell integral

    (2 pi)**-1/2 d**-3/2 lam**-1 Int_S d2z exp(-Im(z)^2) f(z) g(z*)

and operators act either through their matrix, through a two-argument theta
kernel integrated over the cell, or through the displaced-state expansion of
their phase-space table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import FiniteState, displaced_state, operator_from_weyl, position_state
from .theta import _finite, _integer, _lift, _log_theta3, _square
from .zak import (
    SystemParams,
    _log_gram,
    _spectral_sum,
    _theta_window,
    coherent_normalization,
    coherent_state_closed,
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
]


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

    @functools.cached_property
    def _spectrum(self) -> np.ndarray:
        """G = d ifft(f_m), the coefficients of the swapped series; computed once, read-only."""
        spectrum = self.params.d * np.fft.ifft(self.state.components)
        spectrum.flags.writeable = False
        return spectrum

    def _weighted(self, z, derivative: bool = False) -> np.ndarray:
        """exp(-Im(z)^2 / 2) f(z), or the same weight times f'(z); O(1) for every d."""
        return np.pi ** -0.25 * _spectral_sum(z, self.params, self._spectrum, int(derivative))

    def _evaluate(self, z, derivative: bool, what: str):
        z = np.asarray(z, dtype=complex)
        return _lift(0.5 * z.imag**2, self._weighted(z, derivative), what, z, f"d = {self.params.d}")

    def __call__(self, z):
        return self._evaluate(z, False, "f")

    def derivative(self, z):
        """df/dz, from the termwise derivative of the weighted series."""
        return self._evaluate(z, True, "f'")

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

    lam pi**-1/4 exp(-z^2/2) theta3[pi m/d - i lam z sqrt(pi/2d); i lam^2/d],

    with exp(-z^2/2) joined to the log form of theta3 before one exponential.
    """
    d, lam = params.d, params.lam
    z, m = _finite(z, "z"), _integer(m, "label m") % d
    s, v = _log_theta3(np.pi * m / d - 1j * lam * z * math.sqrt(np.pi / (2 * d)), 1j * lam**2 / d)
    return _lift(s - 0.5 * z * z + math.log(lam * np.pi ** -0.25), v, "momentum_form", z, f"d = {d}")


def coherent_form(label, params: SystemParams, z):
    """Closed theta form of f for the state :func:`finiteq.zak.coherent_state_closed`, exact for every d.

    With the sum S(A1, A) of :func:`finiteq.zak._log_gram`,
    f(z) = lam (d / N(A))**1/2 exp(-i Im(z) z / 2) S(conj(z), A).
    """
    d, lam = params.d, params.lam
    a = complex(_finite(label, "coherent label"))
    z = _finite(z, "z")
    s, v = _log_gram(np.conj(z), a, params)
    pref = math.log(lam) + 0.5 * math.log(d / coherent_normalization(a, params)) - 0.5j * z.imag * z
    return _lift(s + pref, v, "coherent_form", z, f"d = {d}")


# ---------------------------------------------------------------------------
# cell quadrature


_QUAD_TOL = 1e-6  # the agreement that the cell quadratures ask of their two trapezoid levels
_QUAD_M = math.sqrt(2.0 * math.log(100.0 / _QUAD_TOL) / math.pi)  # the m of the coarse level of _cell_trapezoid


def _cell_trapezoid(params: SystemParams, integral, pref: float, label: str, floor: float = 1.0):
    """pref * Int_S d2z integrand(z), by the periodic trapezoid rule on the cell.

    The integrands of the three cell quadratures are periodic in x and in y
    (the quasi-periodic factors of the theta forms cancel against the
    Gaussian weight), so equispaced nodes converge geometrically: with
    n_x = m lam sqrt(d) and n_y = m sqrt(d) / lam nodes per axis the error
    falls like exp(-pi m^2 / 2).  The coarse level takes
    m = sqrt(2 ln(100 / _QUAD_TOL) / pi), whose error sits near 1e-8; the
    fine level doubles both axes, so the coarse nodes are every other fine
    node.  The fine sum is returned when the two agree within 1e-6, absolute
    for values up to `floor` and relative above, where the integrand carries
    the exp(Im(z)^2 / 2) growth of f.

    ``integral(x, y)``, called once on the fine nodes, returns the sums of the
    integrand over the grid x[None, :] + 1j y[:, None] and over x[::2], y[::2].
    """
    nx = math.ceil(_QUAD_M * params.lam * math.sqrt(params.d))
    ny = math.ceil(_QUAD_M * math.sqrt(params.d) / params.lam)
    x = params.a + params.cell_width * np.arange(2 * nx) / (2 * nx)
    y = params.b + params.cell_height * np.arange(2 * ny) / (2 * ny)
    weight = pref * params.cell_width * params.cell_height / (nx * ny)
    fine, coarse = integral(x, y)
    fine, coarse = fine * (weight / 4), coarse * weight
    if np.max(np.abs(fine - coarse)) <= _QUAD_TOL * max(floor, np.max(np.abs(fine))):
        return fine
    raise RuntimeError(
        f"{label}: quadrature did not converge to {_QUAD_TOL}: the trapezoid sums on {nx} x {ny} "
        f"and {2 * nx} x {2 * ny} nodes differ by {np.max(np.abs(fine - coarse)):.2e}"
    )


def _pair_sums(params: SystemParams, spectra, x, y):
    """(fine, coarse): the sums of F(z) G(z*) over the grid x[None, :] + 1j y[:, None] and over its every other node.

    F and G are the weighted series pi**-1/4 sum_n w_n(Im z) S_n e^{-2icnx} of the two
    ``spectra`` (as in :meth:`AnalyticState._weighted`); as w_n(-y) = w_{-n}(y), G(z*) sums
    w_n(y) S_{-n} e^{2icnx} over the same live n = n_0 + j of each row.  On the N_x (even)
    abscissae a + i W / N_x of one cell width W, 2cW = 2 pi makes sum_i e^{-2ickx_i} = N_x e^{-2icka}
    for k = 0 (mod N_x) and 0 otherwise, so the pairs of terms j, j' of a row with j = j' (mod N_x)
    are all that survive, with the phase e^{-2ic(j - j')a}.  Each row folds the terms of F times
    e^{-2icja}, and those of G times e^{2icja}, by j mod N_x into F^ and G^, and sums over x to
    pi**-1/2 N_x sum_k F^[k] G^[k]; the every-other-node sum folds them again, mod N_x / 2, on the even rows.
    """
    nx, half = x.size, x.size // 2
    index, _, weights = _theta_window(params, y)
    width = index.shape[1]
    phase = np.exp(-2j * params._window.c * x[0] * np.arange(width))
    folds = np.zeros((2, y.size, -(-width // nx) * nx), dtype=complex)
    folds[0, :, :width] = weights * phase * np.take(spectra[0], index, mode="wrap")
    folds[1, :, :width] = weights * phase.conj() * np.take(spectra[1], -index, mode="wrap")
    f_hat, g_hat = folds.reshape(2, y.size, -1, nx).sum(axis=2)
    f_half, g_half = f_hat[::2, :half] + f_hat[::2, half:], g_hat[::2, :half] + g_hat[::2, half:]
    return np.pi ** -0.5 * nx * np.sum(f_hat * g_hat), np.pi ** -0.5 * half * np.sum(f_half * g_half)


def scalar_product(f: AnalyticState, g: AnalyticState) -> complex:
    """Bilinear pairing sum_m f_m g_m evaluated as a cell integral.

    (2 pi)**-1/2 d**-3/2 lam**-1 Int_S d2z e^{-Im(z)^2} f(z) g(z*).  The
    integrand is doubly periodic on the cell: along x f and g are periodic,
    and by the quasi-periodicity of f and g a shift z -> z + ih by the cell
    height h multiplies f(z) g(z*) by exp(h^2 + 2 h Im(z)), which cancels
    the change of e^{-Im(z)^2}.  The periodic trapezoid rule on
    n_x = m lam sqrt(d) by n_y = m sqrt(d) / lam nodes then has error
    exp(-pi m^2 / 2), checked against the same rule on every other node
    to 1e-6 (see ``_cell_trapezoid``), else RuntimeError.  The node sums
    come from the spectra of f and g, in closed form over x (``_pair_sums``).
    """
    if f.params != g.params:
        raise ValueError("states must share the same system parameters")
    p = f.params
    pref = (2 * np.pi) ** -0.5 * p.d ** -1.5 / p.lam
    spectra = (f._spectrum, g._spectrum)
    return complex(_cell_trapezoid(p, lambda x, y: _pair_sums(p, spectra, x, y), pref, "scalar_product"))


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
        self.matrix = _square(self.matrix, "operator matrix", self.params.d)


def kernel_eval(kernel: OperatorKernel, z, zeta_star):
    """Kernel value pi**-1/2 d**-1 sum_mn Omega_mn theta3[..z..] theta3[..zeta*..]."""
    p, z, zeta_star = kernel.params, _finite(z, "z"), _finite(zeta_star, "zeta_star")
    val = np.einsum("...m,mn,...n->...", weighted_thetas(z, p), kernel.matrix, weighted_thetas(zeta_star, p))
    return _lift(0.5 * (np.imag(z) ** 2 + np.imag(zeta_star) ** 2), np.pi ** -0.5 / p.d * val,
                 "kernel_eval", z, f"d = {p.d}")


def kernel_apply(kernel: OperatorKernel, f: AnalyticState, z) -> complex:
    """(Omega f)(z) = (2 pi d)**-1/2 lam**-1 Int_S d2zeta e^{-Im(zeta)^2} K(z, zeta*) f(zeta).

    The Gaussian weight matches the scalar-product weight, which is what makes
    the identity operator act as the identity; cell-size periods apply.  It is
    split between the weighted theta(zeta*) and f(zeta), which are O(1).  As
    a function of zeta the integrand is doubly periodic on the cell, like
    that of :func:`scalar_product`, and the same periodic trapezoid rule with
    error exp(-pi m^2 / 2), checked to 1e-6, evaluates it.  The
    weighted kernel K(z, zeta*), with the row r = weighted_thetas(z) Omega at z, is
    pi**-1/4 d**-1 times the weighted series of the spectrum d ifft(r) at zeta*,
    so the node sums are those of :func:`scalar_product` (``_pair_sums``).
    The sums leave out the factor exp(Im(z)^2 / 2) of the row, which is
    applied to the result as to f, so the value is finite wherever
    |(Omega f)(z)| is, and RuntimeError is raised where it is not.
    """
    if f.params != kernel.params:
        raise ValueError("state and kernel must share the same system parameters")
    p = kernel.params
    z = complex(z)
    pref = (2 * np.pi * p.d) ** -0.5 / p.lam
    spectra = (f._spectrum, np.pi ** -0.25 * np.fft.ifft(weighted_thetas(z, p) @ kernel.matrix))
    # the absolute floor 1 on (Omega f)(z) is exp(-Im(z)^2 / 2) on the sums
    weighted = _cell_trapezoid(p, lambda x, y: _pair_sums(p, spectra, x, y), pref, "kernel_apply",
                               math.exp(-0.5 * z.imag**2))
    return _lift(0.5 * z.imag**2, weighted, "kernel_apply", z, f"d = {p.d}")


def apply_weyl_expansion(table: np.ndarray, f: AnalyticState, z) -> complex:
    """Apply an operator given by its phase-space table, as a displaced-f sum.

    Omega = d**-1 sum_ab table[a, b] D(a, b)^dagger, and D(a, b)^dagger =
    D(-a, -b) on integer labels, so the sum of table[a, b] [D(-a, -b) f](z) / d
    is the representation of (Omega state) at z: Omega is built by
    :func:`finiteq.hilbert.operator_from_weyl` and f evaluated once.
    """
    table = _square(table, "Weyl table", f.params.d)
    moved = FiniteState(operator_from_weyl(table) @ f.state.components, normalize=False)
    return complex(AnalyticState(moved, f.params)(z))


# ---------------------------------------------------------------------------
# resolution of the identity over the cell


def _coherent_gram(params: SystemParams, x, y) -> np.ndarray:
    """(fine, coarse): sum of t t^H over the grid x[None, :] + 1j y[:, None] and over its every other node.

    At a node z = x + iy, t = coherent_unnormalized(z) has t_m = p(z) sum_n g_n(y) e^{-2icnx} e^{2 pi i n m / d},
    |p(z)|^2 = pi**-1/2 / (d lam^2), g_n(y) = exp(-pi (n - kappa y)^2 / (d lam^2)).  On the abscissae of
    :func:`_pair_sums` the sum over x of e^{-2icl x} is chi_l = N_x e^{-2icla} at the lags l = n - n' = 0
    (mod N_x) and 0 elsewhere, so, with the row sums Gamma_l(n') = sum_y g_{n'+l}(y) g_n'(y),

        sum t_m t*_m' = |p|^2 sum_l chi_l e^{2 pi i l m / d} sum_n' Gamma_l(n') e^{2 pi i n' (m - m') / d}.

    Only the few lags l = 0 (mod N_x / 2, for the half grid's even rows) shorter than the window of live
    n survive, each one fold by n' mod d and one length-d FFT; row m is row m of their phased sum rotated by m.
    """
    d = params.d
    index, _, gauss = _theta_window(params, y)
    width, nx, half = index.shape[1], x.size, x.size // 2
    lags = half * np.arange(-((width - 1) // half), (width - 1) // half + 1)
    folds = np.empty((2, lags.size, d))
    for i, lag in enumerate(lags):
        lo, hi = max(lag, 0), width + min(lag, 0)
        pairs, at = gauss[:, lo:hi] * gauss[:, lo - lag:hi - lag], index[:, lo - lag:hi - lag] % d
        folds[:, i] = np.bincount(at.ravel(), pairs.ravel(), d), np.bincount(at[::2].ravel(), pairs[::2].ravel(), d)
    counts = np.array([[nx], [half]])  # the abscissae of the two levels
    chi = counts * (lags % counts == 0) * np.exp(-2j * params._window.c * x[0] * lags)
    phases = chi[:, None, :] * np.exp(2j * np.pi / d * (np.outer(np.arange(d), lags) % d))  # [level, m, l]
    h = np.pi ** -0.5 / (d * params.lam**2) * np.fft.fft(folds)  # times |p|^2
    table = phases @ np.concatenate([h, h], axis=-1)  # [level, m, k] for k in [0, 2d)
    # entry (m, m') sits at k = m' - m + d, flat index m (2d - 1) + m' + d of each level
    return table.reshape(2, -1)[:, d:].reshape(2, d, 2 * d - 1)[:, :, :d]


def coherent_identity_matrix(params: SystemParams) -> np.ndarray:
    """lam (2 pi d)**-1/2 Int_S N(A) |A>><<A| d2A, as a d x d matrix.

    Converges to the identity.  The normalization factor cancels against the
    projector so the integrand is the outer product of the unnormalized
    theta-form amplitudes, which is doubly periodic in A on the cell like
    the scalar-product integrand; it is evaluated with the same periodic
    trapezoid rule, error exp(-pi m^2 / 2), checked to 1e-6.
    The node sums come from the row sums of the swapped series on a few
    lags, summed over x in closed form (``_coherent_gram``).
    """
    pref = params.lam * (2 * np.pi * params.d) ** -0.5
    return _cell_trapezoid(params, lambda x, y: _coherent_gram(params, x, y), pref, "coherent_identity_matrix")
