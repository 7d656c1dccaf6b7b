"""The transform from real-line wavefunctions to d-component states.

A wavefunction psi on the real line maps to the unnormalized component sums

    t_m = sum_w exp(-2 pi i sigma1 w) psi[ sqrt(2 pi / d) lam (m + sigma2 + d w) ]

followed by normalization of the d-vector (sector (0, 0) is the default).
The same machinery at spacing 1/lam applied to the Fourier transform of psi
produces the momentum-side components, which coincide with the finite
Fourier transform of the position-side ones.

Built on the transform are the two state factories with closed theta-function
forms: eigenvectors of the Fourier matrix (images of Hermite functions at
lam = 1) and displaced-Gaussian states, together with their normalization
constants, overlaps and the inversion of the transform over a sector family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import FiniteState, fourier_matrix
from .theta import theta2, theta3
from .wavefunctions import HermiteNumber

__all__ = [
    "SystemParams",
    "ZakSector",
    "zak_sums",
    "zak_normalization",
    "zak_map",
    "momentum_zak_sums",
    "momentum_zak_normalization",
    "momentum_zak_map",
    "number_state",
    "number_normalization",
    "coherent_unnormalized",
    "coherent_normalization",
    "coherent_normalization_closed",
    "coherent_state_closed",
    "coherent_overlap",
    "coherent_overlap_direct",
    "coherent_from_number",
    "SectorFamily",
    "sector_family",
    "inverse_zak",
    "finite_fourier",
]

W_CAP = 64
_TAIL_TOL = 1e-15
_STOP_RUN = 3


@dataclass(frozen=True)
class SystemParams:
    """Dimension d, squeezing scale lam, and the cell anchor (a, b).

    The fundamental cell is the half-open rectangle
    [a, a + sqrt(2 pi d) lam) x [b, b + sqrt(2 pi d) / lam) in the complex
    plane; all scale factors of the theta forms derive from (d, lam).
    """

    d: int
    lam: float = 1.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise ValueError(f"scale lam must be positive and finite, got {self.lam}")

    @property
    def cell_width(self) -> float:
        return math.sqrt(2.0 * math.pi * self.d) * self.lam

    @property
    def cell_height(self) -> float:
        return math.sqrt(2.0 * math.pi * self.d) / self.lam

    @property
    def tau0(self) -> complex:
        """Lattice parameter i / (d lam^2) of the position-basis theta forms."""
        return 1j / (self.d * self.lam**2)

    def with_anchor(self, a: float, b: float) -> "SystemParams":
        return SystemParams(self.d, self.lam, a, b)


@dataclass(frozen=True)
class ZakSector:
    """Twisted-boundary-condition labels, reduced into [0, 1) x [0, 1)."""

    sigma1: float = 0.0
    sigma2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sigma1", float(self.sigma1) % 1.0)
        object.__setattr__(self, "sigma2", float(self.sigma2) % 1.0)


def _as_sector(sector) -> ZakSector:
    if sector is None:
        return ZakSector()
    if isinstance(sector, ZakSector):
        return sector
    s1, s2 = sector
    return ZakSector(s1, s2)


def _lattice_sums(fn, d, step, sector: ZakSector, m):
    """sum_w e^{-2 pi i sigma1 w} fn(step (m + sigma2 + d w)), adaptively truncated.

    Returns (total, peak) where peak is the largest sampled |fn| value; the
    ratio ||total|| / peak separates genuine components from sums that cancel
    identically.
    """
    m = np.arange(d) if m is None else np.asarray(m)
    base = (m + sector.sigma2) * step
    period = d * step
    total = np.asarray(fn(base), dtype=complex).copy()
    peak = float(np.max(np.abs(total), initial=0.0))
    run = 0
    for w in range(1, W_CAP + 1):
        phase = np.exp(-2j * np.pi * sector.sigma1 * w)
        up = np.asarray(fn(base + w * period), dtype=complex)
        down = np.asarray(fn(base - w * period), dtype=complex)
        peak = max(peak, float(np.max(np.abs(up))), float(np.max(np.abs(down))))
        shell = phase * up + np.conj(phase) * down
        total += shell
        rel = np.max(np.abs(shell)) / (1.0 + np.max(np.abs(total)))
        run = run + 1 if rel < _TAIL_TOL else 0
        if run >= _STOP_RUN:
            return total, peak
    raise RuntimeError(
        f"lattice sum tail not converged within |w| <= {W_CAP}; "
        "the wavefunction decays too slowly for this transform"
    )


# below this ratio of vector norm to largest sampled value, the lattice sum
# is taken to cancel identically (e.g. odd Hermite functions at d = 2, or
# index 3 mod 4 at d = 4 where the Fourier matrix lacks the eigenvalue -i)
_DEGENERATE_RATIO = 1e-12


def zak_sums(psi, params: SystemParams, sector=None, m=None) -> np.ndarray:
    """Unnormalized component sums t_m; `m` may hold any integers (default 0..d-1)."""
    step = math.sqrt(2.0 * math.pi / params.d) * params.lam
    total, _ = _lattice_sums(psi, params.d, step, _as_sector(sector), m)
    return total


def zak_normalization(psi, params: SystemParams, sector=None) -> float:
    """Normalization constant: squared norm of the unnormalized sums."""
    t = zak_sums(psi, params, sector)
    return float(np.sum(np.abs(t) ** 2))


def _normalized_or_raise(total, peak) -> FiniteState:
    nrm = np.linalg.norm(total)
    if nrm <= _DEGENERATE_RATIO * peak or nrm == 0.0:
        raise ValueError(
            "transform of this wavefunction vanishes identically at this "
            "dimension; no normalizable state exists"
        )
    return FiniteState(total / nrm, normalize=False)


def zak_map(psi, params: SystemParams, sector=None) -> FiniteState:
    """Map a real-line wavefunction to a normalized d-component state."""
    step = math.sqrt(2.0 * math.pi / params.d) * params.lam
    total, peak = _lattice_sums(psi, params.d, step, _as_sector(sector), None)
    return _normalized_or_raise(total, peak)


def momentum_zak_sums(psi, params: SystemParams, m=None) -> np.ndarray:
    """Unnormalized momentum-side sums: the transform of psi-hat at spacing 1/lam."""
    step = math.sqrt(2.0 * math.pi / params.d) / params.lam
    total, _ = _lattice_sums(psi.fourier_at, params.d, step, ZakSector(), m)
    return total


def momentum_zak_normalization(psi, params: SystemParams) -> float:
    t = momentum_zak_sums(psi, params)
    return float(np.sum(np.abs(t) ** 2))


def momentum_zak_map(psi, params: SystemParams) -> FiniteState:
    """Momentum-side state; equals fourier_matrix(d) @ zak_map(psi) componentwise."""
    step = math.sqrt(2.0 * math.pi / params.d) / params.lam
    total, peak = _lattice_sums(psi.fourier_at, params.d, step, ZakSector(), None)
    return _normalized_or_raise(total, peak)


# ---------------------------------------------------------------------------
# eigenvectors of the Fourier matrix


def _require_unit_scale(params: SystemParams, what: str):
    if abs(params.lam - 1.0) > 1e-12:
        raise ValueError(f"{what} are defined at lam = 1, got lam = {params.lam}")


def number_state(n: int, params: SystemParams) -> FiniteState:
    """Image of the n-th Hermite function; eigenvector of F with eigenvalue i**n."""
    _require_unit_scale(params, "number states")
    return zak_map(HermiteNumber(n), params)


def number_normalization(n: int, params: SystemParams) -> float:
    _require_unit_scale(params, "number states")
    return zak_normalization(HermiteNumber(n), params)


# ---------------------------------------------------------------------------
# displaced-Gaussian states and their theta closed forms


# Gaussian weights below exp(-_THETA_CUT) of the largest one are dropped, by
# weighted_thetas and by the Laurent terms of f alike
_THETA_CUT = 41.0


def _theta_scales(params: SystemParams):
    """(c, kappa, K): c = sqrt(pi/2d)/lam, kappa = c d lam^2/pi, K = sqrt(_THETA_CUT d lam^2/pi)."""
    d, lam = params.d, params.lam
    c = math.sqrt(np.pi / (2 * d)) / lam
    return c, c * d * lam**2 / np.pi, math.sqrt(_THETA_CUT * d * lam**2 / np.pi)


def weighted_thetas(z, params: SystemParams, derivative: bool = False) -> np.ndarray:
    """exp(-Im(z)^2 / 2) theta3[pi m / d - c z; i / (d lam^2)] for m = 0 .. d-1.

    Swapping the two sums, with z = x + iy, gives

        exp(-y^2/2) theta_m(z) = sum_n exp(-pi (n - kappa y)^2 / (d lam^2) - 2icnx) e^{2 pi i n m / d},

    a Gaussian in n of modulus at most 1 centred on kappa y, so nothing
    overflows at any d.  The n within K of kappa y (beyond it the weight is
    below exp(-_THETA_CUT)) are folded by n mod d, and one inverse FFT gives
    the d values on the last axis.  ``derivative`` gives the weighted d/dz theta_m.
    """
    d = params.d
    c, kappa, K = _theta_scales(params)
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    y = z.imag[..., None]
    start = np.floor(kappa * y - K).astype(np.int64)
    width = d * math.ceil((2 * K + 2) / d)  # every n within K of kappa y, padded to whole periods
    n = start + np.arange(width)
    terms = np.exp(-np.pi / (d * params.lam**2) * (n - kappa * y) ** 2 - 2j * c * n * z.real[..., None])
    if derivative:
        terms *= -2j * c * n
    # column j of the fold holds the n = start + j (mod d); rotate it to n mod d
    folded = terms.reshape(z.shape + (width // d, d)).sum(axis=-2)
    folded = np.take_along_axis(folded, (np.arange(d) - start) % d, axis=-1)
    return d * np.fft.ifft(folded, axis=-1)


def coherent_unnormalized(label, params: SystemParams) -> np.ndarray:
    """Unnormalized amplitudes of the displaced-Gaussian state with label A.

    Identical (as exact functions of A) to ``zak_sums(GaussianCoherent(A))``:

        t_m = pi**-1/4 d**-1/2 lam**-1 exp(i Im(A) A / 2)
              * theta3[pi m / d - (A/lam) sqrt(pi / 2d); i / (d lam^2)]

    The label may be an array; the last axis of the result runs over m.
    """
    a = np.asarray(label, dtype=complex)
    pref = np.pi ** -0.25 / (math.sqrt(params.d) * params.lam) * np.exp(0.5j * a.real * a.imag)
    return pref[..., None] * weighted_thetas(a, params)


def coherent_normalization(label, params: SystemParams) -> float:
    """Normalization constant, computed from the direct component sum.

    This direct sum is the runtime-authoritative value; the closed theta
    expression is available as :func:`coherent_normalization_closed` and the
    two are cross-checked in the test suite.
    """
    t = coherent_unnormalized(complex(label), params)
    return float(np.sum(np.abs(t) ** 2))


def _parity_form(form: str, d: int) -> str:
    """Resolve ``form='auto'`` by the parity of d: 'even' or 'general'."""
    if form == "auto":
        return "even" if d % 2 == 0 else "general"
    if form not in ("even", "general"):
        raise ValueError(f"form must be 'auto', 'general' or 'even', got {form!r}")
    return form


def coherent_normalization_closed(label, params: SystemParams, form: str = "auto") -> float:
    """Closed theta-product form of the normalization constant.

    For odd d:

        N(A) = pi**-1/2 lam**-2 exp(-Im(A)^2)
               * { theta3[Re(A)/lam sqrt(2 pi d); 2id/lam^2]
                   theta3[i Im(A)/lam sqrt(2 pi/d); 2i/(d lam^2)]
                 + theta2[...] theta2[...] }

    For even d the brace collapses to the single product
    theta3[Re(A)/lam sqrt(pi d/2); id/(2 lam^2)] theta3[second arg as above].
    The exp(-Im(A)^2) factor is required for consistency with the direct sum
    and with the overlap formula at coinciding labels.
    """
    d, lam = params.d, params.lam
    a = complex(label)
    u2 = 1j * (a.imag / lam) * math.sqrt(2 * np.pi / d)
    tau2 = 2j / (d * lam**2)
    if _parity_form(form, d) == "even":
        u1 = (a.real / lam) * math.sqrt(np.pi * d / 2)
        brace = theta3(u1, 0.5j * d / lam**2) * theta3(u2, tau2)
    else:
        u1 = (a.real / lam) * math.sqrt(2 * np.pi * d)
        tau1 = 2j * d / lam**2
        brace = theta3(u1, tau1) * theta3(u2, tau2) + theta2(u1, tau1) * theta2(u2, tau2)
    val = np.pi ** -0.5 / lam**2 * math.exp(-a.imag**2) * brace
    return float(val.real)


def coherent_state_closed(label, params: SystemParams) -> FiniteState:
    """Normalized displaced-Gaussian state from the theta closed form."""
    t = coherent_unnormalized(complex(label), params)
    return FiniteState(t / np.linalg.norm(t), normalize=False)


def coherent_overlap_direct(label1, label2, params: SystemParams) -> complex:
    """Componentwise inner product of the two normalized states (oracle path)."""
    s1 = coherent_state_closed(label1, params)
    s2 = coherent_state_closed(label2, params)
    return s1.inner(s2)


def coherent_overlap(label1, label2, params: SystemParams, form: str = "auto") -> complex:
    """Overlap <<A1|A2>> from the closed theta-product formula.

    The theta3*theta3 + theta2*theta2 combination is exact for odd d and the
    single-product variant for even d; ``form='auto'`` dispatches on parity.
    Both variants are validated against :func:`coherent_overlap_direct`.
    """
    d, lam = params.d, params.lam
    a1, a2 = complex(label1), complex(label2)
    n1 = coherent_normalization(a1, params)
    n2 = coherent_normalization(a2, params)
    splus = (np.conj(a1) + a2) / lam
    sminus = (np.conj(a1) - a2) / lam
    phase = np.exp(-0.5j * a1.imag * np.conj(a1) + 0.5j * a2.imag * a2)
    t_minus = theta3(sminus * math.sqrt(np.pi / (2 * d)), 2j / (d * lam**2))
    if _parity_form(form, d) == "even":
        sum_part = theta3(splus * math.sqrt(np.pi * d / 8), 0.5j * d / lam**2) * t_minus
    else:
        u1 = splus * math.sqrt(np.pi * d / 2)
        tau1 = 2j * d / lam**2
        sum_part = theta3(u1, tau1) * t_minus + theta2(u1, tau1) * theta2(
            sminus * math.sqrt(np.pi / (2 * d)), 2j / (d * lam**2)
        )
    return complex(np.pi ** -0.5 / lam**2 / math.sqrt(n1 * n2) * phase * sum_part)


def coherent_from_number(label, params: SystemParams, n_max: int) -> FiniteState:
    """Partial number-basis expansion of a displaced-Gaussian state.

    |A>> = exp(-|A|^2/4) sum_N (A/sqrt(2))^N / sqrt(N!)
           [Nn(N)/Nc(A)]^(1/2) |N>>,

    truncated at N = n_max; converges to coherent_state_closed(A) as n_max
    grows.  The coefficient follows from the Hermite generating function
    with the Gaussian convention exp(-x^2/2 + A x - Re(A) A / 2), in which
    the oscillator label is A/sqrt(2).  Each sqrt(Nn(N)) |N>> term is the
    unnormalized Hermite lattice sum, so indices whose projection vanishes
    identically contribute nothing.  Requires lam = 1 like the number states.
    """
    _require_unit_scale(params, "number-basis expansions")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    a = complex(label)
    alpha = a / math.sqrt(2.0)
    nc = coherent_normalization(a, params)
    acc = np.zeros(params.d, dtype=complex)
    for n in range(n_max + 1):
        # alpha^N / sqrt(N!) in log form to stay finite for large n_max
        if alpha == 0:
            if n > 0:
                break
            coeff = 1.0 + 0j
        else:
            coeff = np.exp(n * np.log(abs(alpha)) - 0.5 * math.lgamma(n + 1)) * (alpha / abs(alpha)) ** n
        acc += coeff * zak_sums(HermiteNumber(n), params)
    acc *= math.exp(-0.25 * abs(a) ** 2) / math.sqrt(nc)
    return FiniteState(acc, normalize=False)


# ---------------------------------------------------------------------------
# sector families and inversion of the transform


@dataclass
class SectorFamily:
    """States of one wavefunction over a uniform sigma1 grid at fixed sigma2."""

    params: SystemParams
    sigma1: np.ndarray
    sigma2: float
    states: list = field(default_factory=list)
    norms: np.ndarray = None

    def component(self, m: int) -> np.ndarray:
        """Unnormalized component m across the sigma1 grid, for any integer m.

        Components extend quasi-periodically beyond [0, d):
        t_{m+d}(sigma1) = e^{2 pi i sigma1} t_m(sigma1).
        """
        q, r = divmod(int(m), self.params.d)
        amps = np.array([s.components[r] for s in self.states])
        return np.sqrt(self.norms) * amps * np.exp(2j * np.pi * self.sigma1 * q)


def sector_family(psi, params: SystemParams, sigma2: float = 0.0, n_sigma1: int = 64) -> SectorFamily:
    """Build the family over sigma1 = k / n_sigma1, k = 0 .. n_sigma1 - 1."""
    if n_sigma1 < 4 or n_sigma1 % 2:
        raise ValueError(f"n_sigma1 must be an even integer >= 4, got {n_sigma1}")
    grid = np.arange(n_sigma1) / n_sigma1
    states, norms = [], []
    for s1 in grid:
        t = zak_sums(psi, params, ZakSector(s1, sigma2))
        nrm = np.linalg.norm(t)
        states.append(FiniteState(t / nrm, normalize=False))
        norms.append(nrm**2)
    return SectorFamily(params, grid, float(sigma2) % 1.0, states, np.array(norms))


def inverse_zak(family: SectorFamily, m: int, w: int, tol: float = 1e-6) -> complex:
    """Recover psi at x = sqrt(2 pi / d) lam (m + sigma2 + d w) from a family.

    Integrates N(sigma1)^(1/2) psi_m(sigma1) e^{2 pi i sigma1 w} over one
    period of sigma1 with the periodic trapezoid rule on the family grid.
    The error estimate compares against the half-resolution grid; a value
    above `tol` raises (grid too coarse).
    """
    vals = family.component(m) * np.exp(2j * np.pi * family.sigma1 * w)
    full = complex(np.mean(vals))
    half = complex(np.mean(vals[::2]))
    if abs(full - half) > tol:
        raise RuntimeError(
            f"sigma1 grid too coarse: quadrature error estimate {abs(full - half):.2e} > {tol}"
        )
    return full


def finite_fourier(state: FiniteState) -> FiniteState:
    """Apply the Fourier matrix to a state."""
    return FiniteState(fourier_matrix(state.d) @ state.components, normalize=False)
