"""The transform from real-line wavefunctions to d-component states.

A wavefunction psi on the real line maps to the unnormalized component sums

    t_m = sum_w exp(-2 pi i sigma1 w) psi[ sqrt(2 pi / d) lam (m + sigma2 + d w) ]

followed by normalization of the d-vector (sector (0, 0) is the default).
The momentum side, the same sums of the Fourier transform of psi at scale
1/lam, equals lam F t by Poisson summation (F the Fourier matrix), so it is
computed from the position sums and only one lattice is ever summed.

Built on the transform are the two state factories with closed theta-function
forms: eigenvectors of the Fourier matrix (images of Hermite functions at
lam = 1) and displaced-Gaussian states, together with their normalization
constants, overlaps and the inversion of the transform over a sector family.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import FiniteState
from .theta import _finite, _integer, _integers, _lift, _log_theta3, _positive
from .wavefunctions import HermiteNumber, _hermite_functions

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


class _Window(NamedTuple):
    """c = sqrt(pi/2d)/lam, kappa = c d lam^2/pi, K = sqrt(_THETA_CUT d lam^2/pi), the live terms per height
    ceil(2 K) + 2, the length of a placed fold (:func:`_fold`), which holds a window ending before d + width in
    whole periods of d, the offsets j = 0 .. width - 1 (read-only) and -pi / (d lam^2)."""

    c: float
    kappa: float
    K: float
    width: int
    fold_length: int
    j: np.ndarray
    scale: float


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
        object.__setattr__(self, "d", _integer(self.d, "dimension", 1))
        object.__setattr__(self, "lam", _positive(self.lam, "scale lam"))
        for name in ("a", "b"):
            object.__setattr__(self, name, float(_finite(getattr(self, name), f"cell anchor {name}", float)))

    @property
    def cell_width(self) -> float:
        return math.sqrt(2.0 * math.pi * self.d) * self.lam

    @property
    def cell_height(self) -> float:
        return math.sqrt(2.0 * math.pi * self.d) / self.lam

    @functools.cached_property
    def _window(self) -> _Window:
        """The constants of the theta window at span 0 (:func:`_theta_window`), worked out at first use.

        Every call of the f kernel and of the label-set rows reads them, so they are kept
        on the params, which are frozen, rather than taken again per call.
        """
        c = math.sqrt(np.pi / (2 * self.d)) / self.lam
        K = math.sqrt(_THETA_CUT * self.d * self.lam**2 / np.pi)
        width = math.ceil(2 * K) + 2
        j = np.arange(width)
        j.flags.writeable = False  # shared by every window of these params
        fold_length = -(-(width + self.d - 1) // self.d) * self.d
        return _Window(c, c * self.d * self.lam**2 / np.pi, K, width, fold_length, j, -np.pi / (self.d * self.lam**2))

    @functools.cached_property
    def _border(self) -> np.ndarray:
        """The rebuild's unit border exp(2 pi i phi k^2) / sqrt(d), phi the golden ratio (read-only)."""
        b = np.exp(2j * np.pi * ((0.5 + 0.5 * math.sqrt(5.0)) * np.arange(self.d) ** 2 % 1.0)) / math.sqrt(self.d)
        b.flags.writeable = False
        return b


@dataclass(frozen=True)
class ZakSector:
    """Twisted-boundary-condition labels, reduced into [0, 1) x [0, 1)."""

    sigma1: float = 0.0
    sigma2: float = 0.0

    def __post_init__(self):
        for name in ("sigma1", "sigma2"):
            object.__setattr__(self, name, float(_finite(getattr(self, name), f"twist {name}", float)) % 1.0)


def _as_sector(sector) -> ZakSector:
    if isinstance(sector, ZakSector):
        return sector
    return ZakSector() if sector is None else ZakSector(*sector)


def _lattice_sums(fn, params: SystemParams, sigma1, sigma2, m=None):
    """sum_w e^{-2 pi i sigma1 w} fn(step (m + sigma2 + d w)), step = sqrt(2 pi / d) lam, for each sigma1.

    `sigma1` is an array of twists sharing one set of fn samples; row r of the result, of
    the shape of m (default 0 .. d-1), belongs to sigma1[r].  Shells are counted w = w0 + k
    from w0 = round(fn.centre / (d step)), or from 0 without a centre or when
    |w0| <= _STOP_RUN (the first batch then reaches it), so a far psi does not stop on its
    vanishing near tail; a centre past 1e8, where doubles lie 1e-8 apart, raises.  The
    batches are |k| <= _STOP_RUN and then twice as far each time up to W_CAP, each one fn
    call and one product with the phases.  The sum ends with the batch in which _STOP_RUN
    shells in a row first each add less than _TAIL_TOL of every row's size (1 plus its
    largest entry), bounding shell k of all rows by |fn(w0 + k)| + |fn(w0 - k)|, so it takes
    no fewer shells than a row-by-row rule stopping at such a run.  Returns (total, peak),
    peak the largest sampled |fn|; ||total|| / peak tells genuine components from sums that
    cancel identically.
    """
    d, step = params.d, math.sqrt(2.0 * math.pi / params.d) * params.lam
    m = np.arange(d) if m is None else np.asarray(m)
    sigma1 = np.atleast_1d(np.asarray(sigma1, dtype=float))
    base = (m.ravel() + sigma2) * step
    w0 = round(getattr(fn, "centre", 0.0) / (d * step))
    if abs(w0) * d * step > 1e8:
        raise ValueError(f"the centre of psi, {fn.centre:g}, is too far out to resolve its lattice points")
    w0 = 0 if abs(w0) <= _STOP_RUN else w0
    total, peak, done, run = np.zeros((sigma1.size, m.size), dtype=complex), 0.0, -1, 0
    while done < W_CAP:
        k = np.arange(done + 1, min(max(2 * done, _STOP_RUN), W_CAP) + 1)
        k = np.concatenate([-k[::-1], k[k > 0]])  # -hi .. -lo, lo .. hi, with k = 0 once in the first batch
        w = w0 + k
        samples = _finite(fn(base + w[:, None] * (d * step)), "the values of psi")
        modulus = np.abs(samples)
        peak = max(peak, float(modulus.max(initial=0.0)))
        total += np.exp(-2j * np.pi * sigma1[:, None] * w) @ samples
        bound = (modulus + modulus[::-1])[k > 0].max(axis=1, initial=0.0)  # |fn(w0 + k)| + |fn(w0 - k)|, |k| rising
        for small in bound < _TAIL_TOL * (1.0 + np.abs(total).max(axis=1, initial=0.0).min()):
            run = run + 1 if small else 0
            if run == _STOP_RUN:
                return total.reshape(sigma1.shape + m.shape), peak
        done = k[-1]
    raise RuntimeError(
        f"lattice sum tail not converged within |w| <= {W_CAP}; "
        "the wavefunction decays too slowly for this transform"
    )


# below this ratio of vector norm to largest sampled value, the lattice sum
# is taken to cancel identically (e.g. odd Hermite functions at d = 2, or
# index 3 mod 4 at d = 4 where the Fourier matrix lacks the eigenvalue -i)
_DEGENERATE_RATIO = 1e-12


def zak_sums(psi, params: SystemParams, sector=None, m=None) -> np.ndarray:
    """Unnormalized component sums t_m; `m` may hold any integers (default 0..d-1).

    t_{qd+r} = e^{2 pi i sigma1 q} t_r, so only r in [0, d) is summed, from the shells where psi lives.
    """
    sector = _as_sector(sector)
    q, r = np.divmod(np.arange(params.d) if m is None else _integers(m, "label m"), params.d)
    t = _lattice_sums(psi, params, sector.sigma1, sector.sigma2, r)[0][0]
    return t * np.exp(2j * np.pi * sector.sigma1 * q)


def zak_normalization(psi, params: SystemParams, sector=None) -> float:
    """Normalization constant: squared norm of the unnormalized sums."""
    return float(np.sum(np.abs(zak_sums(psi, params, sector)) ** 2))


def zak_map(psi, params: SystemParams, sector=None) -> FiniteState:
    """Map a real-line wavefunction to a normalized d-component state."""
    sector = _as_sector(sector)
    total, peak = _lattice_sums(psi, params, sector.sigma1, sector.sigma2)
    nrm = np.linalg.norm(total)
    if nrm <= _DEGENERATE_RATIO * peak or nrm == 0.0:
        raise ValueError(
            "transform of this wavefunction vanishes identically at this "
            "dimension; no normalizable state exists"
        )
    return FiniteState(total[0] / nrm, normalize=False)


def momentum_zak_sums(psi, params: SystemParams, m=None) -> np.ndarray:
    """Unnormalized momentum-side sums, :func:`zak_sums` of psi-hat at scale 1/lam: by Poisson summation
    (Zak, Phys. Rev. Lett. 19 (1967) 1385), lam F zak_sums(psi), F = sqrt(d) ifft, d-periodic in m."""
    t = params.lam * math.sqrt(params.d) * np.fft.ifft(zak_sums(psi, params))
    return t if m is None else t[np.asarray(m) % params.d]


def momentum_zak_normalization(psi, params: SystemParams) -> float:
    """Squared norm of :func:`momentum_zak_sums`, lam^2 zak_normalization(psi)."""
    return params.lam**2 * zak_normalization(psi, params)


def momentum_zak_map(psi, params: SystemParams) -> FiniteState:
    """Momentum-side state, the finite Fourier transform of :func:`zak_map`."""
    return finite_fourier(zak_map(psi, params))


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

# the most live terms (or placed fold values) that weighted_thetas and
# _spectral_sum hold for one block of points; see _spectral_sum
_BLOCK_TERMS = 2**14


def _theta_window(params: SystemParams, y, span: float = 0.0):
    """The live terms of the swapped theta series at heights y - span .. y + span.

    Returns (index, base, weight).  The live n of a height are the
    ceil(2 K + 2 kappa span) + 2 consecutive integers from
    n0 = floor(kappa (y - span) - K): every n within K of kappa times a
    height of the range, beyond which the Gaussian weight is below
    exp(-_THETA_CUT) of the largest.  n = base + index, base = d floor(n0 / d),
    so index lies in [0, d + width) at any height and reads G_{n mod d} (and
    -index G_{-n mod d}) by ``np.take`` in wrap mode in at most 1 + width / d steps.
    weight is the Gaussian weight exp(-pi (n - kappa y)^2 / (d lam^2)) at
    height y, one real exponential per term.  Past kappa |y| = 2^53 doubles
    no longer hold consecutive n, and ValueError is raised.
    """
    window = params._window
    kappa = window.kappa
    ky = kappa * np.asarray(y, dtype=float)[..., None]
    reach = window.K + kappa * span
    top = np.abs(ky).max(initial=0.0) + reach
    if not top < 2.0**53:
        raise ValueError(f"height {top / kappa:g} is too far out to resolve the terms of the theta series")
    start = np.floor(ky - reach)
    j = np.arange(math.ceil(2 * reach) + 2) if span else window.j
    exponent = (start - ky) + j  # n - kappa y, squared and scaled in place
    exponent *= exponent
    exponent *= window.scale
    start = start.astype(np.int64)
    offset = start % params.d
    return offset + j, start - offset, np.exp(exponent, out=exponent)


def _phases(s, n0, width: int) -> np.ndarray:
    """exp(n0 s) exp(s)^j, j = 0 .. width - 1 on a new last axis, the integers n0 broadcast against s.

    With s = fl(-2icx) these are the phases e^{-2icnx} of n = n0 + j, from two complex exponentials and one
    running product per row; each power carries the rounding of about j products, far below the tolerance at
    the widths of the window.  Both f kernels take every phase here, so they round alike.
    """
    out = np.empty(np.broadcast(n0, s).shape + (width,), dtype=complex)
    first = out[..., 0]
    np.exp(np.multiply(n0, s, out=first), out=first)
    if width > 1:
        out[..., 1:] = np.exp(s)[..., None]
        np.cumprod(out, axis=-1, out=out)
    return out


def _live_terms(z, params: SystemParams, order: int):
    """(index, base, terms): the terms exp(-pi (n - kappa y)^2 / (d lam^2) - 2icnx) (-2icn)^order at each z.

    ``order`` is one int for all points; order 0 takes no factor.  The
    phases are :func:`_phases` of the point's first live n.  The Gaussian
    weights come from the window as they are, one real exponential per term:
    split into a per-point ratio times a fixed e^{-pi j^2 / (d lam^2)}, their
    factors overflow before they cancel when d lam^2 is small.
    n = base + index, as in :func:`_theta_window`.
    """
    c = params._window.c
    index, base, weight = _theta_window(params, z.imag)
    terms = _phases(-2j * c * z.real, base[..., 0] + index[..., 0], index.shape[-1])
    terms *= weight
    if order:
        terms *= _derivative_factor(c, base + index, order)
    return index, base, terms


def _derivative_factor(c: float, n: np.ndarray, order: int) -> np.ndarray:
    """(-2icn)^order, the order-th z-derivative's factor on term n of the series."""
    factor = -2j * c * n
    return factor if order == 1 else factor ** order  # x ** 1 costs several times a copy


def _live_blocks(z: np.ndarray, params: SystemParams, order: int, per_point: int):
    """(block, index, terms): :func:`_live_terms` of the flattened points of z, a slice `block` at a time.

    A block holds max(1, _BLOCK_TERMS // per_point) points, where per_point
    is what a caller holds for each point, so its temporaries stay within
    about _BLOCK_TERMS values whatever the number of points.
    """
    flat = z.reshape(-1)
    step = max(1, _BLOCK_TERMS // per_point)
    for lo in range(0, flat.size, step):
        block = slice(lo, lo + step)
        index, _, terms = _live_terms(flat[block], params, order)
        yield block, index, terms


def _fold(index: np.ndarray, terms: np.ndarray, params: SystemParams) -> np.ndarray:
    """F, the live terms of each point (rows of :func:`_live_terms`) summed by n mod d: weighted_thetas = d ifft(F).

    Each point's terms are placed by their index n - base, base a multiple of d, so column k
    of the fold holds the n = k (mod d) with no rotation.  The placed array is taken for at most
    _BLOCK_TERMS values at a time, so beyond its output the fold holds no more than one block.
    The loop is for :func:`finiteq.zeros._unit_rows`, which folds all its labels in one call.
    """
    d, length = params.d, params._window.fold_length
    out = np.empty((len(index), d), dtype=complex)
    step = max(1, _BLOCK_TERMS // length)
    for lo in range(0, len(index), step):
        block = slice(lo, lo + step)
        placed = np.zeros((len(index[block]), length), dtype=complex)
        placed.ravel()[index[block] + np.arange(placed.size, step=length)[:, None]] = terms[block]
        placed.reshape(len(placed), -1, d).sum(axis=-2, out=out[block])
    return out


def weighted_thetas(z, params: SystemParams, order: int = 0) -> np.ndarray:
    """exp(-Im(z)^2 / 2) theta3[pi m / d - c z; i / (d lam^2)] for m = 0 .. d-1.

    Swapping the two sums, with z = x + iy, gives

        exp(-y^2/2) theta_m(z) = sum_n exp(-pi (n - kappa y)^2 / (d lam^2) - 2icnx) e^{2 pi i n m / d},

    a Gaussian in n of modulus at most 1 centred on kappa y, so nothing
    overflows at any d.  The n within K of kappa y (beyond it the weight is
    below exp(-_THETA_CUT)) are folded by n mod d into F (:func:`_fold`), and
    one inverse FFT gives the d values on the last axis; the label-set path of
    :mod:`finiteq.zeros` works on the folds (its docstring says why).  ``order``
    k, an int of at least 0 for all points, gives the weighted d^k/dz^k theta_m.

    The points go through in blocks whose placed fold array holds at most
    _BLOCK_TERMS values, each block writing its rows of the output, so the
    memory beyond the output does not grow with the number of points; see
    :func:`_spectral_sum` for how the block size was chosen.

    This is for callers that need all d values at a point: the coherent
    amplitudes and the operator kernels.  A contraction sum_m a_m theta_m(z), such as f itself, is
    summed directly from the spectrum of a by :func:`_spectral_sum`.
    """
    d = params.d
    z = _finite(z, "z")
    order = _integer(order, "order", 0)
    out = np.empty(z.shape + (d,), dtype=complex)
    rows_out = out.reshape(-1, d)
    for block, index, terms in _live_blocks(z, params, order, params._window.fold_length):
        np.multiply(d, np.fft.ifft(_fold(index, terms, params), axis=-1), out=rows_out[block])
    return out


def _spectral_sum(z, params: SystemParams, spectrum: np.ndarray, order: int = 0) -> np.ndarray:
    """sum_m weighted_thetas(z, params, order)[..., m] a_m, from spectrum = d ifft(a).

    Summing over m first turns the swapped series into one sum over the
    live n, sum_n exp(-pi (n - kappa y)^2 / (d lam^2) - 2icnx) G_{n mod d},
    so a point costs its live terms and no fold or FFT.

    A tensor grid z (:func:`_tensor_grid`), such as the grid of a plot of f,
    is one matrix product of factors (:func:`_spectral_grid`), rows by columns,
    transposed for a grid whose y varies fastest.  Other points go
    through in blocks of at most _BLOCK_TERMS live terms, each block writing
    its slice of the output.  All points at once would build several
    (points x live terms) temporaries, about 9 KB per point at
    d = 1000: 900 MB for 10^5 points, and past the 2 MiB L2 cache per core
    of the measuring machine (an x86-64 Xeon) from a few hundred points on.
    Each point takes the same arithmetic in any block, so the values do not
    depend on the blocking.  _BLOCK_TERMS = 2^14, 256 KiB per complex
    temporary, was the fastest of 2^11 .. 2^17 for f and f' on 880
    points at d = 192 and 1000 on that machine (2^13 was 10-20% faster at
    d = 16 and 64, where a call takes under 2 ms).
    """
    z = _finite(z, "z")
    grid = _tensor_grid(z)
    if grid is not None:
        x, y, y_fastest = grid
        out = _spectral_grid(x, y, params, spectrum, order)
        return (out.T if y_fastest else out).reshape(z.shape)
    out = np.empty(z.shape, dtype=complex)
    flat_out = out.reshape(-1)
    for block, index, terms in _live_blocks(z, params, order, params._window.width):
        flat_out[block] = np.einsum("...j,...j->...", terms, np.take(spectrum, index, mode="wrap"))
    return out


def _tensor_grid(z: np.ndarray):
    """(x, y, y_fastest) when z flattens to x[None, :] + 1j y[:, None], or to x[:, None] + 1j y[None, :]
    with y_fastest, for 2 or more distinct x and y; else None.  Exact, O(z.size); random z fail at once.
    """
    flat = z.reshape(-1)
    y_fastest = flat.size >= 4 and flat[1].real == flat[0].real
    fast, slow = (flat.imag, flat.real) if y_fastest else (flat.real, flat.imag)
    if flat.size < 4 or fast[1] == fast[0] or slow[1] != slow[0]:
        return None
    width = int((slow != slow[0]).argmax())  # 0 where slow never changes
    if width == 0 or flat.size % width:
        return None
    fast, slow = fast.reshape(-1, width), slow.reshape(-1, width)
    if (fast != fast[0]).any() or (slow != slow[:, :1]).any():
        return None
    return (slow[:, 0], fast[0], True) if y_fastest else (fast[0], slow[:, 0], False)


def _spectral_grid(x, y, params: SystemParams, spectrum: np.ndarray, order: int = 0) -> np.ndarray:
    """_spectral_sum on the tensor grid x[None, :] + 1j y[:, None], rows by columns, in factors.

    The term n = start_r + j of row r (height y_r) factors into the row factor
    exp(-pi (n - kappa y_r)^2 / (d lam^2)) G_{n mod d} (-2icn)^order, the column factor exp(-2icjx) and the
    node phase exp(-2ic start_r x): one (rows x width) (width x columns) matrix product, rows x width real
    exponentials, and the :func:`_phases` of the columns from n0 = 0 and of the nodes from n0 = start_r.
    """
    c = params._window.c
    index, base, weight = _theta_window(params, y)
    rows = weight * np.take(spectrum, index, mode="wrap")
    if order:
        rows *= _derivative_factor(c, base + index, order)
    start, step = base[:, :1] + index[:, :1], -2j * c * np.asarray(x, dtype=float)
    out = rows @ _phases(step, 0, index.shape[-1]).T
    del index, base, weight, rows  # the factors go before the output-sized node phases come
    out *= _phases(step, start, 1)[..., 0]
    return out


def coherent_unnormalized(label, params: SystemParams) -> np.ndarray:
    """Unnormalized amplitudes of the displaced-Gaussian state with label A.

    Identical (as exact functions of A) to ``zak_sums(GaussianCoherent(A))``:

        t_m = pi**-1/4 d**-1/2 lam**-1 exp(i Im(A) A / 2)
              * theta3[pi m / d - (A/lam) sqrt(pi / 2d); i / (d lam^2)]

    The label may be an array; the last axis of the result runs over m.
    """
    a = _finite(label, "coherent label")
    pref = np.pi ** -0.25 / (math.sqrt(params.d) * params.lam) * np.exp(0.5j * a.real * a.imag)
    return pref[..., None] * weighted_thetas(a, params)


def coherent_normalization(label, params: SystemParams) -> float:
    """Normalization constant from the direct component sum.

    The closed theta form is :func:`coherent_normalization_closed`; the tests cross-check the two.
    """
    t = coherent_unnormalized(complex(label), params)
    return float(np.sum(np.abs(t) ** 2))


def _log_gram(a1, a2, params: SystemParams):
    """(s, v) with exp(s) v = sum_m conj(t_m(A1)) t_m(A2), t = :func:`coherent_unnormalized`.

    The double lattice sum of the product runs over the index pairs n = n'
    (mod d); summing n + n' and (n - n')/d apart, with the parity constraint
    between them as an average over j, gives for every d

        pi**-1/2 lam**-2 exp(-i Im(A1) conj(A1)/2 + i Im(A2) A2/2) K,
        K = 1/2 sum_{j=0,1} theta3[s+ sqrt(pi d/8) + j pi d/2; id/(2 lam^2)]
                            theta3[s- sqrt(pi/(8d)) + j pi/2; i/(2 d lam^2)],

    s+ = (conj(A1) + A2)/lam, s- = (conj(A1) - A2)/lam.  The larger j-term
    sets s, and callers add their prefactors to s before one exponential.
    """
    d, lam = params.d, params.lam
    splus, sminus = (np.conj(a1) + a2) / lam, (np.conj(a1) - a2) / lam
    j = np.arange(2).reshape((2,) + (1,) * np.ndim(splus))  # the j-terms along a new first axis
    s1, v1 = _log_theta3(splus * math.sqrt(np.pi * d / 8) + j * np.pi * d / 2, 0.5j * d / lam**2)
    s2, v2 = _log_theta3(sminus * math.sqrt(np.pi / (8 * d)) + j * np.pi / 2, 0.5j / (d * lam**2))
    s = np.max(s1.real + s2.real, axis=0)
    pref = -0.5j * np.imag(a1) * np.conj(a1) + 0.5j * np.imag(a2) * a2 - 0.5 * math.log(np.pi) - 2 * math.log(lam)
    return s + pref, 0.5 * np.sum(v1 * v2 * np.exp(s1 + s2 - s), axis=0)


def coherent_normalization_closed(label, params: SystemParams) -> float:
    """Closed theta form of the normalization constant, :func:`_log_gram` at A1 = A2 = A.

    There N(A) = pi**-1/2 lam**-2 exp(-Im(A)^2) K(2 Re(A)/lam, -2i Im(A)/lam);
    K grows like exp(Im(A)^2), and the two factors meet in log form, so
    N(A) = O(1) stays finite at every d.
    """
    a = complex(_finite(label, "coherent label"))
    return _lift(*_log_gram(a, a, params), "coherent_normalization_closed", a, f"d = {params.d}").real


def coherent_state_closed(label, params: SystemParams) -> FiniteState:
    """Normalized displaced-Gaussian state from the theta closed form."""
    t = coherent_unnormalized(complex(label), params)
    return FiniteState(t / np.linalg.norm(t), normalize=False)


def coherent_overlap_direct(label1, label2, params: SystemParams) -> complex:
    """Componentwise inner product of the two normalized states (oracle path)."""
    s1 = coherent_state_closed(label1, params)
    s2 = coherent_state_closed(label2, params)
    return s1.inner(s2)


def coherent_overlap(label1, label2, params: SystemParams) -> complex:
    """Overlap <<A1|A2>> from the closed theta form of :func:`_log_gram`, over (N(A1) N(A2))**1/2.

    Validated against :func:`coherent_overlap_direct`.
    """
    a1, a2 = complex(label1), complex(label2)
    norms = coherent_normalization(a1, params) * coherent_normalization(a2, params)  # checks both labels
    s, v = _log_gram(a1, a2, params)
    return _lift(s - 0.5 * math.log(norms), v, "coherent_overlap", a2, f"d = {params.d}")


def coherent_from_number(label, params: SystemParams, n_max: int) -> FiniteState:
    """Partial number-basis expansion of a displaced-Gaussian state.

    |A>> = exp(-|A|^2/4) sum_N (A/sqrt(2))^N / sqrt(N!)
           [Nn(N)/Nc(A)]^(1/2) |N>>,

    truncated at N = n_max; converges to coherent_state_closed(A) as n_max
    grows.  The coefficient follows from the Hermite generating function
    with the Gaussian convention exp(-x^2/2 + A x - Re(A) A / 2), in which
    the oscillator label is A/sqrt(2).  The sqrt(Nn(N)) |N>> terms are
    unnormalized Hermite lattice sums, summed as the one lattice sum of
    sum_N c_N phi_N (one pass of the Hermite recurrence per batch of
    shells), so indices whose projection vanishes identically contribute
    nothing.  Requires lam = 1 like the number states.
    """
    _require_unit_scale(params, "number-basis expansions")
    n_max = _integer(n_max, "n_max", 0)
    a = complex(label)
    alpha = a / math.sqrt(2.0)
    nc = coherent_normalization(a, params)
    # alpha^N / sqrt(N!) in log form to stay finite for large n_max; at alpha = 0 only N = 0 is left
    coeffs = [cmath.exp(n * cmath.log(alpha) - 0.5 * math.lgamma(n + 1)) for n in range(n_max + 1)] if alpha else [1]
    acc = zak_sums(lambda x: sum(c * phi for c, phi in zip(coeffs, _hermite_functions(x))), params)
    acc *= math.exp(-0.25 * abs(a) ** 2) / math.sqrt(nc)
    return FiniteState(acc, normalize=False)


# ---------------------------------------------------------------------------
# sector families and inversion of the transform

_INVERSE_TOL = 1e-6  # the largest gap between inverse_zak's trapezoid sums on the grid and on its even points


class SectorFamily:
    """States of one wavefunction over the sigma1 grid k / N, k = 0 .. N - 1 (N even), at fixed sigma2.

    ``amplitudes`` holds the unnormalized components, one row per sigma1.
    ``norms``, their squared norms, and ``states``, one normalized
    :class:`FiniteState` per sigma1 (built on first access), derive from them.
    """

    def __init__(self, params: SystemParams, sigma1: np.ndarray, sigma2: float, amplitudes: np.ndarray):
        sigma1, n = np.asarray(sigma1, dtype=float), np.size(sigma1)
        if n % 2 or np.max(np.abs(sigma1 - np.arange(n) / n), initial=0.0) > 1e-12:
            raise ValueError("sigma1 must be the grid k / N, k = 0 .. N - 1, for an even N")
        if np.shape(amplitudes) != (n, params.d):
            raise ValueError(f"amplitudes must have shape (N, d) = {(n, params.d)}, got {np.shape(amplitudes)}")
        self.params, self.sigma1, self.sigma2, self.amplitudes = params, sigma1, sigma2, amplitudes
        self.norms = np.sum(np.abs(amplitudes) ** 2, axis=1)

    @functools.cached_property
    def states(self) -> list:
        return [FiniteState(row, normalize=False) for row in self.amplitudes / np.sqrt(self.norms)[:, None]]

    def component(self, m: int) -> np.ndarray:
        """Unnormalized component m across the sigma1 grid, for any integer m.

        Components extend quasi-periodically beyond [0, d):
        t_{m+d}(sigma1) = e^{2 pi i sigma1} t_m(sigma1).
        """
        q, r = divmod(_integer(m, "label m"), self.params.d)
        return self.amplitudes[:, r] * np.exp(2j * np.pi * self.sigma1 * q)

    @functools.cached_property
    def _trapezoid_tables(self) -> tuple:
        """ifft of the amplitudes over the grid and its even points, computed once and read-only."""
        full, coarse = np.fft.ifft(self.amplitudes, axis=0), np.fft.ifft(self.amplitudes[::2], axis=0)
        full.flags.writeable = coarse.flags.writeable = False
        return full, coarse


def sector_family(psi, params: SystemParams, sigma2: float = 0.0, n_sigma1: int = 64) -> SectorFamily:
    """Build the family over sigma1 = k / n_sigma1, k = 0 .. n_sigma1 - 1."""
    if _integer(n_sigma1, "n_sigma1", 4) % 2:
        raise ValueError(f"n_sigma1 must be an even integer >= 4, got {n_sigma1}")
    grid = np.arange(n_sigma1) / n_sigma1
    sigma2 = ZakSector(sigma2=sigma2).sigma2
    t, _ = _lattice_sums(psi, params, grid, sigma2)
    return SectorFamily(params, grid, sigma2, t)


def inverse_zak(family: SectorFamily, m: int, w: int) -> complex:
    """Recover psi at x = sqrt(2 pi / d) lam (m + sigma2 + d w) from a family.

    Integrates N(sigma1)^(1/2) psi_m(sigma1) e^{2 pi i sigma1 w} over one
    period of sigma1 with the periodic trapezoid rule on the family grid.
    Component m is component m mod d times e^{2 pi i sigma1 q}, q = m // d;
    on the grid k / N the rule is an inverse DFT, read at row (q + w) mod N
    of the family's table.  The error estimate compares against the
    half-resolution grid; a value above _INVERSE_TOL = 1e-6 raises (grid too coarse).
    """
    q, r = divmod(_integer(m, "label m"), family.params.d)
    row, (full, coarse) = q + _integer(w, "winding w"), family._trapezoid_tables
    full, coarse = complex(full[row % len(full), r]), complex(coarse[row % len(coarse), r])
    if abs(full - coarse) > _INVERSE_TOL:
        raise RuntimeError(
            f"sigma1 grid too coarse: quadrature error estimate {abs(full - coarse):.2e} > {_INVERSE_TOL}"
        )
    return full


def finite_fourier(state: FiniteState) -> FiniteState:
    """Apply the Fourier matrix to a state, as sqrt(d) ifft: O(d log d), no d x d matrix."""
    return FiniteState(math.sqrt(state.d) * np.fft.ifft(state.components), normalize=False)
