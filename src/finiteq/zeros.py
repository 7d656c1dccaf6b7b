"""Zeros of the cell-analytic representation: counting, location, and use.

The representation of any state has exactly d zeros per fundamental cell
(multiplicity counted) and their sum is pinned to a lattice:

    sum_i z_i = sqrt(pi/2) d**1.5 (lam + i/lam) + sqrt(2 pi d) (M lam + i N / lam)

for integers M, N.  Counting uses the argument principle with continuous
phase tracking along rectangle boundaries.  Location takes the zeros as the
eigenvalues of companion matrices: f is a Laurent series in w = exp(-2icz),
the cell maps onto an annulus in w, and each horizontal band of the cell is
covered by a polynomial of degree O(sqrt(d)), all of them cut from one window
of the series (_band_terms).  The count d and the sum
constraint certify every located set.  The sum constraint also classifies
sets of coherent-state labels and gates the reconstruction of a state from
its zeros.  The reconstruction rests on orthogonality: f(z_j) = 0 says the
state is orthogonal to the coherent state at conj(z_j), and d zeros obeying
the sum constraint leave exactly one direction free, which is the state.
Both uses of label sets, the Gram rank and the reconstruction, take their rows
as the folds F of the theta series by n mod d, before the inverse DFT: the
theta values are d ifft(F) = F W, W_km = e^{2 pi i k m / d}, and W / sqrt(d) is
unitary.  So the row-normalised values are the row-normalised folds times
W / sqrt(d), with the singular values of the folds, and F W a = 0 exactly when
F y = 0 for y = W a, where a = W^H y / d is one FFT of y.  The reconstruction
takes y, and the proof of its gap rule, from one bordered inverse, which also
proves the classifier's Gram rank of the same labels; one record of the last
label set holds the merged labels, y and the norm of that inverse for both, and
no d x d array (_LabelSet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import FiniteState
from .theta import _finite, _integers, _positive
from .zak import _THETA_CUT, SystemParams, _derivative_factor, _fold, _live_terms, _theta_window
from .analytic import AnalyticState

__all__ = [
    "ZeroSet",
    "CompletenessResult",
    "winding_number",
    "count_zeros",
    "find_zeros",
    "zero_sum_residual",
    "sum_constraint_fit",
    "classify_completeness",
    "coherent_gram_rank",
    "reconstruct_from_zeros",
]

_MAX_PASSES = 48
_MAX_BOUNDARY_POINTS = 400_000
_JITTER_ATTEMPTS = 24
_JITTER_FRAC = 1e-3
# largest lattice residual of a zero sum in find_zeros, classify_completeness and reconstruct_from_zeros
LATTICE_TOL = 1e-6
_MERGE_DIAM = 1e-10  # labels closer than this are one label in classify_completeness and reconstruct_from_zeros
_RANK_TOL = 1e-8  # singular values above this fraction of the largest count in coherent_gram_rank
_PER_EDGE = 16  # samples per edge of winding_number's first contour without a spacing
_RNG_SEED = 0x5EED
_EPS = float(np.finfo(float).eps)


class _BoundaryZero(RuntimeError):
    """A zero on or next to the contour: a sample at a zero, or a winding that cannot be tracked."""


@dataclass
class ZeroSet:
    """Zeros of one state inside the half-open cell, with the lattice fit."""

    positions: np.ndarray
    multiplicities: np.ndarray
    params: SystemParams
    M: int
    N: int
    residual: float

    @property
    def total(self) -> int:
        return int(np.sum(self.multiplicities))

    def weighted_sum(self) -> complex:
        return complex(np.sum(self.positions * self.multiplicities))


@dataclass
class CompletenessResult:
    verdict: str  # 'undercomplete' | 'complete' | 'overcomplete-at-least-complete'
    count: int
    residual: float | None
    M: int | None
    N: int | None
    reduced: bool
    gram_rank: int | None = None


def _boundary_points(ll: complex, ur: complex, spacing=None) -> np.ndarray:
    """Counterclockwise closed polyline around the rectangle [ll, ur].

    With `spacing` given, each edge gets enough points to keep samples at
    most that far apart (at least 8 per edge); otherwise _PER_EDGE.
    """
    corners = [ll, complex(ur.real, ll.imag), ur, complex(ll.real, ur.imag), ll]
    edges = []
    for a, b in zip(corners, corners[1:]):
        n = _PER_EDGE if spacing is None else max(8, math.ceil(abs(b - a) / spacing))
        edges.append(a + np.linspace(0.0, 1.0, n, endpoint=False) * (b - a))
    return np.concatenate(edges + [[ll]])


_MAX_LOG_RATIO = math.log(2.0)


def winding_number(f, lower_left: complex, upper_right: complex, spacing: float | None = None) -> int:
    """Winding of f around 0 along the rectangle boundary, by phase tracking.

    A segment is bisected until its wrapped phase step stays below pi/2 AND
    its modulus ratio stays below 2.  The modulus trigger matters: a zero
    lying close to the contour spins the phase by nearly 2 pi between two
    samples, which wraps to almost nothing and would evade a phase-only
    test, but it cannot avoid pulling |f| down sharply on the way.

    Callers must choose `spacing` so that the smooth exponential factors of
    f advance the phase well under pi per initial step; a single simple zero
    near a segment then adds under pi more, keeping every true step out of
    the aliasing window around 2 pi.  Without it, _PER_EDGE = 16 per edge.

    `f` must accept an ndarray of complex points.  Raises _BoundaryZero when
    a sample modulus vanishes exactly or dips below 1e-13 of its neighbors;
    |f| ranges over many orders of magnitude across one cell, so the dip
    test is relative to the local level rather than any global scale.
    """
    ll, ur = _finite([lower_left, upper_right], "rectangle corner").tolist()
    if not (ur.real > ll.real and ur.imag > ll.imag):
        raise ValueError("degenerate rectangle")
    pts = _boundary_points(ll, ur, spacing if spacing is None else _positive(spacing, "spacing"))
    vals = _finite(f(pts), "f")
    total_pts = pts.size
    for _ in range(_MAX_PASSES):
        mags = np.abs(vals)
        if np.any(mags == 0.0):
            raise _BoundaryZero
        neighbor = np.maximum(np.roll(mags, 1), np.roll(mags, -1))
        if np.any(mags <= 1e-13 * neighbor):
            raise _BoundaryZero
        ratio = vals[1:] / vals[:-1]
        dphi = np.angle(ratio)
        bad = (np.abs(dphi) >= 0.5 * np.pi) | (np.abs(np.log(np.abs(ratio))) >= _MAX_LOG_RATIO)
        if not np.any(bad):
            w = np.sum(dphi) / (2 * np.pi)
            wi = int(round(w))
            if abs(w - wi) > 0.25:
                raise _BoundaryZero(f"winding number not integral: {w}")
            return wi
        mids = 0.5 * (pts[:-1][bad] + pts[1:][bad])
        total_pts += mids.size
        if total_pts > _MAX_BOUNDARY_POINTS:
            break
        mvals = _finite(f(mids), "f")
        idx = np.flatnonzero(bad)
        pts = np.insert(pts, idx + 1, mids)
        vals = np.insert(vals, idx + 1, mvals)
    raise _BoundaryZero(
        "argument jump above pi/2 persisted after maximum boundary refinement; "
        "a zero may lie on or vanishingly close to the contour"
    )


def count_zeros(state: AnalyticState, lower_left: complex, upper_right: complex) -> int:
    """Number of zeros (with multiplicity) inside a rectangle, via the winding of exp(-Im(z)^2 / 2) f(z).

    The positive weight keeps the phase of f, and the weighted f stays finite at every d, where f overflows near
    the top of the cell from d of about 226.  It winds in cell units, z = W Re u + i H Im u, where its phase turns
    about |Im u| W H per unit of Re u and |Re u| W H per unit of Im u: at spacing 1/(6d r), r the largest |Re u| or
    |Im u| of the corners and at least 1, a step turns at most W H / (6d) = pi/3, and each side of the cell
    anchored at 0 gets 6d samples at any lam.  A contour through a zero is shifted.
    """
    p = state.params
    width, height = p.cell_width, p.cell_height
    lower, upper = (complex(z.real / width, z.imag / height) for z in map(complex, (lower_left, upper_right)))
    size, shift = max(upper.real - lower.real, upper.imag - lower.imag), 0
    reach = max(1.0, abs(lower.real), abs(lower.imag), abs(upper.real), abs(upper.imag))
    rng = np.random.default_rng(_RNG_SEED)
    for attempt in range(_JITTER_ATTEMPTS):
        try:
            return winding_number(lambda u: state._weighted(width * u.real + 1j * height * u.imag),
                                  lower + shift, upper + shift, spacing=1 / (6 * p.d * reach))
        except _BoundaryZero:
            shift = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * _JITTER_FRAC * size
    raise RuntimeError("zeros persist on the rectangle boundary after jitter attempts")


def _band_terms(state: AnalyticState, y0: np.ndarray, y1: np.ndarray) -> list:
    """The terms of f that matter in each band y0[i] <= Im(z) <= y1[i], all cut from one window.

    Swapping the two sums of the theta form makes f a Laurent series in
    w = exp(-2icz), c = sqrt(pi/2d)/lam, with G = d ifft(f_m):

        f(z) = pi**-1/4 sum_k exp(-pi k^2 / (d lam^2)) G_{k mod d} w^k.

    One window of it (:func:`finiteq.zak._theta_window`) at the bands' mid
    heights, with the largest half-span, holds every term whose weight is
    within e^-41 of the largest somewhere in each band.  Entries of G at the
    rounding level of the FFT stand for exact zeros (of parity or momentum
    states) and are set to zero, and each band drops its end terms below
    e^-41 of its largest term at both edges: either kind, left as a leading
    term, would add spurious roots far outside the band and spoil those
    inside it.  Returns one (k, a) per band, rescaled to its mid height ym
    so that nothing overflows at any d: f(z) = exp(ym^2/2) sum_k a_k (w exp(-2 c ym))^k.
    """
    p = state.params
    c = p._window.c
    index, base, weight = _theta_window(p, 0.5 * (y0 + y1), 0.5 * np.max(y1 - y0))
    G = state._spectrum
    G = np.where(np.abs(G) <= p.d * _EPS * np.max(np.abs(G)), 0.0, G)
    a = np.pi ** -0.25 * np.take(G, index, mode="wrap") * weight
    k = base + index
    tilt = (c * (y1 - y0))[:, None] * k  # log |v|^k at y1, and minus it at y0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = np.log(np.abs(a))
        top, bottom = log_a + tilt, log_a - tilt
        kept = (a != 0) & ((top >= top.max(axis=1, keepdims=True) - _THETA_CUT)
                           | (bottom >= bottom.max(axis=1, keepdims=True) - _THETA_CUT))
    terms = []
    for k_band, a_band, kept_band in zip(k, a, kept):
        at = np.flatnonzero(kept_band)
        ends = slice(at[0], at[-1] + 1) if at.size else slice(0)
        terms.append((k_band[ends], a_band[ends]))
    return terms


def _band_roots(a: np.ndarray, c: float, y0: float, y1: float) -> np.ndarray:
    """Zeros of f with y0 <= Im(z) <= y1: companion eigenvalues of the band's terms a (:func:`_band_terms`)."""
    if a.size < 2:
        return np.empty(0, dtype=complex)
    # rescale v so that the roots' geometric mean modulus is 1, which balances
    # the end coefficients of a sparse series
    j = np.arange(a.size)
    log_rho = math.log(abs(a[0] / a[-1])) / (a.size - 1)
    v = np.roots((a * np.exp(log_rho * (j - j[-1] / 2)))[::-1])
    z = (-np.angle(v) + 1j * (np.log(np.abs(v)) + log_rho)) / (2 * c) + 0.5j * (y0 + y1)
    return z[(z.imag >= y0) & (z.imag <= y1)]


def _cut(heights: np.ndarray, lo: float, hi: float) -> float:
    """Middle of the widest gap that `heights` leave in [lo, hi]."""
    inside = heights[(heights > lo) & (heights < hi)]
    pts = np.sort(np.concatenate(([lo, hi], inside)))
    i = int(np.argmax(np.diff(pts)))
    return float(0.5 * (pts[i] + pts[i + 1]))


def _wrap(dz, width: float, height: float):
    """Lattice translate of dz nearest to 0."""
    return ((dz.real + 0.5 * width) % width - 0.5 * width
            + 1j * ((dz.imag + 0.5 * height) % height - 0.5 * height))


def _into_cell(z, p: SystemParams) -> np.ndarray:
    """Lattice translates of z into the half-open cell, snapping float noise at its far edges."""
    z = np.asarray(z, dtype=complex)
    width, height = p.cell_width, p.cell_height
    xr = (z.real - p.a) % width
    yr = (z.imag - p.b) % height
    out = np.empty(z.shape, dtype=complex)
    # times 0 where float noise left a point just below the far edge
    out.real = p.a + xr * (width - xr >= 1e-9 * width)
    out.imag = p.b + yr * (height - yr >= 1e-9 * height)
    return out


def _close_pairs(z: np.ndarray, p: SystemParams):
    """Pairs i < j of points whose nearest lattice translates lie within _MERGE_DIAM, some maybe twice.

    Returns (i, j, offset), offset = _wrap(z[j] - z[i]).  Candidates come from
    the real parts reduced mod the cell width and sorted, followed by a copy
    one width up, so that pairs across that edge are adjacent too.  A pair
    within the diameter has its real parts within reach of each other, so the
    points m = 1, 2, ... places apart are visited only while some of them are
    still within reach, and only those pairs get the full distance (none if
    all are exact repeats, at offset 0).  When no two neighbours are within
    reach, as for simple label sets, that is one pass over the n gaps.  When
    three points in a row are each within reach of the next, the imaginary
    parts mod the cell height are swept too and the axis with fewer
    neighbours within reach is walked: a column is as fast as a row, and
    only points crowding both axes, such as an L, stay quadratic.
    """
    n, diam, sweeps = z.size, _MERGE_DIAM, []
    for part, origin, period in ((np.real, p.a, p.cell_width), (np.imag, p.b, p.cell_height)):
        u = part(z) - origin
        x = u % period
        order = np.argsort(x, kind="stable")
        ext = x[order]
        ext = np.concatenate((ext, ext + period))
        # widened by the rounding of the reduction, so that no pair within diam is missed
        limit = ext[:n] + diam + 4 * _EPS * (period + np.abs(u).max(initial=0.0))
        near = (ext[1:n + 1] <= limit).nonzero()[0]
        sweeps.append((order, ext, limit, near))
        if near.size < 2 or not (np.diff(near) == 1).any():  # no three points in a row, each within reach of the next
            break
    order, ext, limit, near = min(sweeps, key=lambda sweep: sweep[3].size)  # the first on a tie
    # sorted point k meets k + m while ext[k + m] is within its reach, at most the n - 1 others once each
    a, b = [], []
    for m in range(1, n):
        if not near.size:
            break
        a.append(near)
        b.append(near + m)
        near = near[ext[b[-1] + 1] <= limit[near]]
    if not a:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0, dtype=complex)
    a, b = order[np.concatenate(a)], np.take(order, np.concatenate(b), mode="wrap")
    # a reach beyond half the period can list a pair twice; in _merge the repeat changes nothing
    i, j = np.minimum(a, b), np.maximum(a, b)
    offset = z[j] - z[i]
    if not offset.any():
        return i, j, offset
    offset = _wrap(offset, p.cell_width, p.cell_height)
    keep = np.abs(offset) < diam
    return i[keep], j[keep], offset[keep]


def _merge(points, p: SystemParams, mults=None):
    """Labels linked by steps shorter than 1e-10 (_MERGE_DIAM), across the cell's periods, are one label.

    A group is a connected component of the close pairs (:func:`_close_pairs`),
    so it does not depend on the order of the points, and a chain a-b-c is one
    group even when a and c are farther apart than the diameter.  Point k
    stands for mults[k] equal points (one without `mults`).  A group's
    multiplicity is the sum of its members' weights, and it sits at its
    least-index member plus their weighted mean offset to that member's
    nearest translates, reduced into the cell.  Groups come out in the order
    of their least indices.  Returns (positions, multiplicities).

    Cost: a sort and one pass over the gaps find the close pairs, with no
    n x n distances.  One np.minimum.at groups exact repeats, which are cliques;
    otherwise least indices spread both ways along the pairs, with one
    pointer jump, until no pair straddles two groups.
    """
    z = np.asarray(points, dtype=complex).ravel()
    w = np.ones(z.size, dtype=np.intp) if mults is None else np.array(mults, dtype=np.intp).ravel()
    i, j, offset = _close_pairs(z, p)
    if not i.size:
        return _into_cell(z, p), w
    root = np.arange(z.size)
    np.minimum.at(root, j, i)
    keep = root == np.arange(z.size)
    if not offset.any():  # exact repeats: cliques, which that one pass groups, with no offsets to average
        return _into_cell(z[keep], p), np.bincount(root, w, z.size)[keep].astype(np.intp)
    while (straddle := root[i] != root[j]).any():
        a, b = i[straddle], j[straddle]
        np.minimum.at(root, a, root[b])
        np.minimum.at(root, b, root[a])
        root = root[root]
    keep = root == np.arange(z.size)
    total = np.bincount(root, w, z.size)[keep]
    # offsets to the least member's nearest translates, summed by increasing index
    off = _wrap(z - z[root], p.cell_width, p.cell_height) * w
    positions = z[keep] + (np.bincount(root, off.real, z.size) + 1j * np.bincount(root, off.imag, z.size))[keep] / total
    return _into_cell(positions, p), total.astype(np.intp)


def find_zeros(state: AnalyticState) -> ZeroSet:
    """Locate all d zeros inside the half-open fundamental cell.

    With w = exp(-2icz), c = sqrt(pi/2d)/lam, the cell maps one to one onto
    an annulus in w and f is a Laurent series in w there, so its zeros are
    polynomial roots.  The cell height is split into ceil(sqrt(d)/(2 lam))
    bands, each padded by 2% of the height.  A band keeps only the terms that
    matter across it (:func:`_band_terms`), which holds the degree to
    O(lam sqrt(d)), and its roots are the eigenvalues of the companion
    matrix.  Each band keeps the roots between two cut heights, set
    in the widest gap between roots near its edges; the bottom and top cuts
    lie one period apart, so a zero on a cell edge is counted once.  Each
    kept root is one simple zero.  Positions are reduced into the canonical
    half-open cell by lattice translation and sorted by (Im, Re).

    The result is certified: RuntimeError is raised when the roots are not d
    or their sum misses the lattice rule by more than LATTICE_TOL = 1e-6.
    The zero vector, whose f vanishes everywhere, raises ValueError.

    A state whose exact representation has a zero of multiplicity m acquires,
    through float rounding of its amplitudes, a cluster of m simple zeros
    about eps^(1/m) apart, and they come back as m simple zeros: no fixed
    diameter tells such a cluster from m close simple zeros.
    """
    p = state.params
    d, width, height = p.d, p.cell_width, p.cell_height
    if not state.state.components.any():
        raise ValueError("the zero vector has no zero set: its f vanishes everywhere")
    # at this count the scaled terms of every band span the same range,
    # about e^-67, whatever lam is
    n_bands = math.ceil(math.sqrt(d) / (2 * p.lam))
    margin = 0.02 * height
    edges = p.b + height * np.arange(n_bands + 1) / n_bands
    lows, highs = edges[:-1] - margin, edges[1:] + margin
    c = p._window.c
    bands = [_band_roots(a, c, lo, hi) for (_, a), lo, hi in zip(_band_terms(state, lows, highs), lows, highs)]
    ys = [z.imag for z in bands]
    cuts = [_cut(np.concatenate((ys[0], ys[-1] - height)), p.b - margin, p.b + margin)]
    cuts += [_cut(np.concatenate(ys[j - 1:j + 1]), e - margin, e + margin)
             for j, e in enumerate(edges[1:-1], start=1)]
    cuts.append(cuts[0] + height)
    roots = np.concatenate([z[(z.imag >= lo) & (z.imag < hi)]
                            for z, lo, hi in zip(bands, cuts[:-1], cuts[1:])])

    positions = _into_cell(roots, p)

    # quantize sort keys so zeros sharing a row/column order stably
    quantum = 1e-8 * max(width, height)
    key_re = np.round(np.real(positions) / quantum)
    key_im = np.round(np.imag(positions) / quantum)
    order = np.lexsort((key_re, key_im))
    positions = positions[order]
    if positions.size != d:
        raise RuntimeError(f"found {positions.size} zeros in the cell, expected {d}")
    residual, M, N = sum_constraint_fit(complex(np.sum(positions)), p)
    if residual > LATTICE_TOL:
        raise RuntimeError(
            f"zero sum misses the lattice rule by {residual:.3e} > {LATTICE_TOL:.0e}"
        )
    return ZeroSet(positions, np.ones(d, dtype=np.intp), p, M, N, residual)


def sum_constraint_fit(total: complex, params: SystemParams):
    """Best lattice fit of a zero sum; returns (residual, M, N).

    Minimizes |total - sqrt(pi/2) d**1.5 (lam + i/lam) - sqrt(2 pi d)(M lam + i N/lam)|
    over all integers M, N, so that zeros reduced into a cell anchored far
    from the origin fit as well as those of the cell at the origin.
    """
    d, lam = params.d, params.lam
    total = complex(total)
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise ValueError(f"total must be finite, got {total}")
    base = math.sqrt(np.pi / 2) * d**1.5 * complex(lam, 1.0 / lam)
    lattice = math.sqrt(2 * np.pi * d)
    rem = total - base
    M = round(rem.real / (lattice * lam))
    N = round(rem.imag * lam / lattice)
    residual = abs(rem - lattice * complex(M * lam, N / lam))
    return float(residual), M, N


def zero_sum_residual(zs: ZeroSet):
    """(residual, M, N) of the multiplicity-weighted zero sum of a ZeroSet."""
    return sum_constraint_fit(zs.weighted_sum(), zs.params)


# ---------------------------------------------------------------------------
# completeness of coherent-state label sets


def _labels(points) -> np.ndarray:
    """Labels or zeros as a flat complex array; ValueError, before any arithmetic, when there are
    none or one is not finite."""
    pts = _finite(points, "points").ravel()
    if pts.size == 0:
        raise ValueError("need at least one point")
    return pts


def _unit_rows(z, params: SystemParams, mults=None) -> np.ndarray:
    """The folds F of weighted_thetas = d ifft(F) at z, each row scaled to unit norm: the matrix of the label-set path.

    With ``mults``, point k has the rows of orders 0 .. mults[k] - 1, stacked order by
    order: those of order 0 of all points, then of order 1 of the points of multiplicity
    above 1, and so on.  All orders come from the one window pass of order 0, its terms
    times (-2icn)^k, which is what :func:`finiteq.zak._live_terms` of order k computes.
    The module docstring says why the folds stand for the rows.
    """
    index, base, terms = _live_terms(z, params, 0)
    rows = [_fold(index, terms, params)]
    for k in range(1, 1 if mults is None else mults.max()):
        higher = mults > k
        factor = _derivative_factor(params._window.c, base[higher] + index[higher], k)
        rows.append(_fold(index[higher], terms[higher] * factor, params))
    rows = rows[0] if len(rows) == 1 else np.concatenate(rows)
    del index, base, terms  # the live terms go before the norms' row-sized temporary comes
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def coherent_gram_rank(points, params: SystemParams) -> int:
    """Rank of the Gram matrix of the coherent states at the given labels.

    Computed from the singular values of the amplitude matrix (columns are
    the normalized states); values above _RANK_TOL = 1e-8 of the largest
    count toward the rank.  The rows are the weighted thetas at the labels:
    a coherent state is one of them times a prefactor, whose modulus the row
    normalisation removes and whose phase leaves the singular values unchanged.
    The singular values are read from the folded rows (:func:`_unit_rows`),
    which have those of the unit weighted thetas (module docstring).
    ValueError is raised when there is no label or one is not finite.
    The cross-check of classify_completeness returns this rank of its merged
    labels, proved from an inverse where it can be and taken from the
    singular values, as here, elsewhere (:meth:`_LabelSet.gram_rank`).
    """
    return _rank(_unit_rows(_labels(points), params))


def _rank(rows: np.ndarray) -> int:
    """The number of singular values of the rows above _RANK_TOL of the largest."""
    sv = np.linalg.svd(rows, compute_uv=False)
    return int((sv > _RANK_TOL * sv[0]).sum())


def _norm(a: np.ndarray) -> float:
    """||a||_F, without a warning: inf where it overflows, NaN where a holds NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(a))


def _proves(norm: float, d: int, tol: float) -> bool:
    """16 tol sqrt(d) norm < 1 for norm = ||inverse||_F: the singular value of d unit rows that 1 / ||inverse||_F
    bounds from below is then above 16 tol sqrt(d), which is at least 16 tol times their largest.  An inf or NaN
    norm fails."""
    return 16 * tol * math.sqrt(d) * norm < 1


class _LabelSet:
    """One set of labels or zeros as classify_completeness and reconstruct_from_zeros read it.

    It holds the labels merged by :func:`_merge`, their multiplicities, the lattice
    fit of their weighted sum, and one slot that :meth:`null` writes once: y and
    ||B^-1||_F for the rebuild's bordered matrix B = [[F, b], [b^H, 0]], F the unit
    rows of the merged labels (:func:`_unit_rows`) and b the unit border of
    SystemParams._border.  So it holds O(d) numbers, and no d x d array.  The record
    of the last set given is kept (:func:`_label_set`), keyed by the exact bytes of the
    labels and of the multiplicities and by the params, so a classification followed by
    the rebuild of the same labels merges, fits, folds and inverts once.
    """

    def __init__(self, key, params: SystemParams, points, mults):
        self.key, self.params = key, params
        self.positions, self.mults = _merge(points, params, mults)
        self.residual, self.M, self.N = sum_constraint_fit(complex((self.positions * self.mults).sum()), params)
        self._null = None

    def null(self, rows: np.ndarray | None = None):
        """(y, ||B^-1||_F), y = B^-1[:d, d], or B's LinAlgError without the traceback whose frames would hold B:
        computed by the first call, from `rows` (F) when given, and returned by every call.  Threads that race
        to the first call write equal values."""
        if self._null is None:
            d, border = self.params.d, self.params._border
            bordered = np.zeros((d + 1, d + 1), dtype=complex)
            bordered[:d, :d] = _unit_rows(self.positions, self.params, self.mults) if rows is None else rows
            bordered[:d, d], bordered[d, :d] = border, border.conj()
            try:
                inverse = np.linalg.inv(bordered)
                self._null = inverse[:d, d].copy(), _norm(inverse)
            except np.linalg.LinAlgError as exc:
                self._null = exc.with_traceback(None)
        return self._null

    def gram_rank(self, undercomplete: bool) -> int:
        """coherent_gram_rank of the merged labels, proved from an inverse where one settles it.

        The k merged labels have the first k unit rows F, so 1 <= sigma_1(F) <= sqrt(d).
        For k = d labels on the lattice rule the rank is d - 1 when B^-1 gives
        16e-8 sqrt(d) ||B^-1||_F < 1, since sigma_{d-1} >= 1 / ||B^-1||_F (the rebuild's
        bound), and its column y = B^-1[:d, d] has ||F y|| <= 1e-8 ||y|| / 2, since
        sigma_d <= ||F y|| / ||y||.  For k = d labels off the rule, or k = d - 1 (one
        double label), the rank is k when 16e-8 sqrt(d) ||A^-1||_F < 1 for A = F, or F
        with the row b^H below it: sigma_k(F) >= sigma_d(A) by interlacing.  The factors
        16 and 2 leave room for the rounding of the inverse and of the singular values.
        Any other k, a failed inverse or a bound that fails takes the singular values, as
        coherent_gram_rank does.
        """
        d, k = self.params.d, self.positions.size
        # a set on the rule fills the slot its rebuild reads; one off it is never rebuilt and needs only order 0
        rows = _unit_rows(self.positions, self.params, self.mults if undercomplete else None)
        null = self.null(rows) if undercomplete else None
        rows = rows[:k]  # the rows of order 0
        if k == d and undercomplete:
            if isinstance(null, tuple) and _proves(null[1], d, _RANK_TOL):
                if _norm(rows @ null[0]) <= 0.5 * _RANK_TOL * _norm(null[0]):
                    return d - 1
        elif k >= d - 1:
            square = rows if k == d else np.vstack((rows, self.params._border.conj()))
            try:
                if _proves(_norm(np.linalg.inv(square)), d, _RANK_TOL):
                    return k
            except np.linalg.LinAlgError:
                pass
        return _rank(rows)


_last = None  # the _LabelSet of the last labels given to classify_completeness or reconstruct_from_zeros


def _label_set(points, params: SystemParams, mults) -> _LabelSet:
    """The record of these labels, params and multiplicities: the last one when it matches, else a new one."""
    global _last
    key = (params, np.asarray(points, dtype=complex).tobytes(), np.asarray(mults, dtype=np.intp).tobytes())
    record = _last
    if record is None or record.key != key:
        record = _last = _LabelSet(key, params, points, mults)
    return record


def classify_completeness(points, params: SystemParams, cross_validate: bool = False) -> CompletenessResult:
    """Classify a set of coherent-state labels inside the cell.

    More than d labels are at least complete; fewer are undercomplete;
    exactly d labels are undercomplete precisely when their sum satisfies
    the lattice constraint to within LATTICE_TOL = 1e-6.  Labels linked by
    steps shorter than 1e-10, also across the cell's edges, are one label of
    higher multiplicity (:func:`_merge`), which leaves the count as it is.
    Labels outside the cell are translated back in (the physical ray is
    unchanged by quasi-periodicity) and flagged.  ValueError is raised when
    there is no label or one is not finite.

    With `cross_validate`, gram_rank is coherent_gram_rank of the merged
    labels (m equal rows add no rank).  It is proved from one inverse where
    that settles it (:meth:`_LabelSet.gram_rank`): for d labels on the lattice
    rule, the rebuild's bordered inverse, for d labels off it or d - 1 after
    the merge, the inverse of their unit rows; the singular values are taken
    only where the proof fails.  The merged labels and, for a set on the rule,
    the column y of the bordered inverse and the inverse's norm are kept for a
    reconstruct_from_zeros of the same labels, params and multiplicities (one
    each, which a call with no multiplicities means) that follows, which then
    reads them instead of computing them again (:class:`_LabelSet`); the rows
    and the inverse go when the call returns.
    """
    pts = _labels(points)
    reduced = bool(pts.real.min() < params.a or pts.imag.min() < params.b  # x - a rounds monotonically in x
                   or pts.real.max() - params.a >= params.cell_width or pts.imag.max() - params.b >= params.cell_height)
    count, d = pts.size, params.d
    if count != d:
        verdict = "overcomplete-at-least-complete" if count > d else "undercomplete"
        return CompletenessResult(verdict, count, None, None, None, reduced)
    record = _label_set(pts, params, np.ones(d, dtype=np.intp))
    undercomplete = record.residual <= LATTICE_TOL
    rank = record.gram_rank(undercomplete) if cross_validate else None
    return CompletenessResult("undercomplete" if undercomplete else "complete", count, record.residual,
                              record.M, record.N, reduced, rank)


# ---------------------------------------------------------------------------
# reconstruction of a state from its zeros


def reconstruct_from_zeros(zeros, params: SystemParams | None = None, multiplicities=None) -> FiniteState:
    """Rebuild the state whose representation vanishes at the given zeros.

    Accepts a ZeroSet, or an array of finite positions plus `params` (and
    optional multiplicities, one integer of at least 1 per position);
    other input raises ValueError, as do `params` or `multiplicities` given
    with a ZeroSet that they disagree with.  Zeros are merged as labels are in
    classify_completeness, and the multiplicity-weighted sum of the merged
    zeros must satisfy the lattice constraint to within LATTICE_TOL = 1e-6,
    otherwise no state exists and a ValueError is raised.

    Since exp(-y^2/2) f(z) = pi**-1/4 sum_m weighted_thetas(z)_m f_m, a zero
    z_j is one linear condition on the amplitudes: the state is orthogonal
    to the coherent state at conj(z_j).  A zero of multiplicity m gives the
    rows of derivative orders 0 .. m-1, all from one window pass over the
    zeros (:func:`_unit_rows`).  By the completeness theorem, d rows of zeros
    obeying the lattice constraint have rank d - 1, and the amplitudes are
    their null vector.  The rows are taken folded, F with weighted_thetas =
    F W, and F's null vector y gives the amplitudes a = W^H y / d, one FFT
    of y (module docstring).  For the unit border b of
    SystemParams._border, B = [[F, b], [b^H, 0]] and B [y; mu] = e_d give F y = 0
    unless b is orthogonal to the null vector of F^H: y is column d of B^-1.  y
    is off by about eps / gap, gap = sigma_{d-1} / sigma_1 of F: at most d eps
    (numpy's matrix_rank rule) the zeros do not fix one state in double
    precision and RuntimeError is raised, as for a failed inverse.  The rule's
    SVD runs only where B^-1 fails or cannot prove it: a unit x in the span of
    F's last two right singular vectors with b^H x = 0 has ||B [x; 0]|| = ||F x|| <=
    sigma_{d-1}, so sigma_{d-1} >= 1 / ||B^-1||_F, and sigma_1 <= ||F||_F =
    sqrt(d); 16 d**1.5 eps ||B^-1||_F < 1 leaves a factor 16 for the rounding of
    the inverse (cond(B) eps <= 1 / (16 d)) and of the singular values.  The
    result is normalized; the global phase is not fixed by the zeros.

    The merged zeros, y and ||B^-1||_F come from the record of the last label
    set (:class:`_LabelSet`), which computes them once: after
    classify_completeness of the same labels and params (and multiplicities of
    one each), or for a repeat, the rebuild merges, folds and inverts nothing
    again, and the state is the same bit for bit.  F is built anew only for the
    gap rule's SVD.  The record holds no d x d array.
    """
    if isinstance(zeros, ZeroSet):
        if params is not None and params != zeros.params:
            raise ValueError(f"params {params} disagree with those of the zero set, {zeros.params}")
        if multiplicities is not None and not np.array_equal(multiplicities, zeros.multiplicities):
            raise ValueError("multiplicities disagree with those of the zero set")
        params, positions, multiplicities = zeros.params, zeros.positions, zeros.multiplicities
    else:
        if params is None:
            raise ValueError("params required when zeros are given as an array")
        positions = _labels(zeros)
        if multiplicities is None:
            multiplicities = np.ones(positions.size, dtype=int)
        elif np.shape(multiplicities) != positions.shape:
            raise ValueError(f"{np.size(multiplicities)} multiplicities for {positions.size} positions")
    multiplicities = _integers(multiplicities, "multiplicities", 1)
    d = params.d
    if multiplicities.sum() != d:
        raise ValueError(f"multiplicities sum to {multiplicities.sum()}, expected d = {d}")
    record = _label_set(positions, params, multiplicities)
    if record.residual > LATTICE_TOL:
        raise ValueError(
            "no such state exists: the zero sum violates the lattice constraint "
            f"(residual {record.residual:.3e} > {LATTICE_TOL:.1e})"
        )
    if d == 1:
        return FiniteState(np.ones(1))  # one ray, and its single row vanishes
    null = record.null()
    if isinstance(null, np.linalg.LinAlgError):  # a ValueError, which the CLI would report as bad input
        _gap_rule(record)
        raise RuntimeError(f"the zeros' rows gave no null vector: {null}") from null
    y, norm = null
    if not _proves(norm, d, d * _EPS):
        _gap_rule(record)
    return FiniteState(np.fft.fft(y))


def _gap_rule(record: _LabelSet) -> None:
    """Refuse zeros whose unit rows' second-smallest singular value is at most d eps of the largest (matrix_rank's)."""
    rows = _unit_rows(record.positions, record.params, record.mults)
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv[-2] <= len(rows) * _EPS * sv[0]:
        raise RuntimeError("the zeros do not fix one state in double precision: second-smallest "
                           f"singular value {sv[-2] / sv[0]:.1e} of the largest, at most d eps")
