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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import FiniteState
from .theta import _finite, _integers, _positive
from .zak import _THETA_CUT, SystemParams, _theta_scales, _theta_window, weighted_thetas
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
_CLUSTER_DIAM = 1e-8
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
    """Number of zeros (with multiplicity) inside a rectangle, via the winding; errors of f are raised."""
    p = state.params
    spacing = min(p.cell_width, p.cell_height) / (6.0 * p.d)
    ll, ur = complex(lower_left), complex(upper_right)
    size = max(ur.real - ll.real, ur.imag - ll.imag)
    rng = np.random.default_rng(_RNG_SEED)
    for attempt in range(_JITTER_ATTEMPTS):
        try:
            return winding_number(state, ll, ur, spacing=spacing)
        except _BoundaryZero:
            shift = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * _JITTER_FRAC * size
            ll = complex(lower_left) + shift
            ur = complex(upper_right) + shift
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
    c = _theta_scales(p)[0]
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


def _close_pairs(z: np.ndarray, diam: float, p: SystemParams):
    """Pairs i < j of points whose nearest lattice translates lie within `diam`, some maybe twice.

    Returns (i, j, offset), offset = _wrap(z[j] - z[i]).  Candidates come from
    the real parts reduced mod the cell width and sorted, followed by a copy
    one width up, so that pairs across that edge are adjacent too.  A pair
    within `diam` has its real parts within reach of each other, so the
    points m = 1, 2, ... places apart are visited only while some of them are
    still within reach, and only those pairs get the full distance (none if
    all are exact repeats, at offset 0).  When no two neighbours are within
    reach, which is the case for simple label sets and for the roots of
    find_zeros, that is one pass over the n gaps.  When three points in a row
    are each within reach of the next, the imaginary parts mod the cell
    height are swept too and the axis with fewer neighbours within reach is
    walked: a column is as fast as a row, and only points crowding both axes,
    such as an L, stay quadratic.
    """
    n, sweeps = z.size, []
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
    if diam > 0 and not offset.any():
        return i, j, offset
    offset = _wrap(offset, p.cell_width, p.cell_height)
    keep = np.abs(offset) < diam
    return i[keep], j[keep], offset[keep]


def _merge(points, diam: float, p: SystemParams, mults=None):
    """Points closer than `diam` across the cell's periods, merged into one each.

    Point k stands for mults[k] equal points (one without `mults`): the
    result is that of the rule below on np.repeat(points, mults).  Points
    are taken in input order.  A point joins the nearest earlier anchor (the
    earliest of equally near ones) when that anchor lies within `diam` of
    one of its lattice translates, and otherwise becomes an anchor itself;
    so of a chain a-b-c with a, c farther apart than `diam`, b joins a and c
    anchors its own group.  A group's multiplicity is the sum of its
    members' weights, and it sits at its anchor plus their weighted mean
    offset to the anchor's nearest translates, reduced into the cell.
    Groups come out in the order their anchors were made.  Returns
    (positions, multiplicities).

    Cost: a sort of the n points and one pass over their gaps find the
    pairs within `diam` (:func:`_close_pairs`), with no n x n distances;
    with none, the points come back reduced into the cell at once.  Groups
    take one Python step per pair; exact repeats need no wrap, and groups
    of them alone no mean.  Pairs are rare at the default diameters: 1e-8
    in find_zeros, 1e-10 for the labels of classify_completeness and
    reconstruct_from_zeros.
    """
    z = np.asarray(points, dtype=complex).ravel()
    w = np.ones(z.size, dtype=np.intp) if mults is None else np.array(mults, dtype=np.intp).ravel()
    i, j, offset = _close_pairs(z, diam, p)
    if not i.size:
        return _into_cell(z, p), w
    # by later point, its earlier neighbours nearest first: the first that is an anchor wins
    by = np.lexsort((i, np.abs(offset), j))
    joined = {}
    for b, a, off in zip(j[by].tolist(), i[by].tolist(), offset[by].tolist()):
        if b not in joined and a not in joined:
            joined[b] = a, off
    members = np.array(list(joined))  # by increasing index, so each group's sums run in input order
    anchor, moved = (np.array(v) for v in zip(*joined.values()))
    moved *= w[members]
    np.add.at(w, anchor, w[members])
    keep = np.ones(z.size, dtype=bool)
    keep[members] = False
    if moved.any():  # exact repeats have no offset to add
        z = z + (np.bincount(anchor, moved.real, z.size) + 1j * np.bincount(anchor, moved.imag, z.size)) / w
    return _into_cell(z[keep], p), w[keep]


def find_zeros(state: AnalyticState, cluster_diam: float = _CLUSTER_DIAM) -> ZeroSet:
    """Locate all d zeros inside the half-open fundamental cell.

    With w = exp(-2icz), c = sqrt(pi/2d)/lam, the cell maps one to one onto
    an annulus in w and f is a Laurent series in w there, so its zeros are
    polynomial roots.  The cell height is split into ceil(sqrt(d)/(2 lam))
    bands, each padded by 2% of the height.  A band keeps only the terms that
    matter across it (:func:`_band_terms`), which holds the degree to
    O(lam sqrt(d)), and its roots are the eigenvalues of the companion
    matrix.  Each band keeps the roots between two cut heights, set
    in the widest gap between roots near its edges; the bottom and top cuts
    lie one period apart, so a zero on a cell edge is counted once.  Roots
    closer than `cluster_diam` form one zero at their mean, with their summed
    multiplicity.  Positions are reduced into the canonical half-open cell by
    lattice translation and sorted by (Im, Re).

    The result is certified: RuntimeError is raised when the multiplicities do
    not sum to d or the zero sum misses the lattice rule by more than LATTICE_TOL = 1e-6.

    A state whose exact representation has a multiple zero acquires, through
    float rounding of its amplitudes, a cluster of simple zeros separated by
    about sqrt(machine eps); the default `cluster_diam` resolves such a
    cluster into its simple members, while a larger value reports it as one
    multiple zero.  ValueError unless 0 < cluster_diam < half the shorter
    side of the cell, beyond which the nearest translate of a root is not unique.
    """
    p = state.params
    d, width, height = p.d, p.cell_width, p.cell_height
    _positive(cluster_diam, "cluster_diam", 0.5 * min(width, height))
    # at this count the scaled terms of every band span the same range,
    # about e^-67, whatever lam is
    n_bands = math.ceil(math.sqrt(d) / (2 * p.lam))
    margin = 0.02 * height
    edges = p.b + height * np.arange(n_bands + 1) / n_bands
    lows, highs = edges[:-1] - margin, edges[1:] + margin
    c = _theta_scales(p)[0]
    bands = [_band_roots(a, c, lo, hi) for (_, a), lo, hi in zip(_band_terms(state, lows, highs), lows, highs)]
    ys = [z.imag for z in bands]
    cuts = [_cut(np.concatenate((ys[0], ys[-1] - height)), p.b - margin, p.b + margin)]
    cuts += [_cut(np.concatenate(ys[j - 1:j + 1]), e - margin, e + margin)
             for j, e in enumerate(edges[1:-1], start=1)]
    cuts.append(cuts[0] + height)
    roots = np.concatenate([z[(z.imag >= lo) & (z.imag < hi)]
                            for z, lo, hi in zip(bands, cuts[:-1], cuts[1:])])

    positions, mults = _merge(roots, cluster_diam, p)

    # quantize sort keys so zeros sharing a row/column order stably
    quantum = 1e-8 * max(width, height)
    key_re = np.round(np.real(positions) / quantum)
    key_im = np.round(np.imag(positions) / quantum)
    order = np.lexsort((key_re, key_im))
    positions = positions[order]
    mults = mults[order]
    if int(np.sum(mults)) != d:
        raise RuntimeError(f"found {int(np.sum(mults))} zeros in the cell, expected {d}")
    residual, M, N = sum_constraint_fit(complex(np.sum(positions * mults)), p)
    if residual > LATTICE_TOL:
        raise RuntimeError(
            f"zero sum misses the lattice rule by {residual:.3e} > {LATTICE_TOL:.0e}"
        )
    return ZeroSet(positions, mults, p, M, N, residual)


def sum_constraint_fit(total: complex, params: SystemParams):
    """Best lattice fit of a zero sum; returns (residual, M, N).

    Minimizes |total - sqrt(pi/2) d**1.5 (lam + i/lam) - sqrt(2 pi d)(M lam + i N/lam)|
    over all integers M, N, so that zeros reduced into a cell anchored far
    from the origin fit as well as those of the cell at the origin.
    """
    d, lam = params.d, params.lam
    total = complex(_finite(total, "total"))
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


def _unit_rows(z, params: SystemParams, order=0) -> np.ndarray:
    """weighted_thetas(z, params, order), each row scaled to unit norm: the matrix of the label-set path."""
    rows = weighted_thetas(z, params, order)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def coherent_gram_rank(points, params: SystemParams) -> int:
    """Rank of the Gram matrix of the coherent states at the given labels.

    Computed from the singular values of the amplitude matrix (columns are
    the normalized states); values above _RANK_TOL = 1e-8 of the largest
    count toward the rank.  The rows are the weighted thetas at the labels:
    a coherent state is one of them times a prefactor, whose modulus the row
    normalisation removes and whose phase leaves the singular values unchanged.
    ValueError is raised when there is no label or one is not finite.
    """
    sv = np.linalg.svd(_unit_rows(_labels(points), params), compute_uv=False)
    return int((sv > _RANK_TOL * sv[0]).sum())


def classify_completeness(points, params: SystemParams, cross_validate: bool = False) -> CompletenessResult:
    """Classify a set of coherent-state labels inside the cell.

    More than d labels are at least complete; fewer are undercomplete;
    exactly d labels are undercomplete precisely when their sum satisfies
    the lattice constraint to within LATTICE_TOL = 1e-6.  Labels closer than
    _MERGE_DIAM = 1e-10, also across the cell's edges, are one label of
    higher multiplicity, which leaves the count as it is.
    Labels outside the cell are translated back in (the physical ray is
    unchanged by quasi-periodicity) and flagged.  ValueError is raised when
    there is no label or one is not finite.
    """
    pts = _labels(points)
    x, y = pts.real - params.a, pts.imag - params.b
    reduced = bool(((x < 0) | (x >= params.cell_width) | (y < 0) | (y >= params.cell_height)).any())
    count, d = pts.size, params.d
    if count != d:
        verdict = "overcomplete-at-least-complete" if count > d else "undercomplete"
        return CompletenessResult(verdict, count, None, None, None, reduced)
    positions, mults = _merge(pts, _MERGE_DIAM, params)
    residual, M, N = sum_constraint_fit(complex((positions * mults).sum()), params)
    verdict = "undercomplete" if residual <= LATTICE_TOL else "complete"
    rank = None
    if cross_validate:
        rank = coherent_gram_rank(positions, params)  # a label of multiplicity m is m equal rows, which add no rank
    return CompletenessResult(verdict, count, residual, M, N, reduced, rank)


# ---------------------------------------------------------------------------
# reconstruction of a state from its zeros


def reconstruct_from_zeros(zeros, params: SystemParams | None = None,
                           multiplicities=None, residual_tol: float = LATTICE_TOL) -> FiniteState:
    """Rebuild the state whose representation vanishes at the given zeros.

    Accepts a ZeroSet, or an array of finite positions plus `params` (and
    optional multiplicities, one integer of at least 1 per position;
    positions within _MERGE_DIAM = 1e-10 of each other, also across the
    cell's edges, are one zero with the summed multiplicity, by the rule of
    classify_completeness); other input raises ValueError, as do `params` or
    `multiplicities` given with a ZeroSet that they disagree with.  The
    multiplicity-weighted sum must satisfy the lattice constraint to within
    `residual_tol` (default LATTICE_TOL = 1e-6, finite and positive),
    otherwise no state exists and a ValueError is raised.

    Since exp(-y^2/2) f(z) = pi**-1/4 sum_m weighted_thetas(z)_m f_m, a zero
    z_j is one linear condition on the amplitudes: the state is orthogonal
    to the coherent state at conj(z_j).  A zero of multiplicity m gives the
    rows of derivative orders 0 .. m-1, all from one weighted_thetas call
    with one order per row.  By the completeness theorem, d rows of zeros
    obeying the lattice constraint have rank d - 1, and the
    amplitudes are their null vector: the last right singular vector of the
    row-normalised matrix.  Its error is about eps / gap, where gap is the
    second-smallest singular value over the largest.  When gap is at most
    d eps (the rank rule of numpy's matrix_rank) the zeros do not fix one
    state in double precision and RuntimeError is raised.  The result is
    normalized; the global phase is not fixed by the zeros.
    """
    _positive(residual_tol, "residual_tol")
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
    residual, _, _ = sum_constraint_fit(complex((positions * multiplicities).sum()), params)
    if residual > residual_tol:
        raise ValueError(
            "no such state exists: the zero sum violates the lattice constraint "
            f"(residual {residual:.3e} > {residual_tol:.1e})"
        )
    if d == 1:
        return FiniteState(np.ones(1))  # one ray, and its single row vanishes
    positions, mults = _merge(positions, _MERGE_DIAM, params, multiplicities)
    # the rows of order k of the positions of multiplicity above k, for k = 0 .. max - 1 in turn
    order, at = np.nonzero(mults > np.arange(mults.max())[:, None])
    _, sv, vh = np.linalg.svd(_unit_rows(positions[at], params, order))
    if sv[-2] <= d * _EPS * sv[0]:
        raise RuntimeError(
            "the zeros do not fix one state in double precision: second-smallest "
            f"singular value {sv[-2] / sv[0]:.1e} of the largest, at most d eps"
        )
    return FiniteState(np.conj(vh[-1]), normalize=True)
