"""Zeros of the cell-analytic representation: counting, location, and use.

The representation of any state has exactly d zeros per fundamental cell
(multiplicity counted) and their sum is pinned to a lattice:

    sum_i z_i = sqrt(pi/2) d**1.5 (lam + i/lam) + sqrt(2 pi d) (M lam + i N / lam)

for integers M, N.  Counting uses the argument principle with continuous
phase tracking along rectangle boundaries.  Location takes the zeros as the
eigenvalues of companion matrices: f is a Laurent series in w = exp(-2icz),
the cell maps onto an annulus in w, and each horizontal band of the cell is
covered by a polynomial of degree O(sqrt(d)).  The count d and the sum
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
from .zak import SystemParams, _theta_scales, weighted_thetas
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
# largest lattice residual of a zero set find_zeros returns
_RESIDUAL_MAX = 1e-6
_RNG_SEED = 0x5EED


class _BoundaryZero(RuntimeError):
    """A boundary sample sits on (or numerically at) a zero."""


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


def _boundary_points(ll: complex, ur: complex, per_edge, spacing=None) -> np.ndarray:
    """Counterclockwise closed polyline around the rectangle [ll, ur].

    With `spacing` given, each edge gets enough points to keep samples at
    most that far apart (at least 8 per edge); otherwise `per_edge` is used.
    """
    x0, y0, x1, y1 = ll.real, ll.imag, ur.real, ur.imag

    def n_for(length):
        if spacing is None:
            return per_edge
        return max(8, int(math.ceil(length / spacing)))

    nx = n_for(x1 - x0)
    ny = n_for(y1 - y0)
    tx = np.linspace(0.0, 1.0, nx, endpoint=False)
    ty = np.linspace(0.0, 1.0, ny, endpoint=False)
    bottom = x0 + tx * (x1 - x0) + 1j * y0
    right = x1 + 1j * (y0 + ty * (y1 - y0))
    top = x1 - tx * (x1 - x0) + 1j * y1
    left = x0 + 1j * (y1 - ty * (y1 - y0))
    return np.concatenate([bottom, right, top, left, [ll]])


_MAX_LOG_RATIO = math.log(2.0)


def winding_number(f, lower_left: complex, upper_right: complex, per_edge: int = 16,
                   spacing: float | None = None) -> int:
    """Winding of f around 0 along the rectangle boundary, by phase tracking.

    A segment is bisected until its wrapped phase step stays below pi/2 AND
    its modulus ratio stays below 2.  The modulus trigger matters: a zero
    lying close to the contour spins the phase by nearly 2 pi between two
    samples, which wraps to almost nothing and would evade a phase-only
    test, but it cannot avoid pulling |f| down sharply on the way.

    Callers must choose `spacing` so that the smooth exponential factors of
    f advance the phase well under pi per initial step; a single simple zero
    near a segment then adds under pi more, keeping every true step out of
    the aliasing window around 2 pi.

    `f` must accept an ndarray of complex points.  Raises _BoundaryZero when
    a sample modulus vanishes exactly or dips below 1e-13 of its neighbors;
    |f| ranges over many orders of magnitude across one cell, so the dip
    test is relative to the local level rather than any global scale.
    """
    ll, ur = complex(lower_left), complex(upper_right)
    if not (ur.real > ll.real and ur.imag > ll.imag):
        raise ValueError("degenerate rectangle")
    pts = _boundary_points(ll, ur, per_edge, spacing)
    vals = np.asarray(f(pts), dtype=complex)
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
                raise RuntimeError(f"winding number not integral: {w}")
            return wi
        mids = 0.5 * (pts[:-1][bad] + pts[1:][bad])
        total_pts += mids.size
        if total_pts > _MAX_BOUNDARY_POINTS:
            break
        mvals = np.asarray(f(mids), dtype=complex)
        idx = np.flatnonzero(bad)
        pts = np.insert(pts, idx + 1, mids)
        vals = np.insert(vals, idx + 1, mvals)
    raise RuntimeError(
        "argument jump above pi/2 persisted after maximum boundary refinement; "
        "a zero may lie on or vanishingly close to the contour"
    )


def count_zeros(state: AnalyticState, lower_left: complex, upper_right: complex) -> int:
    """Number of zeros (with multiplicity) inside a rectangle, via the winding."""
    p = state.params
    spacing = min(p.cell_width, p.cell_height) / (6.0 * p.d)
    ll, ur = complex(lower_left), complex(upper_right)
    size = max(ur.real - ll.real, ur.imag - ll.imag)
    rng = np.random.default_rng(_RNG_SEED)
    for attempt in range(_JITTER_ATTEMPTS):
        try:
            return winding_number(state, ll, ur, spacing=spacing)
        except (_BoundaryZero, RuntimeError):
            shift = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * _JITTER_FRAC * size
            ll = complex(lower_left) + shift
            ur = complex(upper_right) + shift
    raise RuntimeError("zeros persist on the rectangle boundary after jitter attempts")


def _band_roots(state: AnalyticState, y0: float, y1: float) -> np.ndarray:
    """Zeros of f with y0 <= Im(z) <= y1: companion eigenvalues of its Laurent terms."""
    c = _theta_scales(state.params)[0]
    _, a, _ = state.laurent_terms(y0, y1)
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
    dz = np.asarray(dz, dtype=complex)
    return ((dz.real + 0.5 * width) % width - 0.5 * width
            + 1j * ((dz.imag + 0.5 * height) % height - 0.5 * height))


def _into_cell(z, p: SystemParams) -> np.ndarray:
    """Lattice translates of z into the half-open cell, snapping float noise at its far edges."""
    z = np.asarray(z, dtype=complex)
    width, height = p.cell_width, p.cell_height
    xr = (z.real - p.a) % width
    yr = (z.imag - p.b) % height
    xr = np.where(width - xr < 1e-9 * width, 0.0, xr)
    yr = np.where(height - yr < 1e-9 * height, 0.0, yr)
    return p.a + xr + 1j * (p.b + yr)


def _close_pairs(z: np.ndarray, diam: float, p: SystemParams):
    """Pairs i < j of points whose nearest lattice translates lie within `diam`, some maybe twice.

    Returns (i, j, offset), offset = _wrap(z[j] - z[i]).  Candidates come from
    the real parts reduced mod the cell width and sorted, followed by a copy
    one width up, so that pairs across that edge are adjacent too; a binary
    search gives each point the points within reach above it, and only
    those pairs get the full distance.
    """
    n, width = z.size, p.cell_width
    x = (z.real - p.a) % width
    order = np.argsort(x, kind="stable")
    ext = np.concatenate((x[order], x[order] + width))
    # widened by the rounding of the reduction, so that no pair within diam is missed
    reach = diam + 4 * np.finfo(float).eps * (width + np.max(np.abs(z.real - p.a), initial=0.0))
    start = np.arange(1, n + 1)
    stop = np.minimum(np.searchsorted(ext, ext[:n] + reach, side="right"), start + n - 1)
    counts = np.maximum(stop - start, 0)
    # sorted point k meets ext[start[k]:stop[k]], at most the n - 1 others once each; flattened
    shift = np.repeat(start - np.cumsum(counts) + counts, counts)
    a = order[np.repeat(np.arange(n), counts)]
    b = order[(shift + np.arange(shift.size)) % n]
    # a reach beyond half the width can list a pair twice; in _merge the repeat changes nothing
    i, j = np.minimum(a, b), np.maximum(a, b)
    offset = _wrap(z[j] - z[i], width, p.cell_height)
    keep = np.abs(offset) < diam
    return i[keep], j[keep], offset[keep]


def _merge(points, diam: float, p: SystemParams):
    """Points closer than `diam` across the cell's periods, merged into one each.

    Points are taken in input order.  A point joins the nearest earlier
    anchor (the earliest of equally near ones) when that anchor lies within
    `diam` of one of its lattice translates, and otherwise becomes an anchor
    itself; so of a chain a-b-c with a, c farther apart than `diam`, b joins
    a and c anchors its own group.  A group sits at its anchor plus the mean
    of its members' offsets to the anchor's nearest translates, reduced into
    the cell, and groups come out in the order their anchors were made.
    Returns (positions, multiplicities).

    Cost: a sort and binary searches over the n points, O(n log n), find the
    pairs within `diam` (:func:`_close_pairs`), with no n x n distances.
    Python work is one step per such pair, so it is spent only on points
    that have an earlier point within `diam`, which are rare at the default
    diameters, 1e-8 in find_zeros and 1e-10 in classify_completeness.
    """
    z = np.asarray(points, dtype=complex).ravel()
    i, j, offset = _close_pairs(z, diam, p)
    anchor = np.ones(z.size, dtype=bool)
    parent = np.arange(z.size)
    offsets = np.zeros(z.size, dtype=complex)
    # by later point, its earlier neighbours nearest first: the first that is an anchor wins
    by = np.lexsort((i, np.abs(offset), j))
    for a, b, off in zip(i[by].tolist(), j[by].tolist(), offset[by].tolist()):
        if anchor[b] and anchor[a]:
            anchor[b], parent[b], offsets[b] = False, a, off
    group = (np.cumsum(anchor) - 1)[parent]
    mults = np.bincount(group)
    mean = (np.bincount(group, offsets.real) + 1j * np.bincount(group, offsets.imag)) / mults
    return _into_cell(z[anchor] + mean, p), mults


def find_zeros(state: AnalyticState, cluster_diam: float = _CLUSTER_DIAM) -> ZeroSet:
    """Locate all d zeros inside the half-open fundamental cell.

    With w = exp(-2icz), c = sqrt(pi/2d)/lam, the cell maps one to one onto
    an annulus in w and f is a Laurent series in w there
    (:meth:`AnalyticState.laurent_terms`), so its zeros are polynomial roots.
    The cell height is split into ceil(sqrt(d)/(2 lam)) bands, each padded by
    2% of the height.  A band keeps only the terms that matter across it,
    which holds the degree to O(lam sqrt(d)), and its roots are the
    eigenvalues of the companion matrix.  Each band keeps the roots between two cut heights, set
    in the widest gap between roots near its edges; the bottom and top cuts
    lie one period apart, so a zero on a cell edge is counted once.  Roots
    closer than `cluster_diam` form one zero at their mean, with their summed
    multiplicity.  Positions are reduced into the canonical half-open cell by
    lattice translation and sorted by (Im, Re).

    The result is certified: RuntimeError is raised when the multiplicities do
    not sum to d or the zero sum misses the lattice rule by more than 1e-6.

    A state whose exact representation has a multiple zero acquires, through
    float rounding of its amplitudes, a cluster of simple zeros separated by
    about sqrt(machine eps); the default `cluster_diam` resolves such a
    cluster into its simple members, while a larger value reports it as one
    multiple zero.
    """
    p = state.params
    d, width, height = p.d, p.cell_width, p.cell_height
    # at this count the scaled terms of every band span the same range,
    # about e^-67, whatever lam is
    n_bands = math.ceil(math.sqrt(d) / (2 * p.lam))
    margin = 0.02 * height
    edges = p.b + height * np.arange(n_bands + 1) / n_bands
    bands = [_band_roots(state, lo - margin, hi + margin) for lo, hi in zip(edges[:-1], edges[1:])]
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
    if residual > _RESIDUAL_MAX:
        raise RuntimeError(
            f"zero sum misses the lattice rule by {residual:.3e} > {_RESIDUAL_MAX:.0e}"
        )
    return ZeroSet(positions, mults, p, M, N, residual)


def sum_constraint_fit(total: complex, params: SystemParams):
    """Best lattice fit of a zero sum; returns (residual, M, N).

    Minimizes |total - sqrt(pi/2) d**1.5 (lam + i/lam) - sqrt(2 pi d)(M lam + i N/lam)|
    over all integers M, N, so that zeros reduced into a cell anchored far
    from the origin fit as well as those of the cell at the origin.
    """
    d, lam = params.d, params.lam
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


def coherent_gram_rank(points, params: SystemParams, tol: float = 1e-8) -> int:
    """Rank of the Gram matrix of the coherent states at the given labels.

    Computed from the singular values of the amplitude matrix (columns are
    the normalized states); values above tol * largest count toward the rank.
    The rows are the weighted thetas at the labels: a coherent state is
    one of them times a prefactor, whose modulus the row normalisation
    removes and whose phase leaves the singular values unchanged.
    """
    t = weighted_thetas(np.asarray(points, dtype=complex).ravel(), params)
    sv = np.linalg.svd(t / np.linalg.norm(t, axis=1, keepdims=True), compute_uv=False)
    return int(np.sum(sv > tol * sv[0]))


def classify_completeness(points, params: SystemParams, residual_tol: float = 1e-6,
                          merge_tol: float = 1e-10, cross_validate: bool = False) -> CompletenessResult:
    """Classify a set of coherent-state labels inside the cell.

    More than d labels (counted with multiplicity after merging duplicates)
    are at least complete; fewer are undercomplete; exactly d labels are
    undercomplete precisely when their sum satisfies the lattice constraint.
    Labels closer than `merge_tol`, also across the cell's edges, count as
    one label of higher multiplicity.  Labels outside the cell are
    translated back in (the physical ray is unchanged by quasi-periodicity)
    and flagged.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise ValueError("need at least one point")
    x, y = pts.real - params.a, pts.imag - params.b
    reduced = bool(np.any((x < 0) | (x >= params.cell_width) | (y < 0) | (y >= params.cell_height)))
    positions, mults = _merge(pts, merge_tol, params)
    count = int(np.sum(mults))
    d = params.d
    if count > d:
        return CompletenessResult("overcomplete-at-least-complete", count, None, None, None, reduced)
    if count < d:
        return CompletenessResult("undercomplete", count, None, None, None, reduced)
    residual, M, N = sum_constraint_fit(complex(np.sum(positions * mults)), params)
    verdict = "undercomplete" if residual <= residual_tol else "complete"
    rank = None
    if cross_validate:
        rank = coherent_gram_rank(np.repeat(positions, mults), params)
    return CompletenessResult(verdict, count, residual, M, N, reduced, rank)


# ---------------------------------------------------------------------------
# reconstruction of a state from its zeros


def reconstruct_from_zeros(zeros, params: SystemParams | None = None,
                           multiplicities=None, residual_tol: float = 1e-6) -> FiniteState:
    """Rebuild the state whose representation vanishes at the given zeros.

    Accepts a ZeroSet, or an array of positions plus `params` (and optional
    multiplicities, each at least 1; a position listed more than once is one
    zero with the summed multiplicity).  The multiplicity-weighted sum must
    satisfy the lattice constraint to within `residual_tol`, otherwise no
    state exists and a ValueError is raised.

    Since exp(-y^2/2) f(z) = pi**-1/4 sum_m weighted_thetas(z)_m f_m, a zero
    z_j is one linear condition on the amplitudes: the state is orthogonal
    to the coherent state at conj(z_j).  A zero of multiplicity m gives the
    rows of derivative orders 0 .. m-1.  By the completeness theorem, d rows
    of zeros obeying the lattice constraint have rank d - 1, and the
    amplitudes are their null vector: the last right singular vector of the
    row-normalised matrix.  Its error is about eps / gap, where gap is the
    second-smallest singular value over the largest.  When gap is at most
    d eps (the rank rule of numpy's matrix_rank) the zeros do not fix one
    state in double precision and RuntimeError is raised.  The result is
    normalized; the global phase is not fixed by the zeros.
    """
    if isinstance(zeros, ZeroSet):
        params = zeros.params
        positions = zeros.positions
        multiplicities = zeros.multiplicities
    else:
        if params is None:
            raise ValueError("params required when zeros are given as an array")
        positions = np.asarray(zeros, dtype=complex).ravel()
        if multiplicities is None:
            multiplicities = np.ones(positions.size, dtype=int)
    multiplicities = np.asarray(multiplicities, dtype=int)
    d = params.d
    if np.any(multiplicities < 1):
        raise ValueError(f"multiplicities must be at least 1, got {multiplicities.min()}")
    if int(np.sum(multiplicities)) != d:
        raise ValueError(
            f"multiplicities sum to {int(np.sum(multiplicities))}, expected d = {d}"
        )
    residual, _, _ = sum_constraint_fit(complex(np.sum(positions * multiplicities)), params)
    if residual > residual_tol:
        raise ValueError(
            "no such state exists: the zero sum violates the lattice constraint "
            f"(residual {residual:.3e} > {residual_tol:.1e})"
        )
    if d == 1:
        return FiniteState(np.ones(1))  # one ray, and its single row vanishes
    positions, which = np.unique(positions, return_inverse=True)
    mults = np.bincount(which, weights=multiplicities).astype(int)
    rows = np.concatenate([weighted_thetas(positions[mults > k], params, k)
                           for k in range(mults.max())])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    _, sv, vh = np.linalg.svd(rows)
    if sv[-2] <= d * np.finfo(float).eps * sv[0]:
        raise RuntimeError(
            "the zeros do not fix one state in double precision: second-smallest "
            f"singular value {sv[-2] / sv[0]:.1e} of the largest, at most d eps"
        )
    return FiniteState(np.conj(vh[-1]), normalize=True)
