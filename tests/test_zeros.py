"""Winding counts, zero location, the sum rule, completeness, reconstruction."""

import functools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import finiteq.zeros as zeros_module
from finiteq.cli import main
from finiteq.serialization import save_zeros_csv
from finiteq import analytic, verify, zak
from finiteq.zak import weighted_thetas
from finiteq import (
    AnalyticState,
    FiniteState,
    SystemParams,
    classify_completeness,
    coherent_gram_rank,
    coherent_state_closed,
    count_zeros,
    find_zeros,
    momentum_state,
    number_state,
    position_state,
    reconstruct_from_zeros,
    sum_constraint_fit,
    theta3,
    theta3_derivative,
    winding_number,
    zero_sum_residual,
)


def random_state(rng, d):
    return FiniteState(rng.normal(size=d) + 1j * rng.normal(size=d))


def position_zero_lattice(m, params):
    """Closed-form zeros of the m-th position state inside the cell."""
    d, lam = params.d, params.lam
    width, height = params.cell_width, params.cell_height
    out = []
    for ell in range(d):
        re = np.sqrt(2 * np.pi / d) * lam * m + np.sqrt(np.pi * d / 2) * lam  # k = -1
        im = (2 * ell + 1) * np.sqrt(np.pi / (2 * d)) / lam
        out.append(complex(params.a + (re - params.a) % width, params.b + (im - params.b) % height))
    return sorted(out, key=lambda z: (z.imag, z.real))


def coherent_zero_set(label, params):
    """Closed-form zeros of the coherent state with the given label at even d, reduced into the cell: d/2 on
    one row and d/2 on one column."""
    d, lam = params.d, params.lam
    odd = 2 * np.arange(d // 2) + 1
    row = -label + odd * np.sqrt(2 * np.pi / d) * lam + 1j * np.sqrt(np.pi * d / 2) / lam
    column = label + np.sqrt(np.pi * d / 2) * lam + 1j * odd * np.sqrt(2 * np.pi / d) / lam
    return zeros_module._into_cell(np.concatenate((row, column)), params)


def match_sets(found, expected, tol):
    """Greedy nearest-point matching; returns the largest pair distance."""
    found = list(found)
    worst = 0.0
    for e in expected:
        i = int(np.argmin([abs(e - z) for z in found]))
        worst = max(worst, abs(e - found.pop(i)))
    return worst


def test_count_full_cell_random_state():
    rng = np.random.default_rng(0)
    params = SystemParams(4)
    s = AnalyticState(random_state(rng, 4), params)
    ll = complex(params.a, params.b)
    assert count_zeros(s, ll, ll + complex(params.cell_width, params.cell_height)) == 4


def test_count_full_cell_coherent_states():
    for d in (2, 3, 5, 6):
        params = SystemParams(d)
        s = AnalyticState(coherent_state_closed(0.4 + 0.3j, params), params)
        ll = complex(params.a, params.b)
        assert count_zeros(s, ll, ll + complex(params.cell_width, params.cell_height)) == d


def test_count_subrectangle_single_zero():
    params = SystemParams(4)
    s = AnalyticState(position_state(1, 4), params)
    z0 = position_zero_lattice(1, params)[1]
    assert count_zeros(s, z0 - 0.4 - 0.4j, z0 + 0.4 + 0.4j) == 1


def count_contours(monkeypatch):
    """The lower-left corners of the contours count_zeros tracks from now on, in cell units (see in_cell_units)."""
    corners, winding = [], zeros_module.winding_number

    def counted(f, lower_left, upper_right, **kwargs):
        corners.append(lower_left)
        return winding(f, lower_left, upper_right, **kwargs)

    monkeypatch.setattr(zeros_module, "winding_number", counted)
    return corners


def in_cell_units(z, params):
    """z with its real part in cell widths and its imaginary part in cell heights: where count_zeros winds."""
    return complex(z.real / params.cell_width, z.imag / params.cell_height)


def zeros_inside(positions, params, lower_left, upper_right):
    """How many of the cell's zeros, or of their translates by one cell width or height, lie in the rectangle."""
    shifts = (np.arange(-1, 2)[:, None] * params.cell_width + 1j * np.arange(-1, 2) * params.cell_height).ravel()
    z = (np.asarray(positions)[:, None] + shifts).ravel()
    return int(np.count_nonzero((z.real > lower_left.real) & (z.real < upper_right.real)
                                & (z.imag > lower_left.imag) & (z.imag < upper_right.imag)))


def test_count_zeros_counts_where_f_overflows(monkeypatch):
    # the top of the rectangle, 42.4 of the cell height 43.4 at d = 300, lies where |f| exceeds the
    # double range; the count winds the weighted f, which has the phase of f and stays finite, so its
    # first contour counts the find_zeros zeros inside (before, it raised f's overflow)
    d = 300
    s = AnalyticState(random_state(np.random.default_rng(300), d), SystemParams(d))
    ll, ur = 1 + 40.4j, 3 + 42.4j
    with pytest.raises(RuntimeError, match="exceeds the double range"):
        s(ur)
    expected = zeros_inside(find_zeros(s).positions, s.params, ll, ur)
    corners = count_contours(monkeypatch)
    assert count_zeros(s, ll, ur) == expected > 0
    assert corners == [in_cell_units(ll, s.params)]


def assert_cell_counts(s, positions, monkeypatch):
    """count_zeros counts d over the whole cell and the `positions` inside its lower half, each from its first
    contour, so the rectangles are the ones counted against.  f overflows near the top of the cell from d of
    about 226, where the whole-cell count raised."""
    p = s.params
    ll = complex(p.a, p.b)
    lower = ll + complex(p.cell_width, 0.5 * p.cell_height)
    corners = count_contours(monkeypatch)
    assert count_zeros(s, ll, ll + complex(p.cell_width, p.cell_height)) == p.d
    assert count_zeros(s, ll, lower) == zeros_inside(positions, p, ll, lower)
    assert corners == [in_cell_units(ll, p)] * 2


@pytest.mark.parametrize("lam", [0.3, 2.5])
def test_count_zeros_over_the_cell_at_large_d(lam, monkeypatch):
    # lam = 1 is counted in test_find_zeros_large_d
    s = AnalyticState(random_state(np.random.default_rng([256, 19]), 256), SystemParams(256, lam))
    assert_cell_counts(s, find_zeros(s).positions, monkeypatch)


@pytest.mark.parametrize("lam", [0.3, 2.5])
def test_count_zeros_over_the_cell_at_d1000(lam):
    # the count winds in cell units, so each side of the cell takes 6d samples at any lam: at lam = 2.5 the long
    # edges sampled at the spacing of the short ones took four times the points
    p = SystemParams(1000, lam)
    s = AnalyticState(random_state(np.random.default_rng([1000, 19]), 1000), p)
    ll = complex(p.a, p.b)
    assert count_zeros(s, ll, ll + complex(p.cell_width, p.cell_height)) == 1000


def test_count_zeros_shifts_a_contour_through_a_zero(monkeypatch):
    # a corner exactly on a zero of the position state: the first contour
    # meets the zero, and a shifted one counts it in or out
    params = SystemParams(4)
    s = AnalyticState(position_state(1, 4), params)
    z0 = position_zero_lattice(1, params)[1]
    corners = count_contours(monkeypatch)
    assert count_zeros(s, z0, z0 + 0.8 + 0.8j) in (0, 1)
    assert len(corners) == 2 and corners[0] == in_cell_units(z0, params)


def test_winding_rejects_degenerate_rectangle():
    with pytest.raises(ValueError):
        winding_number(lambda z: z, 1 + 1j, 1 + 2j)


def test_winding_raises_on_an_exact_zero_sample():
    # the lower-left corner is a sample, and f = z vanishes there; the bare raise carries no message
    with pytest.raises(zeros_module._BoundaryZero) as exc:
        winding_number(lambda z: z, 0, 1 + 1j)
    assert exc.value.args == ()


def test_winding_raises_on_a_loop_that_does_not_close():
    # values whose phase turns by pi over the closed contour, in steps far below pi/2: they cannot come from a
    # function of z, and the guard refuses the half turn
    with pytest.raises(zeros_module._BoundaryZero, match=r"^winding number not integral: 0\.5"):
        winding_number(lambda z: np.exp(1j * np.pi * np.linspace(0, 1, z.size)), 0, 1 + 1j)


@pytest.mark.parametrize("cap", ["passes", "points"])
def test_winding_raises_at_the_refinement_cap(cap, monkeypatch):
    # sqrt(z - c) jumps by a phase of pi across its branch cut on the negative real axis from c, which meets the
    # left edge: bisection never brings that step below pi/2.  It adds one point a pass to the 65 of the first
    # contour, so it stops after _MAX_PASSES passes, or, with _MAX_BOUNDARY_POINTS lowered to 80, before a pass
    # would take the 81st point
    if cap == "points":
        monkeypatch.setattr(zeros_module, "_MAX_BOUNDARY_POINTS", 80)
    sizes = []

    def f(z):
        sizes.append(z.size)
        return np.sqrt(z - (0.5 + 0.5j))

    with pytest.raises(zeros_module._BoundaryZero, match="^argument jump above pi/2 persisted after maximum "
                                                         "boundary refinement; a zero may lie on or"):
        winding_number(f, 0, 1 + 1j)
    assert len(sizes) == zeros_module._MAX_PASSES + 1 if cap == "passes" else sum(sizes) == 80


def test_count_zeros_raises_when_every_contour_meets_a_zero(monkeypatch):
    calls = []

    def always_on_a_zero(f, lower_left, upper_right, **kwargs):
        calls.append(lower_left)
        raise zeros_module._BoundaryZero

    monkeypatch.setattr(zeros_module, "winding_number", always_on_a_zero)
    s = AnalyticState(random_state(np.random.default_rng(4), 4), SystemParams(4))
    with pytest.raises(RuntimeError, match="^zeros persist on the rectangle boundary after jitter attempts$"):
        count_zeros(s, 0, 1 + 1j)
    assert len(calls) == zeros_module._JITTER_ATTEMPTS


def test_find_zeros_position_state_lattice():
    params = SystemParams(4)
    s = AnalyticState(position_state(1, 4), params)
    zs = find_zeros(s)
    assert zs.total == 4
    assert match_sets(zs.positions, position_zero_lattice(1, params), 1e-8) < 1e-8


def test_find_zeros_vacuum_d4_sum_rule():
    params = SystemParams(4)
    s = AnalyticState(coherent_state_closed(0, params), params)
    zs = find_zeros(s)
    assert zs.total == 4
    assert zs.residual < 1e-8


def test_find_zeros_vacuum_d4_reflection_symmetry():
    # real amplitudes make the zero set symmetric about the cell center
    params = SystemParams(4)
    zs = find_zeros(AnalyticState(coherent_state_closed(0, params), params))
    center = complex(params.a + params.cell_width / 2, params.b + params.cell_height / 2)
    reflected = [2 * center - z for z in zs.positions]
    assert match_sets(zs.positions, reflected, 1e-9) < 1e-9


def test_theta3_zeros_match_lattice():
    # locate all zeros of theta3(u; i) in its fundamental parallelogram by
    # winding + Newton and compare against the odd half-lattice
    tau = 1j

    def f(u):
        return theta3(u, tau)

    ll, ur = -0.3 - 0.4j, -0.3 + np.pi - 0.4j + np.pi * tau
    assert winding_number(f, ll, ur) == 1
    # subdivide by quadrant winding until tight, then Newton
    box = (ll, ur)
    for _ in range(20):
        b0, b1 = box
        c = 0.5 * (b0 + b1)
        quads = [(b0, c), (complex(c.real, b0.imag), complex(b1.real, c.imag)),
                 (complex(b0.real, c.imag), complex(c.real, b1.imag)), (c, b1)]
        for q0, q1 in quads:
            if winding_number(f, q0, q1) == 1:
                box = (q0, q1)
                break
    u = 0.5 * (box[0] + box[1])
    for _ in range(50):
        u = u - theta3(u, tau) / theta3_derivative(u, tau)
    assert abs(u - (np.pi / 2 + np.pi * tau / 2)) < 1e-10


def test_zero_sum_residual_from_find_zeros():
    rng = np.random.default_rng(1)
    for d in (3, 5):
        params = SystemParams(d)
        zs = find_zeros(AnalyticState(random_state(rng, d), params))
        residual, M, N = zero_sum_residual(zs)
        assert residual <= 1e-6
        assert abs(M) <= d + 2 and abs(N) <= d + 2


def test_zero_sum_residual_position_state_closed_form():
    params = SystemParams(4)
    zeros = position_zero_lattice(2, params)
    residual, M, N = sum_constraint_fit(sum(zeros), params)
    assert residual <= 1e-8


def test_zero_sum_residual_detects_perturbation():
    params = SystemParams(4)
    zeros = position_zero_lattice(1, params)
    zeros[0] += 0.1
    residual, _, _ = sum_constraint_fit(sum(zeros), params)
    assert abs(residual - 0.1) < 1e-8


def test_classify_own_zeros_undercomplete():
    rng = np.random.default_rng(2)
    params = SystemParams(3)
    zs = find_zeros(AnalyticState(random_state(rng, 3), params))
    res = classify_completeness(zs.positions, params, cross_validate=True)
    assert res.verdict == "undercomplete"
    assert res.gram_rank < 3


def test_classify_shifted_zero_complete():
    rng = np.random.default_rng(3)
    params = SystemParams(3)
    zs = find_zeros(AnalyticState(random_state(rng, 3), params))
    pts = zs.positions.copy()
    pts[0] += 0.5
    res = classify_completeness(pts, params, cross_validate=True)
    assert res.verdict == "complete"
    assert res.gram_rank == 3


def test_classify_counts():
    params = SystemParams(3)
    rng = np.random.default_rng(4)
    pts = [complex(rng.uniform(0, params.cell_width), rng.uniform(0, params.cell_height))
           for _ in range(4)]
    assert classify_completeness(pts, params).verdict == "overcomplete-at-least-complete"
    assert classify_completeness(pts[:2], params).verdict == "undercomplete"


def test_classify_reduces_outside_points():
    params = SystemParams(3)
    pts = [0.5 + 0.5j, 1.0 + 1.0j, (2.0 + params.cell_width) + 0.7j]
    res = classify_completeness(pts, params)
    assert res.reduced


def test_classify_merges_duplicates():
    params = SystemParams(3)
    pts = [0.5 + 0.5j, 0.5 + 0.5j + 1e-12, 1.0 + 1.0j]
    res = classify_completeness(pts, params)
    # three labels but only two distinct rays: undercomplete by count
    assert res.count == 3
    assert res.verdict != "overcomplete-at-least-complete"


def test_classify_merges_across_cell_edges():
    # labels 2e-13 apart on either side of a cell edge are one label of
    # multiplicity 2, classified like the same pair inside the cell
    params = SystemParams(3)
    a, b = params.a, params.b
    far = 1.1 + 2.2j
    for edge, step in ((a + 1.3j, 1e-13), (0.9 + 1j * b, 1e-13j)):
        outside = classify_completeness([edge - step, edge, far], params, cross_validate=True)
        inside = classify_completeness([edge + step, edge, far], params, cross_validate=True)
        assert outside.reduced and not inside.reduced
        assert (outside.count, outside.verdict, outside.M, outside.N, outside.gram_rank) == \
            (inside.count, inside.verdict, inside.M, inside.N, inside.gram_rank)
        assert abs(outside.residual - inside.residual) < 1e-12
    # a label inside the cell, within float noise of its far edge, is not reduced
    near_edge = complex(a + params.cell_width * (1 - 1e-12), 1.3)
    assert not classify_completeness([near_edge, 0.5 + 0.5j, far], params).reduced


def merge_loop(points, diam, params):
    """The merge rule from all n^2 distances: the reference for zeros._merge.  Groups are the connected components
    of the pairs within diam (close_pairs_all), joined by union-find, each at its least index plus the mean offset
    of its members to that point's nearest translates."""
    points = np.asarray(points, dtype=complex)
    parent = list(range(points.size))

    def root(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for a, b in close_pairs_all(points, diam, params):
        ra, rb = root(a), root(b)
        parent[max(ra, rb)] = min(ra, rb)  # so that a group's root is its least index
    groups = {}
    for k in range(points.size):
        groups.setdefault(root(k), []).append(k)
    positions = np.array([points[r] + np.mean(zeros_module._wrap(points[members] - points[r], params.cell_width,
                                                                 params.cell_height))
                          for r, members in sorted(groups.items())], dtype=complex)
    return zeros_module._into_cell(positions, params), np.array([len(m) for _, m in sorted(groups.items())])


def assert_merges_like_loop(points, diam, params, mults=None):
    # a point of weight m is m equal points in a row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeros_module, "_MERGE_DIAM", diam)
        positions, merged = zeros_module._merge(points, params, mults)
    ref_positions, ref_mults = merge_loop(points if mults is None else np.repeat(points, mults), diam, params)
    assert merged.tolist() == ref_mults.tolist()
    # positions are compared in units of the cell's extent from the origin
    scale = max(abs(params.a) + params.cell_width, abs(params.b) + params.cell_height)
    assert np.max(np.abs(positions - ref_positions)) <= 1e-15 * scale


@st.composite
def label_sets(draw):
    """(points, diam, params, mults): labels with repeats, close groups and pairs across cell edges,
    and a weight of 1 to 3 for each."""
    params = SystemParams(draw(st.integers(1, 12)), draw(st.sampled_from([0.5, 1.0, 2.0])),
                          draw(st.sampled_from([0.0, -3.7])), draw(st.sampled_from([0.0, 12.1])))
    a, b, width, height = params.a, params.b, params.cell_width, params.cell_height
    if draw(st.booleans()):
        diam = draw(st.sampled_from([1e-10, 1e-8]))
    else:
        diam = 0.3 * min(width, height)  # larger than the typical spacing
    unit = st.floats(0.0, 1.0, exclude_max=True)
    points = []
    for _ in range(draw(st.integers(1, 8))):
        x, y = a + draw(unit) * width, b + draw(unit) * height
        z = complex(x, y)
        step = 0.45 * diam * np.exp(2j * np.pi * draw(unit))  # |step| < diam / 2
        edge = 0.4 * diam * draw(unit)
        kind = draw(st.sampled_from(["single", "repeat", "pair", "triple", "chain",
                                     "left", "right", "bottom", "top", "outside"]))
        points += {
            "single": [z],
            "repeat": [z, z],
            "pair": [z, z + step],
            "triple": [z, z + step, z - step],
            # a and b, b and c within diam, a and c not: one group
            "chain": [z, z + 1.6 * step, z + 3.2 * step],
            "left": [complex(a + edge, y), complex(a - edge, y) + step / 4],
            "right": [complex(a + width - edge, y), complex(a + width + edge, y) + step / 4],
            "bottom": [complex(x, b + edge), complex(x, b - edge) + step / 4],
            "top": [complex(x, b + height - edge), complex(x, b + height + edge) + step / 4],
            "outside": [z + draw(st.integers(-3, 3)) * width + 1j * draw(st.integers(-3, 3)) * height,
                        z + step],
        }[kind]
    order = draw(st.permutations(range(len(points))))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    return np.array(points)[order], diam, params, np.array(mults)


def repeat_set(kind):
    """(points, diam, params, mults): scattered labels whose only pairs within diam are exact repeats, and for
    "repeat and pair" also one pair within diam, which the merge must average."""
    params = SystemParams(7, 1.0, -3.7, 12.1)
    t = (np.arange(7) + 0.5) / 7
    points = params.a + t * params.cell_width + 1j * (params.b + t[::-1] ** 2 * params.cell_height)
    mults = np.ones(points.size, dtype=int)
    if kind == "pair":
        points = np.insert(points, 5, points[2])
    elif kind == "triple":
        points = np.concatenate((points, points[[4, 4]]))
    elif kind == "two pairs":
        points = np.concatenate((points[:3], points[[5]], points[3:], points[[0]]))
    elif kind == "weighted":  # a triple and a pair of weights 2 and 3
        points = np.concatenate((points, points[[1, 1, 6]]))
        mults = np.array([3, 2, 1, 1, 2, 1, 3, 2, 3, 2])
    elif kind == "repeat and pair":
        points = np.concatenate((points, points[[3]], points[[6]] + 4e-11 * np.exp(0.4j)))
    return points, 1e-10, params, mults if kind == "weighted" else None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(label_sets())
@example(repeat_set("pair"))
@example(repeat_set("triple"))
@example(repeat_set("two pairs"))
@example(repeat_set("weighted"))
@example(repeat_set("repeat and pair"))
def test_merge_matches_loop(case):
    # exact repeats alone take one pass; a pair within diam beside them spreads the least indices
    points, diam, params, mults = case
    assert_merges_like_loop(points, diam, params)
    if mults is not None:
        assert_merges_like_loop(points, diam, params, mults)


def first_at_or_above(origin, offset):
    """The least double x with x - origin >= offset in floating point: where the rule x - origin < offset turns."""
    x = origin + offset
    while x - origin >= offset:
        x = np.nextafter(x, -np.inf)
    while x - origin < offset:
        x = np.nextafter(x, np.inf)
    return x


@pytest.mark.parametrize("where", ["a", "a + W", "just below a + W", "b + H", "below b", "periods away"])
def test_classify_reduces_by_the_rule_of_each_label(where):
    # the extremes of the labels decide whether one of them lies outside [a, a + W) x [b, b + H), as the
    # rule applied label by label does, also at the doubles where that rule turns
    params = SystemParams(3, 1.3, -3.7, 12.1)
    a, b, width, height = params.a, params.b, params.cell_width, params.cell_height
    far_edge = first_at_or_above(a, width)
    label = {"a": complex(first_at_or_above(a, 0.0), b + 1), "a + W": complex(far_edge, b + 1),
             "just below a + W": complex(np.nextafter(far_edge, -np.inf), b + 1),
             "b + H": complex(a + 1, first_at_or_above(b, height)),
             "below b": complex(a + 1, np.nextafter(first_at_or_above(b, 0.0), -np.inf)),
             "periods away": complex(a + 2.5 * width, b - 3.5 * height)}[where]
    labels = np.array([complex(a + 0.3 * width, b + 0.4 * height), label, complex(a + 0.6 * width, b + 0.2 * height)])
    x, y = labels.real - a, labels.imag - b
    elementwise = bool(((x < 0) | (x >= width) | (y < 0) | (y >= height)).any())
    assert classify_completeness(labels, params).reduced is elementwise
    assert elementwise is (where not in ("a", "just below a + W"))


def close_pairs_all(z, diam, params):
    """Every pair i < j within diam across the cell's periods, from all n^2 distances."""
    i, j = np.triu_indices(z.size, 1)
    offset = zeros_module._wrap(z[j] - z[i], params.cell_width, params.cell_height)
    keep = np.abs(offset) < diam
    return {(int(a), int(b)): complex(o) for a, b, o in zip(i[keep], j[keep], offset[keep])}


LINE_PARAMS = SystemParams(5, 1.0, -3.7, 12.1)


def line_set(shape, diam):
    """(points, diam, params, None): a column of labels sharing one real part, a row sharing one imaginary part,
    or both as an L, each with a repeat, a pair within diam and a pair across the cell's bottom edge."""
    p, t = LINE_PARAMS, (np.arange(40) + 0.5) / 40
    column = p.a + 0.3 * p.cell_width + 1j * (p.b + t * p.cell_height)
    row = p.a + t * p.cell_width + 1j * (p.b + 0.6 * p.cell_height)
    points = {"column": column, "row": row, "L": np.concatenate((column, row))}[shape]
    extra = points[:3] + np.array([0.0, 0.3 * diam * np.exp(0.7j), 1j * p.cell_height])
    return np.concatenate((points, extra)), diam, p, None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(label_sets())
@example(line_set("column", 1e-10))
@example(line_set("row", 1e-10))
@example(line_set("L", 1e-10))
@example(line_set("column", 0.3 * LINE_PARAMS.cell_height))
@example(line_set("L", 0.3 * LINE_PARAMS.cell_height))
def test_close_pairs_match_all_pairs(case):
    # the column is walked along the imaginary parts, the row along the real parts; the L crowds both axes,
    # so it stays quadratic on either
    points, diam, params, _ = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeros_module, "_MERGE_DIAM", diam)
        i, j, offset = zeros_module._close_pairs(points, params)
    found = {}
    for a, b, o in zip(i.tolist(), j.tolist(), offset.tolist()):
        assert found.setdefault((a, b), o) == o  # a pair listed twice has one offset
    assert found == close_pairs_all(points, diam, params)


def test_merge_of_a_column_is_not_quadratic():
    # the zeros of position states form columns: 4000 labels sharing one real part took over 1000 times
    # as long as 4000 scattered ones when only the real parts were swept
    params = SystemParams(64)
    rng = np.random.default_rng(14)
    heights = params.b + rng.uniform(size=4000) * params.cell_height
    column = params.a + 0.3 * params.cell_width + 1j * heights
    scattered = params.a + rng.uniform(size=4000) * params.cell_width + 1j * heights

    def best_of_3(points):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            zeros_module._merge(points, params)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_of_3(column) <= 20 * best_of_3(scattered)


def test_merge_matches_loop_on_1000_labels():
    params = SystemParams(64)
    rng = np.random.default_rng(12)
    pts = (params.a + rng.uniform(0, 1, 1000) * params.cell_width
           + 1j * (params.b + rng.uniform(0, 1, 1000) * params.cell_height))
    # every seventh label planted within 1e-10 of another one
    planted = rng.choice(1000, size=142, replace=False)
    pts[planted[:71]] = pts[planted[71:]] + 3e-11 * np.exp(2j * np.pi * rng.uniform(size=71))
    assert_merges_like_loop(pts, 1e-10, params)
    assert zeros_module._merge(pts, params)[1].tolist().count(2) == 71


@st.composite
def permuted_label_sets(draw):
    """(points, diam, params, mults, order): a set of label_sets and a permutation of its labels."""
    points, diam, params, mults = draw(label_sets())
    return points, diam, params, mults, np.array(draw(st.permutations(range(points.size))))


def chain_set(order):
    """(points, diam, params, None, order): a, a + 0.8e-10, a + 1.6e-10 at d = 3, a chain whose ends are 1.6e-10
    apart, and an order of it."""
    a = 0.5 + 0.5j
    return np.array([a, a + 0.8e-10, a + 1.6e-10]), 1e-10, SystemParams(3), None, np.array(order)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(permuted_label_sets())
@example(chain_set([1, 0, 2]))
@example(chain_set([2, 1, 0]))
@example(repeat_set("repeat and pair") + (np.arange(9)[::-1],))
@example(repeat_set("weighted") + (np.arange(10)[::-1],))
def test_merge_does_not_depend_on_label_order(case):
    # the same labels in another order merge into the same groups: the same multiplicities, each group at the
    # same position modulo the lattice.  Joining the nearest earlier anchor merged the chain to [2, 1] in the
    # orders a, b, c and c, b, a but to [3] in the order b, a, c.  Positions are compared at the diameters of
    # label_sets below 1e-6: at 0.3 of the cell a chain can reach half a period, where the nearest translate of a
    # member, and so the mean offset, depends on which member is the least
    points, diam, params, mults, order = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeros_module, "_MERGE_DIAM", diam)
        positions, merged = zeros_module._merge(points, params, mults)
        permuted, permuted_mults = zeros_module._merge(points[order], params, None if mults is None else mults[order])
    assert sorted(merged.tolist()) == sorted(permuted_mults.tolist())
    if diam > 1e-6:
        return
    gap = np.abs(zeros_module._wrap(positions[:, None] - permuted[None, :], params.cell_width, params.cell_height))
    match = gap.argmin(axis=1)  # each group's nearest group of the permuted labels
    assert sorted(match.tolist()) == list(range(permuted.size))
    assert merged.tolist() == permuted_mults[match].tolist()
    scale = max(abs(params.a) + params.cell_width, abs(params.b) + params.cell_height)
    assert gap[np.arange(match.size), match].max() <= 1e-15 * scale


def test_gram_rank_full_for_generic_points():
    params = SystemParams(3)
    rng = np.random.default_rng(5)
    pts = [complex(rng.uniform(0, params.cell_width), rng.uniform(0, params.cell_height))
           for _ in range(3)]
    assert coherent_gram_rank(pts, params) == 3


def lattice_label_set(rng, params, double):
    """d labels in the cell on the lattice rule, the first one twice with `double`."""
    d, lam = params.d, params.lam
    pts = (params.a + rng.uniform(size=d) * params.cell_width
           + 1j * (params.b + rng.uniform(size=d) * params.cell_height))
    if double:
        pts[1] = pts[0]
    M, N = rng.integers(-2, 3, size=2)
    target = (np.sqrt(np.pi / 2) * d**1.5 * (lam + 1j / lam)
              + np.sqrt(2 * np.pi * d) * (M * lam + 1j * N / lam))
    pts[-1] = zeros_module._into_cell(target - pts[:-1].sum(), params)
    return pts


def off_rule_copy(rng, params, pts):
    """pts with the last label moved by 5% of the cell height: off the lattice rule."""
    off = pts.copy()
    off[-1] = zeros_module._into_cell(off[-1] + 0.05 * params.cell_height * np.exp(2j * np.pi * rng.uniform()),
                                      params)
    return off


@pytest.mark.parametrize("d", [8, 12, 16, 24, 32, 48, 64])
@pytest.mark.parametrize("index", range(3))
def test_gram_rank_of_rule_and_off_rule_sets(d, index):
    # d - 1 independent coherent states when the labels are the zeros of one
    # state, d off the rule, and d - 1 for a set with a label given twice
    params = SystemParams(d)
    rng = np.random.default_rng([61, d, index])
    for double in (False, True):
        pts = lattice_label_set(rng, params, double)
        rule, broken = (classify_completeness(q, params, cross_validate=True)
                        for q in (pts, off_rule_copy(rng, params, pts)))
        assert (rule.verdict, broken.verdict) == ("undercomplete", "complete")
        assert (rule.gram_rank, broken.gram_rank) == (d - 1, d - double)


@pytest.mark.parametrize("d", [3, 16])
def test_gram_rank_of_a_repeated_label(d):
    # a label of multiplicity 2 is two equal rows, which add no rank: the cross-check reads the rank of the
    # labels as given and of the distinct labels alike
    params = SystemParams(d)
    if d == 3:
        labels = np.array([0.5 + 0.5j, 0.5 + 0.5j + 1e-12, 1 + 1j])
        distinct = labels[[0, 2]]
    else:
        rng = np.random.default_rng(16)
        distinct = (params.a + rng.uniform(size=d - 1) * params.cell_width
                    + 1j * (params.b + rng.uniform(size=d - 1) * params.cell_height))
        labels = np.concatenate((distinct, distinct[:1]))
    res = classify_completeness(labels, params, cross_validate=True)
    assert res.gram_rank == coherent_gram_rank(labels, params) == coherent_gram_rank(distinct, params)


@pytest.mark.xfail(strict=True, reason="the 1e-8 rank rule of coherent_gram_rank reads this complete "
                                       "set as rank d - 1; one row builder and rank rule is ROADMAP item 15")
def test_gram_rank_of_an_off_rule_set_at_d48():
    params = SystemParams(48)
    rng = np.random.default_rng([61, 48])
    for _ in range(2):
        off = off_rule_copy(rng, params, lattice_label_set(rng, params, False))
    res = classify_completeness(off, params, cross_validate=True)
    assert (res.verdict, res.gram_rank) == ("complete", 48)


def merged_zeros(d, lam, mult):
    """(params, points, mults): the zeros of a random state, the first and its mult - 1 nearest neighbours
    put at their mean with multiplicity mult, which keeps the sum."""
    params = SystemParams(d, lam)
    z = find_zeros(AnalyticState(random_state(np.random.default_rng([67, d, int(10 * lam)]), d), params)).positions
    near = np.argsort(np.abs(z - z[0]))[:mult]
    return params, np.append(np.delete(z, near), z[near].mean()), np.append(np.ones(d - mult, dtype=int), mult)


def unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def order_folds(points, params, order):
    """The folds of _live_terms of one order at the points: the rows of that order, one pass each."""
    index, _, terms = zak._live_terms(points, params, order)
    return zak._fold(index, terms, params)


@pytest.mark.parametrize("d", [3, 8, 16, 64])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("mult", [2, 3])
def test_rebuild_stacks_the_unit_rows_order_by_order(d, lam, mult):
    # the folded rows (weighted_thetas = d ifft of them) of order 0 of all zeros, then of order 1 of the
    # multiple one, ..., normalised row by row: the rebuild is the FFT of the null vector y of that matrix F
    # from the bordered system [[F, b], [b^H, 0]] [y; mu] = e_d, bit for bit
    params, pts, mults = merged_zeros(d, lam, mult)
    unit = np.concatenate([unit_rows(order_folds(pts[mults > k], params, k)) for k in range(mult)])
    border = params._border
    bordered = np.block([[unit, border[:, None]], [border.conj()[None, :], np.zeros((1, 1))]])
    expected = FiniteState(np.fft.fft(np.linalg.solve(bordered, np.eye(1, d + 1, d)[0])[:d]))
    assert reconstruct_from_zeros(pts, params, mults).components.tobytes() == expected.components.tobytes()


@pytest.mark.parametrize("d", [3, 8, 64, 256])
@pytest.mark.parametrize("lam", [0.3, 2.5])
@pytest.mark.parametrize("mult", [2, 3])
def test_rows_of_every_order_come_from_one_window_pass(d, lam, mult):
    # the rows of order k >= 1 are the order-0 terms times (-2icn)^k: byte for byte those of a pass of
    # order k over the points of multiplicity above k, so taking them from one pass moves no row
    params, pts, mults = merged_zeros(d, lam, mult)
    rows = zeros_module._unit_rows(pts, params, mults)
    start = 0
    for k in range(mult):
        expected = unit_rows(order_folds(pts[mults > k], params, k))
        assert rows[start:start + len(expected)].tobytes() == expected.tobytes()
        start += len(expected)
    assert start == len(rows) == d


@pytest.mark.parametrize("d", [3, 8, 16, 64, 256])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("mult", [1, 2, 3])
def test_folded_rows_keep_the_singular_values_and_the_state(d, lam, mult):
    # weighted_thetas = d ifft(F) is F times sqrt(d) times a unitary matrix, so the unit folds have the
    # singular values of the unit thetas, and the FFT of their null vector is the thetas' null vector:
    # the folded path against the construction from weighted_thetas rows that it replaced
    params, pts, mults = merged_zeros(d, lam, mult)
    thetas = np.concatenate([unit_rows(weighted_thetas(pts[mults > k], params, k)) for k in range(mult)])
    sv_thetas = np.linalg.svd(thetas, compute_uv=False)
    sv_folds = np.linalg.svd(zeros_module._unit_rows(pts, params, mults), compute_uv=False)
    assert np.all(np.abs(sv_folds - sv_thetas) <= 1e-13 * sv_thetas[0])
    old = FiniteState(np.conj(np.linalg.svd(thetas)[2][-1]))
    assert 1.0 - abs(np.vdot(old.components, reconstruct_from_zeros(pts, params, mults).components)) <= 1e-14


def svd_rebuild(positions, params, mults):
    """The state from the last right singular vector of the rebuild's unit folded rows: the independent reference
    for its bordered solve."""
    positions, mults = zeros_module._merge(positions, params, mults)
    return FiniteState(np.fft.fft(np.conj(np.linalg.svd(zeros_module._unit_rows(positions, params, mults))[2][-1])))


@functools.cache
def rebuild_sweep():
    """(family, case, state, positions, mults, params): number states at d = 3..48, N = 0..5 from the zeros that
    find_zeros certifies, random states from theirs, and position and coherent states from their exact zero sets.
    Built once, as a tuple: three tests read it."""
    return tuple(_rebuild_cases())


def _rebuild_cases():
    for d in range(3, 49):
        params = SystemParams(d)
        for n in range(6):
            try:
                state = number_state(n, params)
                zs = find_zeros(AnalyticState(state, params))
            except (ValueError, RuntimeError):  # a vanishing Hermite projection, or an uncertified zero set
                continue
            yield "number", (d, n), state, zs.positions, zs.multiplicities, params
    for d in (2, 8, 16, 64, 256):
        for lam in (0.3, 1.0, 2.5):
            params = SystemParams(d, lam)
            state = random_state(np.random.default_rng([d, int(10 * lam)]), d)
            zs = find_zeros(AnalyticState(state, params))
            yield "random", (d, lam), state, zs.positions, zs.multiplicities, params
    for d in range(4, 49, 2):
        for lam in (0.7, 1.0):
            params = SystemParams(d, lam)
            ones = np.ones(d, dtype=int)
            yield "position", (d, lam), position_state(2, d), np.array(position_zero_lattice(2, params)), ones, params
            yield ("coherent", (d, lam), coherent_state_closed(1.3 + 0.7j, params),
                   coherent_zero_set(1.3 + 0.7j, params), ones, params)


def test_bordered_solve_is_as_accurate_as_the_svd():
    # the null vector from one solve of [[F, b], [b^H, 0]] against that of the SVD of F, on the same rows: random
    # states rebuild to 1e-12, a case the SVD rebuilds to 1e-12 stays within 1e-10, and no family's worst loss
    # grows more than threefold (losses at the rounding level, below eps, count as eps)
    worst = {}
    for family, case, state, positions, mults, params in rebuild_sweep():
        try:
            rebuilt = reconstruct_from_zeros(positions, params, mults)
        except RuntimeError:  # the gap rule, which the SVD path shares
            continue
        loss = 1 - abs(np.vdot(rebuilt.components, state.components))
        reference = 1 - abs(np.vdot(svd_rebuild(positions, params, mults).components, state.components))
        assert family != "random" or loss <= 1e-12, (family, case, loss)
        assert reference > 1e-12 or loss <= 1e-10, (family, case, loss, reference)
        new, old = worst.get(family, (0.0, 0.0))
        worst[family] = max(new, loss), max(old, reference)
    assert set(worst) == {"number", "random", "position", "coherent"}
    for family, (new, old) in worst.items():
        assert new <= 3 * max(old, zeros_module._EPS), (family, new, old)


def bordered_rows(positions, params, mults):
    """The rebuild's unit folded rows F of the merged zeros, and F bordered by b: [[F, b], [b^H, 0]]."""
    positions, mults = zeros_module._merge(positions, params, mults)
    rows = zeros_module._unit_rows(positions, params, mults)
    border = params._border
    return rows, np.block([[rows, border[:, None]], [border.conj()[None, :], np.zeros((1, 1))]])


def gap_rule_then_solve(positions, params, mults):
    """The rebuild by the gap rule on the singular values of its unit folded rows, then one solve of the bordered
    rows against e_d: the reference for the bound on the inverse that lets the rebuild skip the rule."""
    d = params.d
    rows, bordered = bordered_rows(positions, params, mults)
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv[-2] <= d * zeros_module._EPS * sv[0]:
        raise RuntimeError("the zeros do not fix one state in double precision: second-smallest "
                           f"singular value {sv[-2] / sv[0]:.1e} of the largest, at most d eps")
    try:
        y = np.linalg.solve(bordered, np.eye(1, d + 1, d)[0])[:d]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"the zeros' rows gave no null vector: {exc}") from exc
    return FiniteState(np.fft.fft(y))


def rebuild_outcome(rebuild, positions, params, mults):
    """The rebuilt components, or the type and message of the RuntimeError raised instead."""
    try:
        return rebuild(positions, params, mults).components
    except RuntimeError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, expected, case):
    """The same RuntimeError, or the same components: bit for bit up to d = 64, and above it within the solves'
    rounding, 8 cond(B) eps, since a threaded BLAS splits the work of a solve against e_d and of one against the
    identity, the inverse, differently (bit for bit with one thread)."""
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and got == expected, (case[1], got, expected)
        return
    assert not isinstance(got, tuple), (case[1], got)
    if expected.size <= 64:
        assert got.tobytes() == expected.tobytes(), case[1]
    else:
        cond = np.linalg.cond(bordered_rows(*case)[1])
        assert np.abs(got - expected).max() <= 8 * cond * zeros_module._EPS, (case[1], cond)


def planted_label_set(d, lam, seed):
    """d - 1 labels drawn uniformly in the cell, and the last one closing the lattice rule at M = N = 0, reduced into
    the cell."""
    params = SystemParams(d, lam)
    rng = np.random.default_rng([seed, d, int(10 * lam)])
    labels = (params.a + params.cell_width * rng.uniform(size=d - 1)
              + 1j * (params.b + params.cell_height * rng.uniform(size=d - 1)))
    last = np.sqrt(np.pi / 2) * d**1.5 * complex(lam, 1 / lam) - labels.sum()
    return params, np.append(labels, zeros_module._into_cell(np.array([last]), params))


def test_the_bound_keeps_every_outcome_of_the_gap_rule(monkeypatch):
    # the rebuild skips the gap rule's SVD where the norm of the bordered rows' inverse proves that the rule accepts:
    # on both sides of the refusal boundary, its outcome is the rule's and then the solve's, and the sweep and the
    # planted sets take all three paths: accepted by the bound, accepted by the rule, refused
    cases = [(positions, params, mults) for _, _, _, positions, mults, params in rebuild_sweep()]
    for d in (64, 256, 512):
        for lam in (0.3, 1.0):
            for seed in range(3):
                params, labels = planted_label_set(d, lam, seed)
                cases.append((labels, params, np.ones(d, dtype=int)))
    svd, calls = np.linalg.svd, []

    def counted_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    paths = set()
    for case in cases:
        expected = rebuild_outcome(gap_rule_then_solve, *case)
        calls.clear()
        got = rebuild_outcome(reconstruct_from_zeros, *case)
        assert_same_outcome(got, expected, case)
        paths.add("refused" if isinstance(got, tuple) else "rule" if calls else "bound")
    assert paths == {"bound", "rule", "refused"}


def test_a_set_the_bound_accepts_takes_no_svd(monkeypatch):
    cases = [(positions, params, mults) for family, (d, _), _, positions, mults, params in rebuild_sweep()
             if family == "random" and d in (8, 64, 256)]
    expected = [gap_rule_then_solve(*case).components for case in cases]

    def no_svd(*args, **kwargs):
        raise AssertionError("the rebuild took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for case, components in zip(cases, expected):
        assert_same_outcome(reconstruct_from_zeros(*case).components, components, case)


@pytest.mark.parametrize("d", [64, 128])
def test_a_bound_that_cannot_decide_hands_over_without_a_warning(monkeypatch, d):
    # RuntimeWarnings fail the suite: the inverse of nearly singular rows, and one scaled so far that the squares
    # of its entries overflow, leave the decision to the gap rule, which refuses these position-state lattices
    params = SystemParams(d)
    lattice = np.array(position_zero_lattice(2, params))
    with pytest.raises(RuntimeError, match="do not fix one state"):
        reconstruct_from_zeros(lattice, params)
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda matrix: inv(matrix) * 1e150)
    with pytest.raises(RuntimeError, match="do not fix one state"):
        reconstruct_from_zeros(lattice, params)


def test_a_failed_solve_is_a_computation_failure(monkeypatch, tmp_path, capsys):
    # numpy's LinAlgError is a ValueError, which the CLI reports as an input error
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    params = SystemParams(4)
    zs = find_zeros(AnalyticState(random_state(np.random.default_rng(73), 4), params))
    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(RuntimeError, match="^the zeros' rows gave no null vector: Singular matrix$"):
        reconstruct_from_zeros(zs)
    zcsv = tmp_path / "z.csv"
    save_zeros_csv(zcsv, zs)
    assert main(["reconstruct", "--zeros", str(zcsv), "--out", str(tmp_path / "r.json")]) == 1
    assert "computation failed: the zeros' rows gave no null vector" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    # a set that the gap rule refuses keeps its refusal when the inverse fails: the rule runs first
    params = SystemParams(64)
    with pytest.raises(RuntimeError, match="do not fix one state"):
        reconstruct_from_zeros(np.array(position_zero_lattice(2, params)), params)


@pytest.mark.parametrize("order", [-1, 1.5, [0, 1, 2], [[0, 1]], np.array([0, -1]), [0, 1], np.array([0, 1])])
def test_weighted_thetas_rejects_bad_orders(order):
    # one order for all points: a list or an array of valid orders is refused too
    with pytest.raises(ValueError, match="^order must be an integer of at least 0"):
        weighted_thetas(np.array([0.3 + 0.2j, 1.1 + 0.4j]), SystemParams(5), order)


def test_reconstruct_rejects_arguments_that_disagree_with_a_zero_set():
    # both were ignored with a ZeroSet: a d = 5 set and SystemParams(7) gave
    # a d = 5 state
    params = SystemParams(5)
    zs = find_zeros(AnalyticState(random_state(np.random.default_rng(71), 5), params))
    same = reconstruct_from_zeros(zs, params, zs.multiplicities)
    assert same.components.tobytes() == reconstruct_from_zeros(zs).components.tobytes()
    with pytest.raises(ValueError, match="params .* disagree"):
        reconstruct_from_zeros(zs, SystemParams(7))
    with pytest.raises(ValueError, match="params .* disagree"):
        reconstruct_from_zeros(zs, SystemParams(5, b=0.5))
    for mults in (zs.multiplicities + 1, zs.multiplicities[:-1]):
        with pytest.raises(ValueError, match="multiplicities disagree"):
            reconstruct_from_zeros(zs, multiplicities=mults)


@pytest.mark.parametrize("labels", [[np.inf, 1, 2], [np.nan, 1, 2, 3, 4], [np.nan, 1, 2, 3],
                                    [1 + 1j, complex(2, np.inf), 3, 4]])
def test_non_finite_labels_raise(labels):
    # at d = 4 these gave a count of 3 "undercomplete", "overcomplete" with
    # reduced=False, and "cannot convert float NaN to integer"
    params = SystemParams(4)
    with pytest.raises(ValueError, match="must be finite"):
        classify_completeness(labels, params)
    with pytest.raises(ValueError, match="must be finite"):
        coherent_gram_rank(labels, params)
    if len(labels) == 4:  # the rebuild raised OverflowError from round()
        with pytest.raises(ValueError, match="must be finite"):
            reconstruct_from_zeros(np.array(labels, dtype=complex), params)


def test_empty_labels_raise():
    params = SystemParams(4)
    for call in (coherent_gram_rank, classify_completeness):
        with pytest.raises(ValueError, match="at least one point"):
            call([], params)


def test_reconstruct_of_an_array_needs_params():
    with pytest.raises(ValueError, match="params required"):
        reconstruct_from_zeros(np.array([1 + 1j, 2 + 1j, 3 + 2j]))


def test_reconstruct_rejects_bad_multiplicities():
    params = SystemParams(3)
    zeros = np.array([1 + 1j, 2 + 1j, 3 + 2j])
    # non-integral values were truncated: this was "multiplicities sum to 3"
    with pytest.raises(ValueError, match="must be integers"):
        reconstruct_from_zeros(zeros, params, [1.5, 1.5, 1])
    with pytest.raises(ValueError, match="must be integers"):
        reconstruct_from_zeros(zeros, params, [np.nan, 1, 1])
    # a length other than the positions' was numpy's broadcast error
    with pytest.raises(ValueError, match="2 multiplicities for 3 positions"):
        reconstruct_from_zeros(zeros, params, [2, 1])


def test_reconstruct_roundtrip_random_state():
    rng = np.random.default_rng(6)
    params = SystemParams(4)
    v = random_state(rng, 4)
    zs = find_zeros(AnalyticState(v, params))
    rec = reconstruct_from_zeros(zs)
    assert rec.fidelity(v) >= 1 - 1e-10


def test_reconstruct_position_state_from_closed_form_zeros():
    for d in (4, 32):
        params = SystemParams(d)
        zeros = position_zero_lattice(2, params)
        rec = reconstruct_from_zeros(np.array(zeros), params)
        assert rec.fidelity(position_state(2, d)) >= 1 - 1e-10
    # at d = 64 the second-smallest singular value of the rows is below d eps
    # of the largest, so the zeros do not fix one state in double precision
    params = SystemParams(64)
    with pytest.raises(RuntimeError, match="do not fix one state"):
        reconstruct_from_zeros(np.array(position_zero_lattice(2, params)), params)


def test_reconstruct_rejects_constraint_violation():
    params = SystemParams(4)
    zeros = position_zero_lattice(1, params)
    zeros[0] += 0.3
    with pytest.raises(ValueError, match="no such state exists"):
        reconstruct_from_zeros(np.array(zeros), params)


@pytest.mark.parametrize("d", [3, 8, 64])
def test_reconstruct_refuses_at_the_lattice_tolerance(d):
    # the rebuild has one fixed tolerance, LATTICE_TOL = 1e-6, the one find_zeros certifies against:
    # a zero moved by half of it still gives the state, one moved by twice of it gives none
    params = SystemParams(d)
    state = random_state(np.random.default_rng([71, d]), d)
    zeros = find_zeros(AnalyticState(state, params)).positions
    near = zeros + np.eye(1, d)[0] * 0.5 * zeros_module.LATTICE_TOL
    assert abs(np.vdot(reconstruct_from_zeros(near, params).components, state.components)) > 1 - 1e-9
    far = zeros + np.eye(1, d)[0] * 2 * zeros_module.LATTICE_TOL
    with pytest.raises(ValueError, match=r"^no such state exists: .* > 1\.0e-06\)$"):
        reconstruct_from_zeros(far, params)


def test_reconstruct_rejects_wrong_count():
    params = SystemParams(4)
    with pytest.raises(ValueError, match="multiplicities"):
        reconstruct_from_zeros(np.array([1 + 1j, 2 + 2j]), params)


def test_reconstruct_rejects_multiplicity_below_one():
    params = SystemParams(2)
    z0 = 1.3 + 0.7j
    target = np.sqrt(np.pi / 2) * 2**1.5 * (1 + 1j)
    zeros, mults = np.array([z0, 3 * z0 - target]), np.array([3, -1])
    assert sum_constraint_fit(np.sum(zeros * mults), params)[0] < 1e-12
    with pytest.raises(ValueError, match="at least 1"):
        reconstruct_from_zeros(zeros, params, mults)


def test_reconstruct_triple_zero():
    # a triple zero given once with multiplicity 3 or listed three times
    params = SystemParams(5)
    width, height = params.cell_width, params.cell_height
    z0, z1 = complex(0.317 * width, 0.473 * height), complex(0.812 * width, 0.131 * height)
    z2 = np.sqrt(np.pi / 2) * 5**1.5 * (1 + 1j) - 3 * z0 - z1
    once = reconstruct_from_zeros(np.array([z0, z1, z2]), params, [3, 1, 1])
    listed = reconstruct_from_zeros(np.array([z0, z1, z0, z2, z0]), params)
    assert once.fidelity(listed) >= 1 - 1e-12
    # f, f' and f'' vanish at z0, and a small box around it holds three zeros
    for k in range(3):
        row = weighted_thetas(z0, params, k)
        assert abs(row @ once.components) <= 1e-10 * np.linalg.norm(row)
    half = 1e-3 * height * (1 + 1j)
    assert count_zeros(AnalyticState(once, params), z0 - half, z0 + half) == 3


@pytest.mark.parametrize("copies", ["exact", "within 1e-10", "one period away"])
def test_reconstruct_merges_labels_as_classify_does(copies):
    # the triple zero above listed as three labels that classify_completeness counts as one
    params = SystemParams(5)
    width, height = params.cell_width, params.cell_height
    z0, z1 = complex(0.317 * width, 0.473 * height), complex(0.812 * width, 0.131 * height)
    z2 = np.sqrt(np.pi / 2) * 5**1.5 * (1 + 1j) - 3 * z0 - z1
    z2 = complex(z2.real % width, z2.imag % height)
    shifts = {"exact": (0, 0), "within 1e-10": (1e-12, -1e-12j), "one period away": (width, -1j * height)}[copies]
    labels = np.array([z0, z0 + shifts[0], z0 + shifts[1], z1, z2])
    result = classify_completeness(labels, params)
    assert (result.verdict, result.count) == ("undercomplete", 5)
    once = reconstruct_from_zeros(np.array([z0, z1, z2]), params, [3, 1, 1])
    assert 1 - reconstruct_from_zeros(labels, params).fidelity(once) <= 1e-12


@st.composite
def rule_label_sets(draw):
    """(labels, params): d labels with exact repeats, pairs and chains within 1e-10, on the lattice rule or, moved
    by 5% of the cell height, off it."""
    params = SystemParams(draw(st.integers(1, 12)), draw(st.sampled_from([0.5, 1.0, 2.0])),
                          draw(st.sampled_from([0.0, -3.7])), draw(st.sampled_from([0.0, 12.1])))
    d, lam, width, height = params.d, params.lam, params.cell_width, params.cell_height
    unit = st.floats(0.0, 1.0, exclude_max=True)
    labels = []
    while len(labels) < d - 1:
        z = complex(params.a + draw(unit) * width, params.b + draw(unit) * height)
        step = 0.45e-10 * np.exp(2j * np.pi * draw(unit))
        labels += {"single": [z], "repeat": [z, z], "pair": [z, z + step], "chain": [z, z + 1.6 * step, z + 3.2 * step]
                   }[draw(st.sampled_from(["single", "repeat", "pair", "chain"]))]
    labels = labels[:d - 1]
    M, N = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    target = np.sqrt(np.pi / 2) * d**1.5 * (lam + 1j / lam) + np.sqrt(2 * np.pi * d) * (M * lam + 1j * N / lam)
    last = target - sum(labels)
    if draw(st.booleans()):
        last += 0.05 * height * np.exp(2j * np.pi * draw(unit))
    labels = np.array(labels + [complex(zeros_module._into_cell(last, params))])
    return labels[np.array(draw(st.permutations(range(d))))], params


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rule_label_sets())
def test_rebuild_refuses_exactly_the_sets_classify_reads_complete(case):
    # both read the labels through one merge and one lattice fit: no state has these zeros exactly when the labels
    # are complete
    labels, params = case
    verdict = classify_completeness(labels, params).verdict
    try:
        reconstruct_from_zeros(labels, params)
        refused = False
    except ValueError as exc:
        assert str(exc).startswith("no such state exists"), exc
        refused = True
    except RuntimeError:  # the gap rule: the zeros exist but fix no one state in double precision
        refused = False
    assert refused is (verdict == "complete")


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; returns the list that grows by one per call."""
    original, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or original(*a, **k))
    return calls


def test_one_merge_decides_which_labels_are_one_zero(monkeypatch):
    # the rebuild merges each new label set once whatever its input, a repeat of the last set not at all (the same
    # positions and multiplicities, as a ZeroSet or as arrays), and classify only a set of exactly d labels
    params = SystemParams(5)
    width, height = params.cell_width, params.cell_height
    z0, z1 = complex(0.317 * width, 0.473 * height), complex(0.812 * width, 0.131 * height)
    z2 = np.sqrt(np.pi / 2) * 5**1.5 * (1 + 1j) - 3 * z0 - z1
    zs = find_zeros(AnalyticState(random_state(np.random.default_rng(26), 5), params))
    calls = counted(monkeypatch, zeros_module, "_merge")
    for args, merges in (((zs.positions, params), 1), ((zs,), 0), ((np.array([z0, z0, z0, z1, z2]), params), 1),
                         ((np.array([z0, z1, z2]), params, [3, 1, 1]), 1),
                         ((np.array([z0, z1, z2]), params, np.array([3, 1, 1], dtype=np.int8)), 0)):
        calls.clear()
        reconstruct_from_zeros(*args)
        assert len(calls) == merges
    for count, merges in ((4, 0), (5, 1), (6, 0), (5, 0)):
        calls.clear()
        classify_completeness(np.resize(zs.positions, count), params, cross_validate=True)
        assert len(calls) == merges


def test_classify_then_rebuild_does_the_label_work_once(monkeypatch):
    # a cross-validated classification of a well-conditioned simple set proves its Gram rank from the bordered
    # inverse that the rebuild of the same labels then reads: one merge, one set of rows, one inverse, no SVD
    params, labels = planted_label_set(16, 1.0, 3)
    alone = reconstruct_from_zeros(labels, params).components
    reconstruct_from_zeros(labels[::-1].copy(), params)  # another set, so that the record misses
    counts = {name: counted(monkeypatch, zeros_module, name) for name in ("_merge", "_unit_rows")}
    counts["inv"] = counted(monkeypatch, np.linalg, "inv")

    def no_svd(*args, **kwargs):
        raise AssertionError("the label work took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    result = classify_completeness(labels, params, cross_validate=True)
    state = reconstruct_from_zeros(labels, params)
    assert (result.verdict, result.gram_rank) == ("undercomplete", 15)
    assert {name: len(calls) for name, calls in counts.items()} == {"_merge": 1, "_unit_rows": 1, "inv": 1}
    assert state.components.tobytes() == alone.tobytes()


@functools.cache
def number_zeros(d, n):
    """The zeros that find_zeros certifies for the number state n at d, or None where it raises."""
    params = SystemParams(d)
    try:
        return find_zeros(AnalyticState(number_state(n, params), params)).positions
    except (ValueError, RuntimeError):  # a vanishing Hermite projection, or an uncertified zero set
        return None


def lattice_rule_point(params):
    """The zero sum sqrt(pi/2) d**1.5 (lam + i/lam) of the lattice rule at M = N = 0."""
    return np.sqrt(np.pi / 2) * params.d**1.5 * complex(params.lam, 1 / params.lam)


@st.composite
def gram_label_sets(draw):
    """(labels, params): d labels, d in {1, 2, 3, 8, 16, 64}, on the lattice rule or with one label moved 5% of the
    cell height off it.  Either random labels, none, one or two of them given twice or three times, closed by one label
    on the rule (at d = 1 the exact zero), at lam in {0.3, 1, 2.5}, or the zeros of a number state (lam = 1)."""
    d = draw(st.sampled_from([1, 2, 3, 8, 16, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        params = SystemParams(d)
        labels = number_zeros(d, draw(st.integers(0, 5)))
        assume(labels is not None)
        labels = labels.copy()
    else:
        params = SystemParams(d, draw(st.sampled_from([0.3, 1.0, 2.5])))
        labels = list(params.a + rng.uniform(size=d) * params.cell_width
                      + 1j * (params.b + rng.uniform(size=d) * params.cell_height))
        for i, mult in enumerate(draw(st.sampled_from([(), (2,), (3,), (2, 2), (2, 3)]))):
            labels[i + 1:i + 1] = [labels[i]] * (mult - 1)
        labels = labels[:d - 1]
        M, N = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        last = lattice_rule_point(params) + np.sqrt(2 * np.pi * d) * complex(M * params.lam, N / params.lam)
        labels = np.array(labels + [complex(zeros_module._into_cell(last - sum(labels), params))])
    if draw(st.booleans()):
        step = 0.05 * params.cell_height * np.exp(2j * np.pi * rng.uniform())
        labels[-1] = zeros_module._into_cell(labels[-1] + step, params)
    return labels[rng.permutation(d)], params


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(gram_label_sets())
@example((np.array([zeros_module._into_cell(lattice_rule_point(SystemParams(1)), SystemParams(1))]), SystemParams(1)))
@example((np.array([zeros_module._into_cell(lattice_rule_point(SystemParams(1, 2.5)), SystemParams(1, 2.5))]),
          SystemParams(1, 2.5)))
def test_the_proved_gram_rank_is_the_rank_of_the_singular_values(case):
    # the cross-check proves its rank from an inverse where that settles it, and takes the singular values
    # elsewhere: either way it is coherent_gram_rank of the merged labels (at d = 1 the exact zero has rank 1)
    labels, params = case
    positions, _ = zeros_module._merge(labels, params)
    assert classify_completeness(labels, params, cross_validate=True).gram_rank == coherent_gram_rank(positions, params)


def outcome(*args):
    """The rebuilt components' bytes, or the type and message of the ValueError or RuntimeError raised instead."""
    try:
        return reconstruct_from_zeros(*args).components.tobytes()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_a_label_array_changed_in_place_is_a_new_label_set():
    params, old = planted_label_set(16, 1.0, 4)
    _, new = planted_label_set(16, 1.0, 5)
    expected = outcome(new.copy(), params)
    labels = old.copy()
    assert classify_completeness(labels, params, cross_validate=True).gram_rank == 15
    labels[:] = new
    assert outcome(labels, params) == expected
    # and moved off the lattice rule after a classification on it
    labels[:] = old
    assert classify_completeness(labels, params, cross_validate=True).verdict == "undercomplete"
    labels[-1] += 0.05 * params.cell_height
    assert outcome(labels, params)[0] is ValueError


@pytest.mark.parametrize("change", ["lam", "anchor", "multiplicities"])
def test_another_lam_anchor_or_multiplicities_misses_the_record(monkeypatch, change):
    # the same label bytes under other params or multiplicities are another label set: merged anew, with the
    # outcome of a call that follows no other
    params, labels = planted_label_set(8, 1.0, 6)
    doubled = labels[1:].copy()  # labels[1] given twice, and the last label closing the rule again
    doubled[-1] = zeros_module._into_cell(lattice_rule_point(params) - 2 * doubled[0] - doubled[1:-1].sum(), params)
    first = {"lam": lambda: classify_completeness(labels, params, cross_validate=True),
             "anchor": lambda: classify_completeness(labels, params, cross_validate=True),
             "multiplicities": lambda: reconstruct_from_zeros(doubled, params, [2, 1, 1, 1, 1, 1, 1])}[change]
    second = {"lam": (labels, SystemParams(8, 0.7)),
              "anchor": (labels, SystemParams(8, 1.0, 0.5 * params.cell_width, -0.25 * params.cell_height)),
              "multiplicities": (doubled, params, [1, 2, 1, 1, 1, 1, 1])}[change]
    monkeypatch.setattr(zeros_module, "_last", None)
    expected = outcome(*second)
    first()
    calls = counted(monkeypatch, zeros_module, "_merge")
    assert outcome(*second) == expected
    assert len(calls) == 1


def test_a_rebuilt_state_shares_no_memory_with_the_record():
    params, labels = planted_label_set(8, 1.0, 7)
    classify_completeness(labels, params, cross_validate=True)
    record = zeros_module._last
    kept = [record._rows, record._inverse, record.positions, record.mults]
    assert kept[0] is not None and kept[1] is not None  # what the rebuild reads
    state = reconstruct_from_zeros(labels, params)
    assert not any(np.shares_memory(state.components, array) for array in kept)
    expected = state.components.tobytes()
    state.components[:] = 0
    assert reconstruct_from_zeros(labels, params).components.tobytes() == expected


def test_a_rebuild_after_classify_is_the_rebuild_alone(monkeypatch):
    # bit for bit, and every refusal with its message: the lattice rule's ValueError for sets off the rule, the gap
    # rule's RuntimeError for the position-state zeros from d = 48
    cases = [(positions, params) for _, _, _, positions, _, params in rebuild_sweep() if params.d <= 64]
    for d in (8, 64):
        for seed in range(3):
            params, labels = planted_label_set(d, 1.0, seed)
            cases += [(labels, params), (off_rule_copy(np.random.default_rng(seed), params, labels), params)]
    kinds = set()
    for positions, params in cases:
        monkeypatch.setattr(zeros_module, "_last", None)
        alone = outcome(positions, params)
        monkeypatch.setattr(zeros_module, "_last", None)
        classify_completeness(positions, params, cross_validate=True)
        assert outcome(positions, params) == alone, (params, alone)
        kinds.add(alone[0].__name__ if isinstance(alone, tuple) else "state")
    assert kinds == {"state", "ValueError", "RuntimeError"}


def test_threads_sharing_the_record_get_the_results_of_one_thread():
    # the record of the last label set is shared by every caller in the process: threads that classify and rebuild
    # two label sets in turn, so that each replaces and empties the other's record, get what one thread gets
    sets = [planted_label_set(16, 1.0, seed) for seed in (8, 9)]
    expected = [(classify_completeness(labels, params, cross_validate=True).gram_rank, outcome(labels, params))
                for params, labels in sets]
    failures = []

    def work(offset):
        for i in range(40):
            params, labels = sets[(i + offset) % 2]
            got = (classify_completeness(labels, params, cross_validate=True).gram_rank, outcome(labels, params))
            if got != expected[(i + offset) % 2]:
                failures.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures


def test_a_rebuild_keeps_no_d_by_d_array():
    # the record keeps the merged zeros for a repeat, but none of its d x d arrays once a rebuild returns: at
    # d = 256 one of them is 1 MiB
    params = SystemParams(256)
    warm, labels = (find_zeros(AnalyticState(random_state(np.random.default_rng([79, seed]), 256), params)).positions
                    for seed in range(2))
    classify_completeness(warm, params, cross_validate=True)  # the params' caches and numpy's first calls
    reconstruct_from_zeros(warm, params)
    tracemalloc.start()
    try:
        classify_completeness(labels, params, cross_validate=True)
        state = reconstruct_from_zeros(labels, params)
        held = tracemalloc.get_traced_memory()[0] - state.components.nbytes
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("d", [3, 8, 16, 32, 64])
def test_displacement_translates_zeros(d, lam):
    # the zeros of D(1, 0) s and D(0, 1) s are those of s moved by a lattice step over d
    params = SystemParams(d, lam)
    s = AnalyticState(random_state(np.random.default_rng([d, 25]), d), params)
    assert verify._displaced_zeros_error(s, find_zeros(s)) <= 1e-12


@pytest.mark.parametrize("lam", [0.7, 1.0])
@pytest.mark.parametrize("d", [2, 3, 8, 64, 256])
def test_fourier_rotates_zeros(d, lam):
    # the zeros of s are +i times those of F s at 1/lam, up to lattice translates
    s = AnalyticState(random_state(np.random.default_rng([d, 40]), d), SystemParams(d, lam))
    assert verify._fourier_zeros_error(s, find_zeros(s)) <= 1e-12


@pytest.mark.parametrize("d", [4, 64])
def test_fourier_rotation_by_minus_i_fails(d):
    # -i in place of +i misses by a sizeable part of the cell height (0.21 and 0.098 here); at d = 1 and 2
    # the zero sets are symmetric under z -> -z, so -i passes there as well
    s = AnalyticState(random_state(np.random.default_rng([d, 40]), d), SystemParams(d))
    partner = find_zeros(AnalyticState(zak.finite_fourier(s.state), s.params)).positions  # lam = 1 = 1/lam
    assert verify._set_distance(find_zeros(s).positions, -1j * partner, s.params) > 0.05


def test_verify_checks_the_fourier_rotation(monkeypatch):
    # with F^-1 = F^3 in place of F the check compares the zeros of s with -i times those of F s, and fails
    check = [r for r in verify.run_suite("zeros", 4, 0) if r.name == "Fourier rotates zeros by +i"]
    assert len(check) == 1 and check[0].passed
    monkeypatch.setattr(zak, "finite_fourier", lambda state: FiniteState(np.fft.fft(state.components) / 2))
    check = [r for r in verify.run_suite("zeros", 4, 0) if r.name == "Fourier rotates zeros by +i"]
    assert not check[0].passed


def test_double_zero_roundtrip():
    # fuse two zeros of a genuine set into one double zero, rebuild, and look
    # at how find_zeros reports it.  Float rounding of the rebuilt amplitudes
    # splits the exact double zero into a pair ~sqrt(eps) apart, which comes
    # back as two simple zeros.
    params = SystemParams(4)
    width, height = params.cell_width, params.cell_height
    # generic (non-dyadic) double-zero location, last zero solved from the sum rule
    z_double = complex(0.317 * width, 0.473 * height)
    z3 = complex(0.812 * width, 0.131 * height)
    target = np.sqrt(np.pi / 2) * 4**1.5 * (1 + 1j)
    z4 = target - 2 * z_double - z3
    z4 = complex(z4.real % width, z4.imag % height)
    zeros = np.array([z_double, z_double, z3, z4])
    residual, _, _ = sum_constraint_fit(np.sum(zeros), params)
    assert residual < 1e-10
    rec = reconstruct_from_zeros(zeros, params)
    s = AnalyticState(rec, params)

    fine = find_zeros(s)
    assert fine.total == 4
    near = sorted(abs(z - z_double) for z in fine.positions)
    assert near[0] < 1e-6 and near[1] < 1e-6  # split pair hugging the target


def test_zero_orthogonality_link():
    # f(z0) = 0 exactly when the coherent state with the conjugate label is
    # orthogonal to the state
    rng = np.random.default_rng(7)
    params = SystemParams(3)
    v = random_state(rng, 3)
    zs = find_zeros(AnalyticState(v, params))
    for z0 in zs.positions:
        coh = coherent_state_closed(np.conj(z0), params)
        assert abs(coh.inner(v)) < 1e-9


def test_zeroset_invariants_random_ensemble():
    rng = np.random.default_rng(8)
    for d in (2, 5):
        params = SystemParams(d)
        for _ in range(3):
            v = random_state(rng, d)
            s = AnalyticState(v, params)
            zs = find_zeros(s)
            assert zs.total == d
            assert zs.residual <= 1e-6
            width, height = params.cell_width, params.cell_height
            for z in zs.positions:
                assert params.a <= z.real < params.a + width
                assert params.b <= z.imag < params.b + height


def roundtrip_cases():
    for d in range(3, 9):
        for n in range(4):
            try:
                state = number_state(n, SystemParams(d))
            except ValueError:
                continue  # the transform of this Hermite function vanishes at d
            yield pytest.param(d, state, id=f"number-d{d}-N{n}")
    for d in (16, 32, 64):
        yield pytest.param(d, random_state(np.random.default_rng([4, d]), d), id=f"random-d{d}")


@pytest.mark.parametrize("d,state", list(roundtrip_cases()))
def test_find_zeros_roundtrip(d, state):
    # number states put zeros on the cell edges and in multiple clusters
    zs = find_zeros(AnalyticState(state, SystemParams(d)))
    assert zs.residual <= 1e-6
    assert 1.0 - reconstruct_from_zeros(zs).fidelity(state) <= 1e-10


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
def test_find_zeros_property(d, seed):
    params = SystemParams(d)
    s = AnalyticState(random_state(np.random.default_rng(seed), d), params)
    zs = find_zeros(s)
    assert zs.total == d
    assert zs.residual <= 1e-9
    for z, mult in zip(zs.positions, zs.multiplicities):
        assert params.a <= z.real < params.a + params.cell_width
        assert params.b <= z.imag < params.b + params.cell_height
        half = 0.5e-3 * params.cell_height * (1 + 1j)
        assert count_zeros(s, z - half, z + half) == mult


@pytest.mark.parametrize("d", [256, 1000])
def test_find_zeros_large_d(d, monkeypatch):
    params = SystemParams(d)
    v = random_state(np.random.default_rng(d), d)
    s = AnalyticState(v, params)
    zs = find_zeros(s)
    assert zs.total == d
    assert zs.residual <= 1e-6
    assert 1.0 - reconstruct_from_zeros(zs).fidelity(v) <= 1e-10
    assert_cell_counts(s, zs.positions, monkeypatch)


@pytest.mark.parametrize("d,m", [(16, 3), (48, 0), (64, 3)])
def test_find_zeros_momentum_state_row(d, m):
    # a momentum state has one nonzero Fourier coefficient, so its zeros fill
    # one horizontal row; at d = 48, m = 0 the row lies on a band edge
    params = SystemParams(d)
    zs = find_zeros(AnalyticState(momentum_state(m, d), params))
    assert zs.total == d
    assert zs.residual <= 1e-9
    assert np.ptp(zs.positions.imag) <= 1e-9 * params.cell_height


@pytest.mark.parametrize("d", [1, 4, 64])
def test_find_zeros_refuses_the_zero_vector(d):
    # its f vanishes everywhere: no band had roots, and RuntimeError said "found 0 zeros in the cell"
    state = AnalyticState(FiniteState(np.zeros(d), normalize=False), SystemParams(d))
    with pytest.raises(ValueError, match="^the zero vector has no zero set"):
        find_zeros(state)


def test_find_zeros_certificate_raises(monkeypatch):
    # a lost root breaks the count, a moved one the lattice rule
    params = SystemParams(6)
    s = AnalyticState(random_state(np.random.default_rng(9), 6), params)
    band_roots = zeros_module._band_roots
    monkeypatch.setattr(zeros_module, "_band_roots", lambda a, c, y0, y1: band_roots(a, c, y0, y1)[1:])
    with pytest.raises(RuntimeError, match="expected 6"):
        find_zeros(s)
    monkeypatch.setattr(zeros_module, "_band_roots", lambda a, c, y0, y1: band_roots(a, c, y0, y1) + 1e-4)
    with pytest.raises(RuntimeError, match="lattice rule"):
        find_zeros(s)


def test_find_zeros_cuts_every_band_from_one_window(monkeypatch):
    # d = 64 splits the cell into 4 bands; counted in every module that holds the window
    calls, window = [], zak._theta_window
    for module in (zak, analytic, zeros_module):
        if hasattr(module, "_theta_window"):
            monkeypatch.setattr(module, "_theta_window", lambda *a, **k: calls.append(1) or window(*a, **k))
    zs = find_zeros(AnalyticState(random_state(np.random.default_rng(64), 64), SystemParams(64)))
    assert zs.total == 64
    assert len(calls) == 1


@pytest.mark.parametrize("lam", [0.3, 2.5])
@pytest.mark.parametrize("anchor", [(0.0, 0.0), (-3.7, 12.1), (5.0, -40.0)])
def test_find_zeros_scaled_and_anchored_cells(lam, anchor):
    # far anchors put the zero sum many lattice steps from the origin's;
    # a small lam makes the Laurent terms fall steeply from one index to the next
    for d in (1, 3, 10):
        params = SystemParams(d, lam, *anchor)
        v = random_state(np.random.default_rng([d, 11]), d)
        s = AnalyticState(v, params)
        zs = find_zeros(s)
        assert zs.total == d
        assert zs.residual <= 1e-8
        # far from the origin the weighted f turns faster along each side, and the winding's spacing must follow
        ll = complex(params.a, params.b)
        assert count_zeros(s, ll, ll + complex(params.cell_width, params.cell_height)) == d
        assert np.all((zs.positions.real >= params.a) & (zs.positions.real < params.a + params.cell_width))
        assert np.all((zs.positions.imag >= params.b) & (zs.positions.imag < params.b + params.cell_height))
        assert 1.0 - reconstruct_from_zeros(zs).fidelity(v) <= 1e-10
