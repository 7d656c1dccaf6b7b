"""Winding counts, zero location, the sum rule, completeness, reconstruction."""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finiteq.zeros as zeros_module
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
    """The lower-left corners of the contours count_zeros tracks from now on."""
    corners, winding = [], zeros_module.winding_number

    def counted(f, lower_left, upper_right, **kwargs):
        corners.append(lower_left)
        return winding(f, lower_left, upper_right, **kwargs)

    monkeypatch.setattr(zeros_module, "winding_number", counted)
    return corners


def test_count_zeros_raises_the_overflow_of_f_at_once(monkeypatch):
    # the top of the rectangle, 42.4 of the cell height 43.4 at d = 300, lies
    # where |f| exceeds the double range: f's own error, which no shifted
    # contour can cure, so it is raised from the first contour
    d = 300
    s = AnalyticState(random_state(np.random.default_rng(300), d), SystemParams(d))
    corners, evaluate, calls = count_contours(monkeypatch), AnalyticState.__call__, []
    monkeypatch.setattr(AnalyticState, "__call__", lambda self, z: calls.append(z) or evaluate(self, z))
    with pytest.raises(RuntimeError, match=r"^f is not finite at z = .* for d = 300: "
                                           r"its value exceeds the double range there$"):
        count_zeros(s, 1 + 40.4j, 3 + 42.4j)
    assert corners == [1 + 40.4j] and len(calls) == 1


def test_count_zeros_shifts_a_contour_through_a_zero(monkeypatch):
    # a corner exactly on a zero of the position state: the first contour
    # meets the zero, and a shifted one counts it in or out
    params = SystemParams(4)
    s = AnalyticState(position_state(1, 4), params)
    z0 = position_zero_lattice(1, params)[1]
    corners = count_contours(monkeypatch)
    assert count_zeros(s, z0, z0 + 0.8 + 0.8j) in (0, 1)
    assert len(corners) == 2 and corners[0] == z0


def test_winding_rejects_degenerate_rectangle():
    with pytest.raises(ValueError):
        winding_number(lambda z: z, 1 + 1j, 1 + 2j)


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
    """The merge rule with one Python iteration per point: the reference for zeros._merge."""
    anchors, offsets = [], []
    for z in points:
        if anchors:
            off = zeros_module._wrap(z - np.asarray(anchors), params.cell_width, params.cell_height)
            i = int(np.argmin(np.abs(off)))
            if abs(off[i]) < diam:
                offsets[i].append(complex(off[i]))
                continue
        anchors.append(complex(z))
        offsets.append([0j])
    positions = np.array([z0 + np.mean(off) for z0, off in zip(anchors, offsets)], dtype=complex)
    return zeros_module._into_cell(positions, params), np.array([len(off) for off in offsets])


def assert_merges_like_loop(points, diam, params, mults=None):
    # a point of weight m is m equal points in a row
    positions, merged = zeros_module._merge(points, diam, params, mults)
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
            # a and b, b and c within diam, a and c not
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(label_sets())
def test_merge_matches_loop(case):
    points, diam, params, mults = case
    assert_merges_like_loop(points, diam, params)
    assert_merges_like_loop(points, diam, params, mults)


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
    i, j, offset = zeros_module._close_pairs(points, diam, params)
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
            zeros_module._merge(points, 1e-10, params)
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
    assert zeros_module._merge(pts, 1e-10, params)[1].tolist().count(2) == 71


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
                                       "set as rank d - 1; one row builder and rank rule is ROADMAP item 7")
def test_gram_rank_of_an_off_rule_set_at_d48():
    params = SystemParams(48)
    rng = np.random.default_rng([61, 48])
    for _ in range(2):
        off = off_rule_copy(rng, params, lattice_label_set(rng, params, False))
    res = classify_completeness(off, params, cross_validate=True)
    assert (res.verdict, res.gram_rank) == ("complete", 48)


@pytest.mark.parametrize("d", [1, 2, 7, 64, 256, 1000])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_per_point_orders_equal_scalar_orders(d, lam):
    # one call with an order per point, as the rebuild takes the rows of its
    # multiple zeros, gives each row bit for bit as a call at that order
    # alone; at d = 1000 the 60 points straddle the blocks of the kernel
    params = SystemParams(d, lam)
    rng = np.random.default_rng([67, d, int(10 * lam)])
    z = params.cell_width * rng.uniform(size=(2, 30)) + 1j * params.cell_height * rng.uniform(size=(2, 30))
    order = rng.integers(0, 5, size=z.shape)
    rows = weighted_thetas(z, params, order)
    assert rows.shape == z.shape + (d,)
    for k in range(5):
        assert rows[order == k].tobytes() == weighted_thetas(z[order == k], params, k).tobytes()


@pytest.mark.parametrize("order", [-1, 1.5, [0, 1, 2], [[0, 1]], np.array([0, -1])])
def test_weighted_thetas_rejects_bad_orders(order):
    with pytest.raises(ValueError, match="order must be"):
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


def test_one_merge_decides_which_labels_are_one_zero(monkeypatch):
    # the rebuild merges once whatever its input, and classify only a set of exactly d labels
    params = SystemParams(5)
    width, height = params.cell_width, params.cell_height
    z0, z1 = complex(0.317 * width, 0.473 * height), complex(0.812 * width, 0.131 * height)
    z2 = np.sqrt(np.pi / 2) * 5**1.5 * (1 + 1j) - 3 * z0 - z1
    zs = find_zeros(AnalyticState(random_state(np.random.default_rng(26), 5), params))
    merge, calls = zeros_module._merge, []
    monkeypatch.setattr(zeros_module, "_merge", lambda *a: calls.append(1) or merge(*a))
    for args in ((zs.positions, params), (zs,), (np.array([z0, z0, z0, z1, z2]), params),
                 (np.array([z0, z1, z2]), params, [3, 1, 1])):
        calls.clear()
        reconstruct_from_zeros(*args)
        assert len(calls) == 1
    for count, merges in ((4, 0), (5, 1), (6, 0)):
        calls.clear()
        classify_completeness(np.resize(zs.positions, count), params, cross_validate=True)
        assert len(calls) == merges


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("d", [3, 8, 16, 32, 64])
def test_displacement_translates_zeros(d, lam):
    # the zeros of D(1, 0) s and D(0, 1) s are those of s moved by a lattice step over d
    params = SystemParams(d, lam)
    s = AnalyticState(random_state(np.random.default_rng([d, 25]), d), params)
    assert verify._displaced_zeros_error(s, find_zeros(s)) <= 1e-12


def test_double_zero_roundtrip():
    # fuse two zeros of a genuine set into one double zero, rebuild, and look
    # at how find_zeros reports it.  Float rounding of the rebuilt amplitudes
    # splits the exact double zero into a pair ~sqrt(eps) apart: the default
    # cluster diameter resolves the pair, a looser one reports multiplicity 2.
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
    if np.max(fine.multiplicities) == 1:
        assert near[0] < 1e-6 and near[1] < 1e-6  # split pair hugging the target

    coarse = find_zeros(s, cluster_diam=2e-3)
    assert coarse.total == 4
    assert np.max(coarse.multiplicities) == 2
    i = int(np.argmax(coarse.multiplicities))
    assert abs(coarse.positions[i] - z_double) < 2e-3
    assert coarse.residual < 4e-3


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
def test_find_zeros_large_d(d):
    params = SystemParams(d)
    v = random_state(np.random.default_rng(d), d)
    zs = find_zeros(AnalyticState(v, params))
    assert zs.total == d
    assert zs.residual <= 1e-6
    assert 1.0 - reconstruct_from_zeros(zs).fidelity(v) <= 1e-10


@pytest.mark.parametrize("d,m", [(16, 3), (48, 0), (64, 3)])
def test_find_zeros_momentum_state_row(d, m):
    # a momentum state has one nonzero Fourier coefficient, so its zeros fill
    # one horizontal row; at d = 48, m = 0 the row lies on a band edge
    params = SystemParams(d)
    zs = find_zeros(AnalyticState(momentum_state(m, d), params))
    assert zs.total == d
    assert zs.residual <= 1e-9
    assert np.ptp(zs.positions.imag) <= 1e-9 * params.cell_height


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
        zs = find_zeros(AnalyticState(v, params))
        assert zs.total == d
        assert zs.residual <= 1e-8
        assert np.all((zs.positions.real >= params.a) & (zs.positions.real < params.a + params.cell_width))
        assert np.all((zs.positions.imag >= params.b) & (zs.positions.imag < params.b + params.cell_height))
        assert 1.0 - reconstruct_from_zeros(zs).fidelity(v) <= 1e-10
