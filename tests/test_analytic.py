"""Evaluation of f(z), closed forms, the cell scalar product, and operators."""

import timeit
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finiteq import analytic, zak
from finiteq.zeros import _band_terms
from finiteq import (
    AnalyticState,
    FiniteState,
    OperatorKernel,
    SystemParams,
    apply_weyl_expansion,
    coherent_form,
    coherent_identity_matrix,
    coherent_state_closed,
    coherent_unnormalized,
    displaced_f,
    displacement,
    find_zeros,
    fourier_matrix,
    kernel_apply,
    kernel_eval,
    momentum_form,
    momentum_state,
    position_form,
    position_state,
    scalar_product,
    weyl_function,
)


def random_state(rng, d):
    return FiniteState(rng.normal(size=d) + 1j * rng.normal(size=d))


def random_cell_point(rng, params):
    return complex(params.a + rng.uniform(0, params.cell_width),
                   params.b + rng.uniform(0, params.cell_height))


def random_cell_points(rng, params, count):
    return (params.a + params.cell_width * rng.uniform(size=count)
            + 1j * (params.b + params.cell_height * rng.uniform(size=count)))


def test_position_state_closed_form():
    params = SystemParams(5, 1.1)
    rng = np.random.default_rng(0)
    for m in range(5):
        s = AnalyticState(position_state(m, 5), params)
        for _ in range(3):
            z = random_cell_point(rng, params)
            assert abs(s(z) - position_form(m, params, z)) < 1e-12 * max(1, abs(s(z)))


def test_real_period_periodicity():
    params = SystemParams(4)
    rng = np.random.default_rng(1)
    s = AnalyticState(random_state(rng, 4), params)
    for _ in range(5):
        z = random_cell_point(rng, params)
        assert abs(s(z + params.cell_width) - s(z)) < 1e-10 * max(1, abs(s(z)))


def test_imaginary_period_quasi_periodicity():
    params = SystemParams(4, 0.9)
    rng = np.random.default_rng(2)
    s = AnalyticState(random_state(rng, 4), params)
    for _ in range(5):
        z = random_cell_point(rng, params)
        growth = np.exp(np.pi * 4 / params.lam**2
                        - 1j * np.sqrt(2 * np.pi * 4) * z / params.lam)
        lhs = s(z + 1j * params.cell_height)
        rhs = s(z) * growth
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_defining_expressions_agree():
    # theta-sum path vs the overlap-with-conjugate-label path
    params = SystemParams(3)
    rng = np.random.default_rng(3)
    s = AnalyticState(random_state(rng, 3), params)
    for _ in range(20):
        z = random_cell_point(rng, params)
        direct = s(z)
        via_overlap = s.inner_product_form(z)
        assert abs(direct - via_overlap) < 1e-10 * max(1.0, abs(direct))


def test_momentum_form_matches_eval():
    params = SystemParams(2)
    s = AnalyticState(momentum_state(0, 2), params)
    assert abs(momentum_form(0, params, 0.0) - s(0.0)) < 1e-12

    params5 = SystemParams(5, 1.2)
    rng = np.random.default_rng(4)
    for m in (0, 2, 4):
        s = AnalyticState(momentum_state(m, 5), params5)
        for _ in range(4):
            z = random_cell_point(rng, params5)
            val = s(z)
            assert abs(momentum_form(m, params5, z) - val) < 1e-10 * max(1.0, abs(val))


def test_momentum_form_quasi_periodicity():
    params = SystemParams(3, 0.8)
    rng = np.random.default_rng(5)
    for _ in range(4):
        z = random_cell_point(rng, params)
        growth = np.exp(np.pi * 3 / params.lam**2
                        - 1j * np.sqrt(2 * np.pi * 3) * z / params.lam)
        lhs = momentum_form(1, params, z + 1j * params.cell_height)
        rhs = momentum_form(1, params, z) * growth
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_coherent_form_matches_eval():
    rng = np.random.default_rng(6)
    for d in (3, 4):
        params = SystemParams(d)
        label = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        s = AnalyticState(coherent_state_closed(label, params), params)
        assert abs(coherent_form(label, params, 0.0) - s(0.0)) < 1e-10 * max(1.0, abs(s(0.0)))
        for _ in range(6):
            z = random_cell_point(rng, params)
            val = s(z)
            assert abs(coherent_form(label, params, z) - val) < 1e-10 * max(1.0, abs(val))


def test_coherent_form_parity_variants():
    # one closed form, with no branch on the parity of d, is exact at even and odd d
    rng = np.random.default_rng(7)
    for d in (4, 5):
        params = SystemParams(d)
        label = 0.4 - 0.3j
        s = AnalyticState(coherent_state_closed(label, params), params)
        for _ in range(5):
            z = random_cell_point(rng, params)
            val = s(z)
            assert abs(coherent_form(label, params, z) - val) < 1e-10 * max(1.0, abs(val))


def test_closed_forms_at_general_scale():
    # all theta closed forms carry the squeezing scale; check both parities
    rng = np.random.default_rng(22)
    for d, lam in ((4, 1.2), (5, 0.85)):
        params = SystemParams(d, lam)
        label = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        s = AnalyticState(coherent_state_closed(label, params), params)
        sm = AnalyticState(momentum_state(1, d), params)
        for _ in range(4):
            z = random_cell_point(rng, params)
            val = s(z)
            assert abs(coherent_form(label, params, z) - val) < 1e-10 * max(1.0, abs(val))
            valm = sm(z)
            assert abs(momentum_form(1, params, z) - valm) < 1e-10 * max(1.0, abs(valm))


def test_even_d_coherent_zeros_on_factor_lattices():
    d, lam = 4, 1.0
    params = SystemParams(d, lam)
    label = 1 + 1j
    s = AnalyticState(coherent_state_closed(label, params), params)
    scale = max(abs(s(complex(x, y)))
                for x in np.linspace(0.3, params.cell_width - 0.3, 7)
                for y in np.linspace(0.3, params.cell_height - 0.3, 7))
    for k, ell in [(0, 0), (1, 0), (0, 1), (-1, -1)]:
        z1 = -label + (2 * k + 1) * np.sqrt(2 * np.pi / d) * lam \
            + 1j * (2 * ell + 1) * np.sqrt(np.pi * d / 2) / lam
        z2 = label + (2 * k + 1) * np.sqrt(np.pi * d / 2) * lam \
            + 1j * (2 * ell + 1) * np.sqrt(2 * np.pi / d) / lam
        assert abs(s(z1)) < 1e-10 * scale
        assert abs(s(z2)) < 1e-10 * scale


def test_scalar_product_normalized_basis_state():
    params = SystemParams(2)
    f = AnalyticState(position_state(0, 2), params)
    assert abs(scalar_product(f, f) - 1) < 1e-6


def test_scalar_product_orthogonal_states():
    params = SystemParams(3)
    f = AnalyticState(position_state(0, 3), params)
    g = AnalyticState(position_state(1, 3), params)
    assert abs(scalar_product(f, g)) < 1e-6


def test_scalar_product_matches_bilinear_sum():
    params = SystemParams(4)
    rng = np.random.default_rng(8)
    f = AnalyticState(random_state(rng, 4), params)
    g = AnalyticState(random_state(rng, 4), params)
    bilinear = np.sum(f.state.components * g.state.components)
    assert abs(scalar_product(f, g) - bilinear) < 1e-6


def test_scalar_product_scaled_and_anchored_cell():
    # the integrand is doubly periodic including the Gaussian weight, so any
    # anchor and any squeezing scale must give the same bilinear pairing
    rng = np.random.default_rng(21)
    for params in (SystemParams(3, 1.3), SystemParams(3, 0.8, a=-1.2, b=0.7)):
        f = AnalyticState(random_state(rng, 3), params)
        g = AnalyticState(random_state(rng, 3), params)
        bilinear = np.sum(f.state.components * g.state.components)
        assert abs(scalar_product(f, g) - bilinear) < 1e-6


def test_scalar_product_requires_matching_params():
    f = AnalyticState(position_state(0, 3), SystemParams(3))
    g = AnalyticState(position_state(0, 3), SystemParams(3, 1.2))
    with pytest.raises(ValueError):
        scalar_product(f, g)


def test_displaced_f_identity_labels():
    params = SystemParams(3)
    rng = np.random.default_rng(9)
    s = AnalyticState(random_state(rng, 3), params)
    z = random_cell_point(rng, params)
    assert abs(displaced_f(s, 0, 0, z) - s(z)) < 1e-12 * max(1.0, abs(s(z)))


def test_displaced_f_shift_action():
    params = SystemParams(3)
    rng = np.random.default_rng(10)
    s = AnalyticState(random_state(rng, 3), params)
    step = np.sqrt(2 * np.pi / 3)
    for _ in range(4):
        z = random_cell_point(rng, params)
        assert abs(displaced_f(s, 0, 1, z) - s(z - step * params.lam)) < 1e-10
        phase = np.exp(1j * z / params.lam * step - np.pi / (3 * params.lam**2))
        expect = s(z + 1j * step / params.lam) * phase
        assert abs(displaced_f(s, 1, 0, z) - expect) < 1e-10 * max(1.0, abs(expect))


def test_displaced_f_matches_matrix_path():
    rng = np.random.default_rng(11)
    for d in (3, 4):
        params = SystemParams(d, 1.1)
        v = random_state(rng, d)
        s = AnalyticState(v, params)
        for alpha, beta in [(1, 0), (0, 1), (2, 1), (-1, 2), (3, 3)]:
            moved = AnalyticState(
                FiniteState(displacement(d, alpha, beta) @ v.components, normalize=False), params
            )
            for _ in range(3):
                z = random_cell_point(rng, params)
                ref = moved(z)
                assert abs(displaced_f(s, alpha, beta, z) - ref) < 1e-10 * max(1.0, abs(ref))


def test_kernel_identity_acts_as_identity():
    params = SystemParams(2)
    rng = np.random.default_rng(12)
    f = AnalyticState(random_state(rng, 2), params)
    kernel = OperatorKernel(np.eye(2), params)
    z = random_cell_point(rng, params)
    assert abs(kernel_apply(kernel, f, z) - f(z)) < 1e-6 * max(1.0, abs(f(z)))


def test_kernel_apply_rejects_a_kernel_of_other_params():
    f = AnalyticState(position_state(1, 3), SystemParams(3))
    for params in (SystemParams(3, 1.2), SystemParams(3, b=0.5)):
        with pytest.raises(ValueError, match="share the same system parameters"):
            kernel_apply(OperatorKernel(np.eye(3), params), f, 0.5 + 0.5j)


def test_kernel_fourier_matches_matrix_path():
    params = SystemParams(3)
    rng = np.random.default_rng(13)
    v = random_state(rng, 3)
    f = AnalyticState(v, params)
    F = fourier_matrix(3)
    kernel = OperatorKernel(F, params)
    moved = AnalyticState(FiniteState(F @ v.components, normalize=False), params)
    z = random_cell_point(rng, params)
    ref = moved(z)
    assert abs(kernel_apply(kernel, f, z) - ref) < 1e-6 * max(1.0, abs(ref))


def test_kernel_periodic_under_real_period_shift():
    params = SystemParams(3)
    rng = np.random.default_rng(14)
    op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    kernel = OperatorKernel(op, params)
    z, zeta = random_cell_point(rng, params), random_cell_point(rng, params)
    base = kernel_eval(kernel, z, zeta)
    assert abs(kernel_eval(kernel, z + params.cell_width, zeta) - base) < 1e-10 * abs(base)
    assert abs(kernel_eval(kernel, z, zeta + params.cell_width) - base) < 1e-10 * abs(base)


def test_kernel_imaginary_shift_growth():
    params = SystemParams(3)
    rng = np.random.default_rng(15)
    op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    kernel = OperatorKernel(op, params)
    z, zeta = random_cell_point(rng, params), random_cell_point(rng, params)
    growth = np.exp(np.pi * 3 / params.lam**2 - 1j * np.sqrt(2 * np.pi * 3) * z / params.lam)
    lhs = kernel_eval(kernel, z + 1j * params.cell_height, zeta)
    rhs = kernel_eval(kernel, z, zeta) * growth
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_weyl_expansion_identity_table():
    params = SystemParams(3)
    rng = np.random.default_rng(16)
    f = AnalyticState(random_state(rng, 3), params)
    table = weyl_function(np.eye(3))
    z = random_cell_point(rng, params)
    assert abs(apply_weyl_expansion(table, f, z) - f(z)) < 1e-10 * max(1.0, abs(f(z)))


def test_weyl_expansion_displacement():
    params = SystemParams(3)
    rng = np.random.default_rng(17)
    v = random_state(rng, 3)
    f = AnalyticState(v, params)
    D = displacement(3, 1, 1)
    moved = AnalyticState(FiniteState(D @ v.components, normalize=False), params)
    z = random_cell_point(rng, params)
    ref = moved(z)
    assert abs(apply_weyl_expansion(weyl_function(D), f, z) - ref) < 1e-8 * max(1.0, abs(ref))


def test_weyl_expansion_random_operator():
    rng = np.random.default_rng(18)
    for d in (3, 4):
        params = SystemParams(d)
        v = random_state(rng, d)
        f = AnalyticState(v, params)
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        moved = AnalyticState(FiniteState(op @ v.components, normalize=False), params)
        z = random_cell_point(rng, params)
        ref = moved(z)
        assert abs(apply_weyl_expansion(weyl_function(op), f, z) - ref) < 1e-8 * max(1.0, abs(ref))


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_weyl_expansion_matches_displaced_f_loop(d):
    # the sum of d^2 displaced f values that the operator product replaced, kept as the reference
    rng = np.random.default_rng(40 + d)
    params = SystemParams(d, 1.2)
    f = AnalyticState(random_state(rng, d), params)
    z = random_cell_point(rng, params)
    sparse = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    sparse[rng.random((d, d)) < 0.5] = 0.0
    sparse[0, -1] = 0.0
    for table in (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), sparse, np.zeros((d, d))):
        terms = [table[a, b] * displaced_f(f, -a, -b, z) for a in range(d) for b in range(d)]
        assert abs(apply_weyl_expansion(table, f, z) - sum(terms) / d) <= 1e-12 * sum(map(abs, terms)) / d


def test_coherent_identity_matrix_small_d():
    for d in (2, 3):
        dev = np.max(np.abs(coherent_identity_matrix(SystemParams(d)) - np.eye(d)))
        assert dev < 1e-5


def test_coherent_identity_matrix_anchor_independent():
    base = coherent_identity_matrix(SystemParams(2))
    shifted = coherent_identity_matrix(SystemParams(2, 1.0, a=-1.7, b=2.4))
    assert np.max(np.abs(base - np.eye(2))) < 1e-5
    assert np.max(np.abs(shifted - np.eye(2))) < 1e-5


QUAD_CASES = [(d, lam) for d in (1, 2, 5, 16, 64) for lam in (0.3, 1.0, 2.5)]


def anchored_params(d, lam):
    rng = np.random.default_rng([31, d, int(10 * lam)])
    return SystemParams(d, lam, *rng.uniform(-5.0, 5.0, size=2)), rng


@pytest.mark.parametrize("d, lam", QUAD_CASES)
def test_scalar_product_exact_on_every_cell(d, lam):
    params, rng = anchored_params(d, lam)
    f = AnalyticState(random_state(rng, d), params)
    g = AnalyticState(random_state(rng, d), params)
    bilinear = np.sum(f.state.components * g.state.components)
    assert abs(scalar_product(f, g) - bilinear) <= 1e-12


@pytest.mark.parametrize("d, lam", QUAD_CASES)
def test_coherent_identity_matrix_exact_on_every_cell(d, lam):
    params, _ = anchored_params(d, lam)
    assert np.max(np.abs(coherent_identity_matrix(params) - np.eye(d))) <= 1e-12


@pytest.mark.parametrize("d, lam", QUAD_CASES)
def test_kernel_apply_exact_on_every_cell(d, lam):
    params, rng = anchored_params(d, lam)
    v = random_state(rng, d)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    z = random_cell_point(rng, params)
    ref = AnalyticState(FiniteState(op @ v.components, normalize=False), params)(z)
    got = kernel_apply(OperatorKernel(op, params), AnalyticState(v, params), z)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_scalar_product_at_large_d():
    # 110 x 110 fine nodes at d = 256, 156 x 156 at d = 512
    for d in (256, 512):
        params = SystemParams(d)
        rng = np.random.default_rng(d)
        f = AnalyticState(random_state(rng, d), params)
        g = AnalyticState(random_state(rng, d), params)
        bilinear = np.sum(f.state.components * g.state.components)
        assert abs(scalar_product(f, g) - bilinear) <= 1e-12


def test_kernel_apply_at_large_d():
    d = 512
    params = SystemParams(d)
    rng = np.random.default_rng(d)
    v = random_state(rng, d)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    z = random_cell_point(rng, params)
    ref = AnalyticState(FiniteState(op @ v.components, normalize=False), params)(z)
    got = kernel_apply(OperatorKernel(op, params), AnalyticState(v, params), z)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_quadrature_factored_sums_match_pointwise_sums():
    # the node sums from row and column factors against the same trapezoid
    # rule summed over the values at each node
    params = SystemParams(5, 1.3, a=0.4, b=-2.0)
    rng = np.random.default_rng(5)
    f = AnalyticState(random_state(rng, 5), params)
    g = AnalyticState(random_state(rng, 5), params)
    op = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    z = random_cell_point(rng, params)

    def nodes(x, y):
        return x[None, :] + 1j * y[:, None]

    def amplitude_sum(x, y):
        t = coherent_unnormalized(nodes(x, y), params)
        return np.tensordot(t, t.conj(), axes=([0, 1], [0, 1]))

    def both_levels(node_sum):  # the fine sum and the sum over every other node
        return lambda x, y: (node_sum(x, y), node_sum(x[::2], y[::2]))

    pref = params.lam * (2 * np.pi * 5) ** -0.5
    pointwise = analytic._cell_trapezoid(params, both_levels(amplitude_sum), pref, "identity")
    assert np.max(np.abs(coherent_identity_matrix(params) - pointwise)) <= 1e-14

    pref = (2 * np.pi) ** -0.5 * 5 ** -1.5 / params.lam
    pointwise = analytic._cell_trapezoid(
        params, both_levels(lambda x, y: np.sum(f._weighted(nodes(x, y)) * g._weighted(np.conj(nodes(x, y))))),
        pref, "scalar")
    assert abs(scalar_product(f, g) - pointwise) <= 1e-14

    def kernel_sum(x, y):
        zeta = nodes(x, y)
        return np.sum(kernel_eval(OperatorKernel(op, params), z, np.conj(zeta)) * f._weighted(zeta)
                      * np.exp(-0.5 * zeta.imag**2))

    pref = (2 * np.pi * 5) ** -0.5 / params.lam
    pointwise = analytic._cell_trapezoid(params, both_levels(kernel_sum), pref, "kernel")
    got = kernel_apply(OperatorKernel(op, params), f, z)
    assert abs(got - pointwise) <= 1e-14 * max(1.0, abs(pointwise))


@pytest.mark.parametrize("d", [1, 2, 7, 64, 256, 1000])
def test_spectral_sum_matches_weighted_thetas(d):
    # f and f' are summed from the spectrum d ifft(a) of the amplitudes, on
    # the grid in row and column factors; the reference contracts the d
    # values theta_m(z).  Errors are judged against the sum of the moduli of
    # the terms, |a_m| exp(-pi (n - kappa y)^2 / (d lam^2)) (times 2c|n| for f')
    rng = np.random.default_rng([29, d])
    for lam in (0.3, 1.0, 2.5):
        params, _ = anchored_params(d, lam)
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        spectrum = d * np.fft.ifft(amps)
        x = params.a + params.cell_width * rng.uniform(size=7)
        y = params.b + params.cell_height * rng.uniform(size=5)
        z = x[None, :] + 1j * y[:, None]
        c = np.sqrt(np.pi / (2 * d)) / lam
        kappa = c * d * lam**2 / np.pi
        n = np.arange(np.floor(kappa * y.min()) - 400, np.ceil(kappa * y.max()) + 401)
        weights = np.exp(-np.pi * (n - kappa * y[:, None]) ** 2 / (d * lam**2))
        for order in (0, 1):
            scale = np.sum(np.abs(amps)) * (weights * (2 * c * np.abs(n)) ** order).sum(axis=1)[:, None]
            got = zak._spectral_sum(z, params, spectrum, order)
            ref = zak.weighted_thetas(z, params, order) @ amps
            assert np.all(np.abs(got - ref) <= 1e-13 * scale)
            if order == 0:
                assert np.all(np.abs(zak._spectral_grid(x, y, params, spectrum) - got) <= 1e-13 * scale)


@pytest.mark.parametrize("d,lam", [(1, 2.5), (7, 2.5), (192, 1.0), (1000, 1.0)])
def test_blocks_match_pointwise_evaluation(d, lam):
    # _spectral_sum and weighted_thetas go through the flattened points in
    # blocks of _BLOCK_TERMS // (terms per point) points; each point takes the
    # same arithmetic in any block, so the values equal those of the point
    # evaluated alone, bit for bit, on either side of the block boundaries
    params = SystemParams(d, lam)
    rng = np.random.default_rng([37, d])
    spectrum = d * np.fft.ifft(rng.normal(size=d) + 1j * rng.normal(size=d))
    width = params._window.width
    kernels = [(lambda z, k: zak._spectral_sum(z, params, spectrum, k), width),
               (lambda z, k: zak.weighted_thetas(z, params, k), -(-(width + d - 1) // d) * d)]
    for kernel, per_point in kernels:
        step = max(1, zak._BLOCK_TERMS // per_point)
        z = random_cell_points(rng, params, 3 * step + 5)
        for order in (0, 1, 2):
            alone = np.array([kernel(point, order) for point in z])  # each point as a 0-d z
            for count in {max(step - 1, 1), step, step + 1, 3 * step + 5}:
                assert kernel(z[:count], order).tobytes() == alone[:count].tobytes()
                # two rows, the second reversed, so rows and blocks straddle each other
                both = np.stack([z[:count], z[:count][::-1]])
                expect = np.stack([alone[:count], alone[:count][::-1]])
                got = kernel(both, order)
                assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def traced_peak(call):
    """The peak of traced memory, in bytes, while call() runs, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_f_memory_does_not_grow_with_points():
    # all 20 000 points at once held about 9 KB of live terms each, 185 MB;
    # in blocks the kernel holds a few blocks of _BLOCK_TERMS terms
    d = 1000
    params = SystemParams(d)
    rng = np.random.default_rng(43)
    f = AnalyticState(random_state(rng, d), params)
    z = params.cell_width * rng.uniform(size=20000) + 30j * rng.uniform(size=20000)
    f(z[:2])
    peak, values = traced_peak(lambda: f(z))
    assert values.shape == z.shape and np.all(np.isfinite(values))
    assert peak < 16e6


def test_weighted_thetas_memory_is_its_output_plus_blocks():
    d = 1000
    params = SystemParams(d)
    rng = np.random.default_rng(47)
    z = params.cell_width * rng.uniform(size=2000) + 30j * rng.uniform(size=2000)
    zak.weighted_thetas(z[:2], params, 1)
    peak, rows = traced_peak(lambda: zak.weighted_thetas(z, params, 1))
    assert rows.shape == (2000, d)
    assert peak < rows.nbytes + 16e6


@pytest.mark.parametrize("spread", [0.5e-6, 2e-6, 1e-3], ids=str)
@pytest.mark.parametrize("name", ["scalar_product", "kernel_apply", "coherent_identity_matrix"])
def test_quadratures_keep_the_fixed_1e6_rule(name, spread, monkeypatch):
    # node sums of size 1e12 whose coarse level is off by `spread` relative to the fine one (which sums
    # four times the nodes): below 1e-6 each public quadrature returns what agreeing levels give, the
    # fine level, and above it raises
    params = SystemParams(3)
    f = AnalyticState(position_state(0, 3), params)
    call = {"scalar_product": lambda: scalar_product(f, f),
            "kernel_apply": lambda: kernel_apply(OperatorKernel(np.eye(3), params), f, 0.5j),
            "coherent_identity_matrix": lambda: coherent_identity_matrix(params)}[name]

    def levels(coarse):
        monkeypatch.setattr(analytic, "_pair_sums", lambda *args: (4e12, 1e12 * coarse))
        monkeypatch.setattr(analytic, "_coherent_gram", lambda *args: (4e12 * np.eye(3), 1e12 * coarse * np.eye(3)))

    levels(1.0)
    exact = call()
    levels(1.0 + spread)
    if spread < 1e-6:
        assert np.array_equal(call(), exact)
    else:
        with pytest.raises(RuntimeError, match=rf"^{name}: quadrature did not converge to 1e-06: "
                                               r"the trapezoid sums on \d+ x \d+ and \d+ x \d+ nodes differ by "):
            call()


def test_analytic_state_dimension_mismatch():
    with pytest.raises(ValueError):
        AnalyticState(position_state(0, 3), SystemParams(4))


@pytest.mark.parametrize("d", [8, 16])
@pytest.mark.parametrize("height_frac", [0.9, 0.99])
def test_kernel_apply_converges_in_upper_cell(d, height_frac):
    # |(Omega f)(z)| grows like exp(Im(z)^2 / 2), so convergence is judged
    # relative to the value there
    params = SystemParams(d)
    rng = np.random.default_rng([17, d])
    v = random_state(rng, d)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    moved = AnalyticState(FiniteState(op @ v.components, normalize=False), params)
    z = complex(0.37 * params.cell_width, height_frac * params.cell_height)
    ref = moved(z)
    got = kernel_apply(OperatorKernel(op, params), AnalyticState(v, params), z)
    assert abs(got - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("height_frac", [0.95, 0.98])
def test_kernel_apply_raises_where_its_value_overflows(height_frac):
    # at d = 256, exp(Im(z)^2 / 2) alone exceeds the double range at these
    # heights; the call raises the error f raises there, with no warning
    # (RuntimeWarnings fail the suite)
    d = 256
    params = SystemParams(d)
    f = AnalyticState(random_state(np.random.default_rng([23, d]), d), params)
    z = complex(0.37 * params.cell_width, height_frac * params.cell_height)
    with pytest.raises(RuntimeError, match=r"^f is not finite at z = .* for d = 256"):
        f(z)
    with pytest.raises(RuntimeError, match=r"^kernel_apply is not finite at z = .* for d = 256"):
        kernel_apply(OperatorKernel(np.eye(d), params), f, z)


def mp_thetas(d, lam, ms, z, derivative=False):
    """exp(-Im(z)^2/2) theta3[pi m/d - c z; i/(d lam^2)] (or its z-derivative) by mpmath jtheta.

    jtheta sums the Jacobi-transformed series

        theta3(u; i/(d lam^2)) = lam sqrt(d) exp(-d lam^2 u^2 / pi) theta3(-i d lam^2 u; i d lam^2),

    with Re(u) first reduced into [-pi/2, pi/2]; it converges in a few terms
    at every height, and is not the sum over n that the kernel takes.
    """
    with mpmath.workdps(30):
        lam = mpmath.mpf(lam)
        c = mpmath.sqrt(mpmath.pi / (2 * d)) / lam
        g = d * lam * lam
        q = mpmath.exp(-mpmath.pi * g)
        zz = mpmath.mpc(z.real, z.imag)
        out = []
        for m in ms:
            u = mpmath.pi * m / d - c * zz
            u -= mpmath.pi * mpmath.nint(u.real / mpmath.pi)
            w = -1j * g * u
            pref = lam * mpmath.sqrt(d) * mpmath.exp(-g * u * u / mpmath.pi - zz.imag**2 / 2)
            t = mpmath.jtheta(3, w, q)
            if derivative:  # d/dz = -c d/du
                t = -c * (-2 * g * u / mpmath.pi * t - 1j * g * mpmath.jtheta(3, w, q, 1))
            out.append(complex(pref * t))
        return np.array(out)


@pytest.mark.parametrize("d", [1, 2, 7, 64, 256, 1000])
def test_weighted_kernel_matches_mpmath(d):
    # the weighted values are sums of Gaussian-weighted terms of modulus at most
    # 1 (times 2c|n| for f'); errors are judged against the sum of those moduli
    ms = sorted({0, 1 % d, d // 3, d - 1})
    rng = np.random.default_rng([23, d])
    for lam in (0.3, 1.0, 2.5):
        params = SystemParams(d, lam)
        c = np.sqrt(np.pi / (2 * d)) / lam
        kappa = c * d * lam**2 / np.pi
        amps = np.zeros(d, dtype=complex)
        amps[ms] = rng.normal(size=len(ms)) + 1j * rng.normal(size=len(ms))
        s = AnalyticState(FiniteState(amps), params)
        a = s.state.components[ms]
        for h in (0.0, 0.5, 0.9, 0.999):
            z = complex(0.37 * params.cell_width, h * params.cell_height)
            n = np.arange(np.floor(kappa * z.imag) - 400, np.ceil(kappa * z.imag) + 401)
            weights = np.exp(-np.pi * (n - kappa * z.imag) ** 2 / (d * lam**2))
            theta, dtheta = mp_thetas(d, lam, ms, z), mp_thetas(d, lam, ms, z, derivative=True)

            pref = np.pi**-0.25 / (np.sqrt(d) * lam)
            got = coherent_unnormalized(z, params)[ms]
            ref = pref * np.exp(0.5j * z.real * z.imag) * theta
            assert np.max(np.abs(got - ref)) <= 1e-12 * pref * np.sum(weights)

            scale = np.pi**-0.25 * np.sum(np.abs(a))
            assert abs(s._weighted(z) - np.pi**-0.25 * a @ theta) <= 1e-12 * scale * np.sum(weights)
            assert abs(s._weighted(z, derivative=True) - np.pi**-0.25 * a @ dtheta) \
                <= 1e-12 * scale * np.sum(2 * c * np.abs(n) * weights)


def per_term_series(z, d, lam, order):
    """(n, terms) of the swapped series at each z, one complex exponential per term.

    The n run over K + 3 either side of round(kappa y), a wider window than
    the kernel's, built here independently of it.
    """
    c = np.sqrt(np.pi / (2 * d)) / lam
    kappa = c * d * lam**2 / np.pi
    half = int(np.ceil(np.sqrt(41 * d * lam**2 / np.pi))) + 3
    n = np.round(kappa * z.imag)[:, None].astype(np.int64) + np.arange(-half, half + 1)
    terms = np.exp(-np.pi * (n - kappa * z.imag[:, None]) ** 2 / (d * lam**2) - 2j * c * n * z.real[:, None])
    return n, terms * (-2j * c * n) ** order


@pytest.mark.parametrize("d,lam", [(1, 0.05), (1, 0.1), (2, 0.05), (7, 2.5), (64, 1.0), (1000, 0.3)])
def test_phase_powers_match_per_term_exponentials(d, lam):
    # the kernel builds the phases of a point as powers of one phase and takes
    # the Gaussian weights as they are; at d lam^2 <= 0.01 those weights split
    # into a per-point ratio times a fixed e^{-pi j^2 / (d lam^2)} overflow.
    # Errors are judged against the sum of the moduli of the terms, plus eps
    # times the size of the term exponents, about |x| |y| + 2cK (|x| + |y|),
    # which every double evaluation rounds: at d = 1000, lam = 0.3 and 40
    # above the cell that size is 2e4, and the error 2.6e-12 against mpmath
    eps = np.finfo(float).eps
    heights = np.array([0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999])
    c = np.sqrt(np.pi / (2 * d)) / lam
    two_c_k = 2 * c * np.sqrt(41 * d * lam**2 / np.pi)
    ms = sorted({0, 1 % d, d // 3, d - 1})
    rng = np.random.default_rng([31, d, int(100 * lam)])
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    spectrum = d * np.fft.ifft(amps)
    few = np.zeros(d, dtype=complex)
    few[ms] = amps[ms]
    for a in (0.0, 40.0, -40.0):
        for b in (0.0, 40.0, -40.0):
            params = SystemParams(d, lam, a, b)
            z = a + params.cell_width * rng.uniform(size=heights.size) + 1j * (b + params.cell_height * heights)
            size = np.abs(z.real * z.imag) + two_c_k * (np.abs(z.real) + np.abs(z.imag))
            tol = 1e-12 + eps * size
            for order in (0, 1, 2):
                with np.errstate(over="raise", invalid="raise"):
                    got = zak._spectral_sum(z, params, spectrum, order)
                    thetas = zak.weighted_thetas(z, params, order)
                    few_got = zak._spectral_sum(z, params, d * np.fft.ifft(few), order)
                assert np.all(np.isfinite(got)) and np.all(np.isfinite(thetas))
                n, terms = per_term_series(z, d, lam, order)
                summands = terms * spectrum[n % d]
                assert np.all(np.abs(got - summands.sum(axis=1)) <= tol * np.abs(summands).sum(axis=1))
                ref = np.einsum("pj,pjm->pm", terms, np.exp(2j * np.pi / d * (n % d)[:, :, None] * np.arange(d)))
                moduli = np.abs(terms).sum(axis=1)
                assert np.all(np.abs(thetas - ref) <= (tol * moduli)[:, None])
                if order < 2 and a == b == 40.0:
                    # mpmath at the bottom and the top of the cell
                    for k in (0, heights.size - 1):
                        mp = mp_thetas(d, lam, ms, z[k], derivative=bool(order))
                        assert np.max(np.abs(thetas[k, ms] - mp)) <= tol[k] * moduli[k]
                        assert abs(few_got[k] - amps[ms] @ mp) <= tol[k] * moduli[k] * np.sum(np.abs(amps[ms]))


def test_values_near_double_range():
    # at d = 226 near the top of the cell |f| is about 1.4e308: finite, and
    # evaluated without overflow because every term is weighted first
    d = 226
    params = SystemParams(d)
    s = AnalyticState(random_state(np.random.default_rng(18), d), params)
    amps, ms = s.state.components, np.arange(d)
    x = 0.37 * params.cell_width
    z = complex(x, 0.999 * params.cell_height)
    lift = np.exp(0.25 * z.imag**2)
    ref = np.pi**-0.25 * (amps @ mp_thetas(d, 1.0, ms, z)) * lift * lift
    assert abs(s(z) - ref) <= 1e-12 * abs(ref)
    z = complex(x, 0.995 * params.cell_height)
    lift = np.exp(0.5 * z.imag**2)
    ref = np.pi**-0.25 * (amps @ mp_thetas(d, 1.0, ms, z, derivative=True)) * lift
    assert abs(s.derivative(z) - ref) <= 1e-12 * abs(ref)
    moved = displacement(d, 1, 2) @ amps
    ref = np.pi**-0.25 * (moved @ mp_thetas(d, 1.0, ms, z)) * lift
    assert abs(displaced_f(s, 1, 2, z) - ref) <= 1e-12 * abs(ref)


def test_non_finite_values_raise():
    # at d = 256, 0.98 of the way up the cell, log|f| is about 772, beyond
    # the double range (709.78)
    d = 256
    params = SystemParams(d)
    s = AnalyticState(random_state(np.random.default_rng(18), d), params)
    z = complex(0.37 * params.cell_width, 0.98 * params.cell_height)
    assert np.log(abs(s._weighted(z))) + 0.5 * z.imag**2 > 709.79
    with pytest.raises(RuntimeError, match="f is not finite .* d = 256"):
        s(z)
    with pytest.raises(RuntimeError, match="f' is not finite .* d = 256"):
        s.derivative(z)
    with pytest.raises(RuntimeError, match="displaced f is not finite .* d = 256"):
        displaced_f(s, 1, 2, z)
    with pytest.raises(RuntimeError, match="kernel_eval is not finite .* d = 256"):
        kernel_eval(OperatorKernel(np.eye(d), params), z, np.conj(z))
    with pytest.raises(RuntimeError, match="momentum_form is not finite .* d = 256"):
        momentum_form(3, params, z)
    with pytest.raises(RuntimeError, match="coherent_form is not finite .* d = 256"):
        coherent_form(0.3 + 0.2j, params, z)


@pytest.mark.parametrize("height", [1e9, 1e12, -1e12])
def test_far_heights_raise_beyond_the_double_range(height):
    # G was gathered by np.take in wrap mode on the full n, about |n| / d
    # steps per term, so f at Im z = 1e12 never returned
    params = SystemParams(8)
    s = AnalyticState(random_state(np.random.default_rng(53), 8), params)
    x = 0.3 + 0.7 * np.arange(3)
    grid = x[None, :] + 1j * (height + 0.5 * np.arange(2))[:, None]
    for points in (complex(x[0], height), x + 1j * height, grid):
        for call in (s, s.derivative, lambda z: displaced_f(s, 1, 2, z)):
            with pytest.raises(RuntimeError, match="exceeds the double range"):
                call(points)


def test_heights_beyond_consecutive_doubles_raise():
    # past kappa |y| = 2^53 doubles no longer hold consecutive n
    params = SystemParams(8)
    s = AnalyticState(random_state(np.random.default_rng(57), 8), params)
    limit = 2.0**53 / params._window.kappa
    with pytest.raises(RuntimeError, match="exceeds the double range"):
        s(complex(0.3, 0.99 * limit))
    x = 0.3 + 0.7 * np.arange(3)
    for height in (1.01 * limit, -1.01 * limit):
        grid = x[None, :] + 1j * (height + 0.5 * np.arange(2))[:, None]
        for points in (complex(x[0], height), x + 1j * height, grid):
            for call in (s, s.derivative, lambda z: displaced_f(s, 1, 2, z)):
                with pytest.raises(ValueError, match="too far out"):
                    call(points)
    far = SystemParams(8, b=1.01 * limit)
    f = AnalyticState(s.state, far)
    for call in (lambda: scalar_product(f, f), lambda: coherent_identity_matrix(far),
                 lambda: kernel_apply(OperatorKernel(np.eye(8), far), f, 0.3 + 0.2j), lambda: find_zeros(f)):
        with pytest.raises(ValueError, match="too far out"):
            call()


def test_far_anchored_quadratures_cost_what_they_cost_at_the_origin():
    # at b = 1e8 the gather of G on the full n took 4.4 s at d = 8, against
    # 2 ms at b = 0
    d = 8
    rng = np.random.default_rng(59)
    u, v = random_state(rng, d), random_state(rng, d)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    z = 0.7 + 1.1j
    seconds = {}
    for b in (0.0, 1e8):
        params = SystemParams(d, b=b)
        f, g = AnalyticState(u, params), AnalyticState(v, params)
        kernel = OperatorKernel(op, params)
        ref = AnalyticState(FiniteState(op @ u.components, normalize=False), params)(z)
        assert abs(scalar_product(f, g) - np.sum(u.components * v.components)) <= 1e-6
        assert abs(kernel_apply(kernel, f, z) - ref) <= 1e-6 * max(1.0, abs(ref))
        seconds[b] = min(timeit.repeat(lambda: (scalar_product(f, g), kernel_apply(kernel, f, z)),
                                       number=1, repeat=5))
    assert seconds[1e8] <= 10 * seconds[0.0]


def test_kernel_eval_near_double_range():
    # (y1^2 + y2^2) / 2 = 712 lies beyond the double range, yet the value, with
    # a kernel scaled by 1e-6, does not: the lift is applied in two halves
    d = 128
    params = SystemParams(d)
    rng = np.random.default_rng(128)
    op = 1e-6 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    y = np.sqrt(712.0)
    z, zeta_star = complex(0.37 * params.cell_width, y), complex(0.61 * params.cell_width, y)
    ms = np.arange(d)
    weighted = mp_thetas(d, 1.0, ms, z) @ op @ mp_thetas(d, 1.0, ms, zeta_star)
    ref = complex(mpmath.mpc(weighted) * mpmath.exp(712) / (mpmath.sqrt(mpmath.pi) * d))
    got = kernel_eval(OperatorKernel(op, params), z, zeta_star)
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("d,lam", [(1, 1.0), (2, 0.7), (5, 1.3), (16, 1.0), (64, 1.0), (192, 1.0)])
def test_laurent_terms_sum_to_f(d, lam):
    params = SystemParams(d, lam, a=-0.4, b=0.3)
    s = AnalyticState(random_state(np.random.default_rng([19, d]), d), params)
    c = np.sqrt(np.pi / (2 * d)) / lam
    x = params.a + np.arange(12) / 12 * params.cell_width
    y = params.b + np.linspace(0.0, 1.0, 5) * params.cell_height
    ref = s(x[None, :] + 1j * y[:, None])
    # one band of zero span at each height, all from one call
    for yi, row, (k, a) in zip(y, ref, _band_terms(s, y, y)):
        series = np.exp(0.5 * yi**2) * np.exp(-2j * c * np.outer(x, k)) @ a
        assert np.max(np.abs(series - row)) <= 1e-12 * np.max(np.abs(row))


def test_spectrum_computed_once_and_left_unchanged_by_find_zeros(monkeypatch):
    # a momentum state has one nonzero entry of G; _band_terms zeroes the
    # rounding-level rest in a copy, never in the spectrum f is summed from
    d = 16
    params = SystemParams(d)
    calls = []
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: calls.append(1) or ifft(*a, **k))
    s = AnalyticState(momentum_state(3, d), params)
    z = np.array([0.3 + 0.2j, 1.7 + 4.1j, 5.2 + 9.0j])
    before = s(z)
    for point in z:
        s(point), s.derivative(point)
    assert len(calls) == 1
    monkeypatch.setattr(np.fft, "ifft", ifft)
    assert find_zeros(s).positions.size > 0
    assert s(z).tobytes() == before.tobytes()
    assert not s._spectrum.flags.writeable


# ---------------------------------------------------------------------------
# f on tensor grids: one matrix product of row and column factors


GRID_LAYOUTS = {
    "x fastest": lambda x, y: x[None, :] + 1j * y[:, None],
    "x fastest, flat": lambda x, y: (x[None, :] + 1j * y[:, None]).ravel(),
    "x fastest, 3-d": lambda x, y: (x[None, :] + 1j * y[:, None]).reshape(y.size, 1, x.size),
    "y fastest": lambda x, y: x[:, None] + 1j * y[None, :],
    "y fastest, flat": lambda x, y: (x[:, None] + 1j * y[None, :]).ravel(),
}


def count_grid_calls(monkeypatch):
    """The calls of the grid kernel from now on, as a growing list."""
    calls, grid = [], zak._spectral_grid

    def counted(*args):
        calls.append(args)
        return grid(*args)

    monkeypatch.setattr(zak, "_spectral_grid", counted)
    return calls


def pointwise(evaluate, z):
    """evaluate at each point of z on its own, as a 0-d z: the pointwise kernel, bit for bit."""
    return np.array([evaluate(point) for point in np.ravel(z)]).reshape(np.shape(z))


def weighted_term_scale(s, heights, order):
    """pi**-1/4 sum_n |G_{n mod d}| exp(-pi (n - kappa y)^2 / (d lam^2)) (2c|n|)^order at each height y.

    The sum of the moduli of the weighted terms of f (order 0) or f' (order 1).
    """
    d, lam = s.params.d, s.params.lam
    c, kappa = s.params._window.c, s.params._window.kappa
    y = np.ravel(heights)
    n = np.arange(np.floor(kappa * y.min()) - 400, np.ceil(kappa * y.max()) + 401)
    terms = np.exp(-np.pi * (n - kappa * y[:, None]) ** 2 / (d * lam**2)) * (2 * c * np.abs(n)) ** order
    return np.pi**-0.25 * (terms @ np.abs(s._spectrum[n.astype(int) % d])).reshape(np.shape(heights))


@pytest.mark.parametrize("d", [1, 2, 7, 64, 256, 1000])
def test_grid_matches_pointwise_evaluation(d, monkeypatch):
    # weighted f and f', which stay finite over the whole cell at every d;
    # both kernels round the node phase argument alike, so they differ by
    # the order of their products and sums only
    rng = np.random.default_rng([53, d])
    calls = count_grid_calls(monkeypatch)
    for lam in (0.3, 1.0, 2.5):
        params, _ = anchored_params(d, lam)
        s = AnalyticState(random_state(rng, d), params)
        x = params.a + params.cell_width * rng.uniform(size=7)
        y = params.b + params.cell_height * rng.uniform(size=6)
        for order in (0, 1):
            for layout in GRID_LAYOUTS.values():
                z = layout(x, y)
                before = len(calls)
                got = s._weighted(z, bool(order))
                assert len(calls) == before + 1 and got.shape == z.shape
                ref = pointwise(lambda point: s._weighted(point, bool(order)), z)
                assert np.all(np.abs(got - ref) <= 1e-13 * weighted_term_scale(s, z.imag, order))


def test_near_grids_take_the_pointwise_path(monkeypatch):
    d = 64
    params = SystemParams(d)
    rng = np.random.default_rng(59)
    s = AnalyticState(random_state(rng, d), params)
    x = params.cell_width * rng.uniform(size=5)
    y = params.cell_height * rng.uniform(size=4)
    grid = x[None, :] + 1j * y[:, None]
    calls = count_grid_calls(monkeypatch)
    s(grid)
    s(grid[:2, :2])
    assert len(calls) == 2  # the smallest grid, 2 x 2, is one
    moved_x, moved_y, moved_last = grid.copy(), grid.copy(), (x[:, None] + 1j * y[None, :]).ravel()
    moved_x[2, 3] = complex(np.nextafter(x[3], np.inf), y[2])
    moved_y[1, 0] = complex(x[0], np.nextafter(y[1], -np.inf))
    moved_last[-1] = complex(x[-1], np.nextafter(y[-1], np.inf))
    near = [moved_x, moved_y, moved_last, grid[:1], grid[:, :1], grid[:1].ravel(), grid[:, :1].ravel(),
            grid.ravel()[[0, 1, 5]], grid[:1, :1], grid[0, 0]]
    for z in near:
        for evaluate in (s, s.derivative):
            assert np.asarray(evaluate(z)).tobytes() == pointwise(evaluate, z).tobytes()
    assert len(calls) == 2


@pytest.mark.parametrize("layout", ["x fastest", "y fastest"])
def test_grid_overflow_names_the_pointwise_point(layout, monkeypatch):
    # over the whole cell at d = 256 |f| exceeds the double range near the
    # top; the grid raises the error the pointwise kernel raises, naming the
    # first such point in the order of z
    d = 256
    params = SystemParams(d)
    s = AnalyticState(random_state(np.random.default_rng(61), d), params)
    x = params.cell_width * np.arange(40) / 40
    y = params.cell_height * np.arange(30) / 30
    z = GRID_LAYOUTS[layout](x, y)
    calls = count_grid_calls(monkeypatch)
    with pytest.raises(RuntimeError, match=r"^f is not finite at z = .* for d = 256") as grid_error:
        s(z)
    assert len(calls) == 1
    for row in z:  # a single row is no grid
        try:
            s(row)
        except RuntimeError as error:
            assert str(grid_error.value) == str(error)
            break
    else:
        raise AssertionError("no row overflows")
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_grid_with_non_finite_points_raises(bad):
    params = SystemParams(16)
    s = AnalyticState(random_state(np.random.default_rng(67), 16), params)
    for part in ("real", "imag"):
        # a whole column or row of bad values, so that infinities keep the grid a grid
        x, y = np.linspace(0.5, 9.5, 5), np.linspace(0.5, 9.5, 4)
        (x if part == "real" else y)[2] = bad
        z = np.empty((4, 5), dtype=complex)
        z.real, z.imag = x[None, :], y[:, None]
        for evaluate in (s, s.derivative):
            with pytest.raises(ValueError, match="z must be finite"):
                evaluate(z)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from([1, 3, 8, 32]), lam=st.sampled_from([0.4, 1.0, 2.5]),
       xs=st.lists(st.floats(0, 1), min_size=1, max_size=6),
       ys=st.lists(st.floats(0, 1), min_size=1, max_size=6),
       layout=st.sampled_from(sorted(GRID_LAYOUTS)), seed=st.integers(0, 2**32 - 1))
def test_f_on_any_grid_equals_pointwise_f(d, lam, xs, ys, layout, seed):
    params = SystemParams(d, lam)
    s = AnalyticState(random_state(np.random.default_rng(seed), d), params)
    z = GRID_LAYOUTS[layout](params.cell_width * np.array(xs), params.cell_height * np.array(ys))
    got = s(z)
    assert got.shape == z.shape
    scale = weighted_term_scale(s, z.imag, 0) * np.exp(0.5 * z.imag**2)
    assert np.all(np.abs(got - pointwise(s, z)) <= 1e-13 * scale)


def quadrature_grid(params):
    """The fine nodes (x, y) that _cell_trapezoid hands its integrand."""
    grid = []
    analytic._cell_trapezoid(params, lambda x, y: grid.append((x, y)) or (0.0, 0.0), 1.0, "grid")
    return grid[0]


def captured_integral(monkeypatch, quadrature, *args):
    """The function of the nodes that `quadrature` hands to _cell_trapezoid."""
    seen, trapezoid = [], analytic._cell_trapezoid

    def spy(params, integral, *rest):
        seen.append(integral)
        return trapezoid(params, integral, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(analytic, "_cell_trapezoid", spy)
        quadrature(*args)
    return seen[0]


def level_sums(node_sum, x, y):
    """node_sum on the grid and on its every other node, as _cell_trapezoid asks of its integrand."""
    return np.array([node_sum(x, y), node_sum(x[::2], y[::2])])


def grid_nodes(x, y):
    return x[None, :] + 1j * y[:, None]


@pytest.mark.parametrize("d", [1, 2, 7, 64, 256])
def test_quadrature_sums_match_node_sums(d, monkeypatch):
    # the sums over x in closed form against the same trapezoid sums taken node by node, on the fine grid
    # and on its every other node, relative to the sum of the moduli of the terms; at d = 1, lam = 0.3 the
    # window of live n is wider than the 4 abscissae, so the fold wraps more than one period
    rng = np.random.default_rng([71, d])
    for lam in (0.3, 1.0, 2.5):
        params, _ = anchored_params(d, lam)
        x, y = quadrature_grid(params)
        f, g = AnalyticState(random_state(rng, d), params), AnalyticState(random_state(rng, d), params)

        got = captured_integral(monkeypatch, scalar_product, f, g)(x, y)
        ref = level_sums(lambda x, y: np.sum(f._weighted(grid_nodes(x, y)) * g._weighted(grid_nodes(x, -y))), x, y)
        scale = level_sums(lambda x, y: x.size * weighted_term_scale(f, y, 0) @ weighted_term_scale(g, -y, 0), x, y)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

        # kernel_apply: the kernel row at z contracted with the thetas at the conjugate nodes, times f
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        z = random_cell_point(rng, params)
        row = zak.weighted_thetas(z, params) @ op
        got = captured_integral(monkeypatch, kernel_apply, OperatorKernel(op, params), f, z)(x, y)
        ref = level_sums(lambda x, y: np.pi**-0.5 / d * np.sum(
            (zak.weighted_thetas(grid_nodes(x, -y), params) @ row) * f._weighted(grid_nodes(x, y))), x, y)
        row_state = AnalyticState(FiniteState(np.pi**-0.25 / d * row, normalize=False), params)
        scale = level_sums(
            lambda x, y: x.size * weighted_term_scale(f, y, 0) @ weighted_term_scale(row_state, -y, 0), x, y)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

        if d > 64:
            continue
        got = captured_integral(monkeypatch, coherent_identity_matrix, params)(x, y)

        def amplitude_sum(x, y):
            t = coherent_unnormalized(grid_nodes(x, y), params)
            return np.tensordot(t, t.conj(), axes=([0, 1], [0, 1]))

        # |t_m| <= |p| sum_n g_n(y), |p|^2 = pi**-1/2 / (d lam^2): see analytic._coherent_gram
        kappa = params._window.kappa
        n = np.arange(np.floor(kappa * y.min()) - 400, np.ceil(kappa * y.max()) + 401)
        gauss = np.exp(-np.pi * (n - kappa * y[:, None]) ** 2 / (d * lam**2)).sum(axis=1)
        scale = np.pi**-0.5 / (d * lam**2) * np.array([x.size * gauss @ gauss, x.size // 2 * gauss[::2] @ gauss[::2]])
        assert np.all(np.abs(got - level_sums(amplitude_sum, x, y)) <= 1e-13 * scale[:, None, None])


def test_cell_trapezoid_evaluates_once_and_keeps_its_tolerance_rule():
    # the integrand gets the fine grid once and returns both levels; the levels must agree within tol,
    # absolute up to the floor 1 and relative above, or the unchanged message is raised
    params = SystemParams(7, 1.3, a=0.4, b=-2.0)
    grids = []

    def levels(fine, coarse):  # an integrand whose scaled fine and coarse sums are these
        def integral(x, y):
            grids.append((x, y))
            weight = params.cell_width * params.cell_height * 4 / (x.size * y.size)
            return 4 * fine / weight, coarse / weight
        return integral

    for value, converges in ((1e-3, True), (1e3, True), (1e-3, False), (1e3, False)):
        close = 1e-6 * max(1.0, value) * (0.5 if converges else 2.0)
        grids.clear()
        if converges:
            got = analytic._cell_trapezoid(params, levels(value, value + close), 1.0, "label")
            assert got == pytest.approx(value)
        else:
            with pytest.raises(RuntimeError) as err:
                analytic._cell_trapezoid(params, levels(value, value + close), 1.0, "label")
            nx, ny = grids[0][0].size // 2, grids[0][1].size // 2
            assert str(err.value) == (f"label: quadrature did not converge to 1e-06: the trapezoid sums on "
                                      f"{nx} x {ny} and {2 * nx} x {2 * ny} nodes differ by {close:.2e}")
        assert len(grids) == 1
        x, y = grids[0]
        assert x[0] == params.a and y[0] == params.b and x.size % 2 == 0 and y.size % 2 == 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 48), lam=st.floats(0.3, 3.0), a=st.floats(-10, 10), b=st.floats(-10, 10),
       seed=st.integers(0, 2**32 - 1))
def test_scalar_product_equals_bilinear_sum_on_any_cell(d, lam, a, b, seed):
    params = SystemParams(d, lam, a, b)
    rng = np.random.default_rng(seed)
    f, g = AnalyticState(random_state(rng, d), params), AnalyticState(random_state(rng, d), params)
    assert abs(scalar_product(f, g) - np.sum(f.state.components * g.state.components)) <= 1e-10
