"""Evaluation of f(z), closed forms, the cell scalar product, and operators."""

import mpmath
import numpy as np
import pytest

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
    # each closed variant is exact on its own parity; they are not
    # interchangeable, so the dispatcher must pick by parity of d
    rng = np.random.default_rng(7)
    for d, form in ((4, "even"), (5, "general")):
        params = SystemParams(d)
        label = 0.4 - 0.3j
        s = AnalyticState(coherent_state_closed(label, params), params)
        for _ in range(5):
            z = random_cell_point(rng, params)
            val = s(z)
            assert abs(coherent_form(label, params, z, form=form) - val) < 1e-10 * max(1.0, abs(val))
            auto = coherent_form(label, params, z)
            assert abs(auto - val) < 1e-10 * max(1.0, abs(val))


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


def test_coherent_identity_matrix_small_d():
    for d in (2, 3):
        dev = np.max(np.abs(coherent_identity_matrix(SystemParams(d)) - np.eye(d)))
        assert dev < 1e-5


def test_coherent_identity_matrix_anchor_independent():
    base = coherent_identity_matrix(SystemParams(2))
    shifted = coherent_identity_matrix(SystemParams(2, 1.0, a=-1.7, b=2.4))
    assert np.max(np.abs(base - np.eye(2))) < 1e-5
    assert np.max(np.abs(shifted - np.eye(2))) < 1e-5


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


@pytest.mark.parametrize("d,lam", [(1, 1.0), (2, 0.7), (5, 1.3), (16, 1.0), (64, 1.0), (192, 1.0)])
def test_laurent_terms_sum_to_f(d, lam):
    params = SystemParams(d, lam, a=-0.4, b=0.3)
    s = AnalyticState(random_state(np.random.default_rng([19, d]), d), params)
    c = np.sqrt(np.pi / (2 * d)) / lam
    x = params.a + np.arange(12) / 12 * params.cell_width
    y = params.b + np.linspace(0.0, 1.0, 5) * params.cell_height
    ref = s(x[None, :] + 1j * y[:, None])
    for yi, row in zip(y, ref):
        k, a, scale = s.laurent_terms(yi, yi)
        series = np.exp(scale) * np.exp(-2j * c * np.outer(x, k)) @ a
        assert np.max(np.abs(series - row)) <= 1e-12 * np.max(np.abs(row))
