"""Fourier matrix, displacement algebra, and the phase-space transform pair."""

import numpy as np
import pytest

from finiteq import (
    FiniteState,
    PhasePoint,
    clock_matrix,
    displaced_state,
    displacement,
    fourier_matrix,
    is_unitary,
    momentum_operator,
    momentum_state,
    operator_from_weyl,
    position_operator,
    position_state,
    shift_matrix,
    weyl_function,
)
from finiteq.hilbert import half_power


def random_state(rng, d):
    return FiniteState(rng.normal(size=d) + 1j * rng.normal(size=d))


def test_fourier_d2_explicit():
    F = fourier_matrix(2)
    expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(F - expect)) < 1e-15


def test_fourier_unitary_and_fourth_power():
    for d in range(2, 9):
        F = fourier_matrix(d)
        assert np.max(np.abs(F @ F.conj().T - np.eye(d))) < 1e-12
        assert is_unitary(F) and not is_unitary(2 * F)
        assert np.max(np.abs(np.linalg.matrix_power(F, 4) - np.eye(d))) < 1e-12


@pytest.mark.parametrize("excess, unitary", [(0.5e-10, True), (0.9e-10, True), (1.1e-10, False), (2e-10, False)])
def test_is_unitary_reads_a_fixed_1e10(excess, unitary):
    # op op^dagger = diag(1 + excess, 1, 1) up to rounding, so op passes exactly when excess <= 1e-10
    op = np.diag([np.sqrt(1 + excess), 1.0, 1.0]) @ fourier_matrix(3)
    assert is_unitary(op) is unitary


def test_fourier_maps_position_to_momentum():
    d, m = 5, 3
    out = fourier_matrix(d) @ position_state(m, d).components
    assert np.max(np.abs(out - momentum_state(m, d).components)) < 1e-14


def test_state_needs_a_component():
    with pytest.raises(ValueError, match="state needs at least one component"):
        FiniteState([])


def test_fourier_rejects_zero_dimension():
    with pytest.raises(ValueError):
        fourier_matrix(0)


def test_position_state_basis_vector():
    assert np.allclose(position_state(0, 3).components, [1, 0, 0])


def test_momentum_zero_is_uniform():
    for d in (2, 5, 7):
        assert np.max(np.abs(momentum_state(0, d).components - 1 / np.sqrt(d))) < 1e-15


def test_position_momentum_overlaps():
    d = 4
    for m in range(d):
        for n in range(d):
            ov = position_state(m, d).inner(momentum_state(n, d))
            assert abs(ov - np.exp(2j * np.pi * m * n / d) / np.sqrt(d)) < 1e-14


def test_fourier_conjugation_of_position_and_momentum_operators():
    for d in range(3, 7):
        F = fourier_matrix(d)
        x = position_operator(d)
        p = momentum_operator(d)
        assert np.max(np.abs(F @ x @ F.conj().T - p)) < 1e-12
        neg_x = np.diag([(-n) % d for n in range(d)]).astype(complex)
        assert np.max(np.abs(F @ p @ F.conj().T - neg_x)) < 1e-12


def test_displacement_identity_at_origin():
    for d in (2, 5):
        assert np.max(np.abs(displacement(d, 0, 0) - np.eye(d))) < 1e-15


def test_clock_action_diagonal_phases():
    d, alpha = 5, 2
    Z = clock_matrix(d, alpha)
    for m in range(d):
        v = Z @ position_state(m, d).components
        assert np.max(np.abs(v - np.exp(2j * np.pi * alpha * m / d) * position_state(m, d).components)) < 1e-14


def test_shift_and_clock_have_order_d():
    for d in (3, 4, 6):
        assert np.max(np.abs(np.linalg.matrix_power(shift_matrix(d), d) - np.eye(d))) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(clock_matrix(d), d) - np.eye(d))) < 1e-12


def test_commutation_phase():
    rng = np.random.default_rng(0)
    for d in range(2, 8):
        for _ in range(4):
            alpha, beta = int(rng.integers(0, 2 * d)), int(rng.integers(0, 2 * d))
            lhs = np.linalg.matrix_power(shift_matrix(d), beta) @ np.linalg.matrix_power(clock_matrix(d), alpha)
            rhs = (np.linalg.matrix_power(clock_matrix(d), alpha)
                   @ np.linalg.matrix_power(shift_matrix(d), beta)
                   * np.exp(2j * np.pi * ((-alpha * beta) % d) / d))
            assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_displacement_adjoint_on_integer_labels():
    for d in (3, 4, 5, 6):
        for alpha in range(-d, d + 1):
            for beta in range(-d, d + 1):
                lhs = displacement(d, alpha, beta).conj().T
                rhs = displacement(d, -alpha, -beta)
                assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_displacement_is_2d_periodic_in_labels():
    # the half-angle phase costs a sign per period for odd companion label
    for d in (2, 4, 5):
        for alpha, beta in [(1, 1), (1, 2), (2, 3)]:
            D = displacement(d, alpha, beta)
            assert np.max(np.abs(displacement(d, alpha + d, beta) - (-1) ** beta * D)) < 1e-13
            assert np.max(np.abs(displacement(d, alpha, beta + d) - (-1) ** alpha * D)) < 1e-13
            assert np.max(np.abs(displacement(d, alpha + 2 * d, beta) - D)) < 1e-13


def test_displacement_actions_exhaustive():
    for d in (3, 4, 5):
        for alpha in range(d):
            for beta in range(d):
                D = displacement(d, alpha, beta)
                for m in range(d):
                    out = D @ position_state(m, d).components
                    expect = (np.exp(1j * np.pi * ((alpha * beta + 2 * alpha * m) % (2 * d)) / d)
                              * position_state(m + beta, d).components)
                    assert np.max(np.abs(out - expect)) < 1e-13
                    outp = D @ momentum_state(m, d).components
                    expectp = (np.exp(1j * np.pi * ((-alpha * beta - 2 * beta * m) % (2 * d)) / d)
                               * momentum_state(m + alpha, d).components)
                    assert np.max(np.abs(outp - expectp)) < 1e-13


def test_displacement_and_shift_match_loop_reference():
    # the per-column loop the vectorized matrices replaced, kept as the
    # reference; the arithmetic is the same, so the entries are bit for bit equal
    def displacement_loop(d, alpha, beta):
        mat = np.zeros((d, d), dtype=complex)
        for m in range(d):
            mat[(m + beta) % d, m] = half_power(d, alpha * beta + 2 * alpha * m)
        return mat

    for d in (1, 2, 5, 8, 33):
        labels = [-2 * d - 1, -d, -1, 0, 1, d - 1, d + 2, 3 * d + 1, 2**70 + 3, -(10**20)]
        for alpha in labels:
            for beta in labels:
                assert np.array_equal(displacement(d, alpha, beta), displacement_loop(d, alpha, beta))
            assert np.array_equal(shift_matrix(d, alpha), displacement_loop(d, 0, alpha))


@pytest.mark.parametrize("d", [1, 2, 3, 8, 33, 257])
def test_half_power_is_the_half_angle_phase(d):
    # half_power is the displacement's own phase, so the loop reference above
    # shares it; here it meets the plain formula, scalar and array alike, to
    # the rounding of angles up to 2 pi (k is reduced into [0, 2d) first)
    k = np.arange(-2 * d + 1, 2 * d)
    expect = np.exp(1j * np.pi * k / d)
    assert np.max(np.abs(half_power(d, k) - expect)) < 3e-15
    assert max(abs(half_power(d, int(j)) - e) for j, e in zip(k, expect)) < 3e-15
    # the label is reduced mod 2d as a Python int, so a label past 2**64 is exact
    big = 2**70 + 1
    assert half_power(d, big) == half_power(d, big % (2 * d))
    assert abs(half_power(d, big) - np.exp(1j * np.pi * (big % (2 * d)) / d)) < 1e-15


def test_clock_matrix_is_displacement_at_any_label():
    # int(alpha) m overflowed int64 in the clock's own phases: at 2**62 three of the five
    # diagonal entries were wrong, and 2**70 raised OverflowError
    d = 5
    for alpha in (2**62, 2**70, -(2**63) - 3):
        assert np.array_equal(clock_matrix(d, alpha), displacement(d, alpha, 0))
        exact = [np.exp(2j * np.pi * (alpha * m % d) / d) for m in range(d)]  # Python ints, exact
        assert np.max(np.abs(np.diag(clock_matrix(d, alpha)) - exact)) < 1e-15
    # the phases omega(alpha m) of the definition, in int64 where alpha m fits
    for d in (1, 2, 5, 8, 33):
        m = np.arange(d)
        for alpha in range(-2 * d, 2 * d + 1):
            assert np.max(np.abs(clock_matrix(d, alpha) - np.diag(np.exp(2j * np.pi * (alpha * m % d) / d)))) < 1e-15


def test_displaced_state_matches_matrix_product():
    rng = np.random.default_rng(6)
    for d in (1, 2, 5, 8, 33):
        s = random_state(rng, d)
        labels = [-2 * d - 1, -d, -1, 0, 1, d - 1, d + 2, 3 * d + 1, 2**70 + 3, -(10**20)]
        for alpha in labels:
            for beta in labels:
                out = displaced_state(s, (alpha, beta)).components
                assert np.max(np.abs(out - displacement(d, alpha, beta) @ s.components)) < 1e-15


def test_displaced_state_identity():
    rng = np.random.default_rng(1)
    s = random_state(rng, 4)
    out = displaced_state(s, PhasePoint(0, 0))
    assert np.max(np.abs(out.components - s.components)) < 1e-15


def test_displaced_fiducial_resolution_of_identity():
    rng = np.random.default_rng(2)
    d = 4
    s = random_state(rng, d)
    acc = np.zeros((d, d), dtype=complex)
    for alpha in range(d):
        for beta in range(d):
            v = displaced_state(s, (alpha, beta)).components
            acc += np.outer(v, v.conj())
    assert np.max(np.abs(acc / d - np.eye(d))) < 1e-12


def test_displaced_state_amplitude_formula_d5():
    # closed amplitude s_{m-beta} * exp(i pi (alpha beta + 2 alpha (m - beta)) / d)
    # ... relabelled to the action on index m; oracle is the matrix product
    rng = np.random.default_rng(3)
    d = 5
    s = random_state(rng, d)
    for alpha, beta in [(1, 1), (2, 3), (4, 2)]:
        out = displaced_state(s, (alpha, beta)).components
        oracle = displacement(d, alpha, beta) @ s.components
        assert np.max(np.abs(out - oracle)) < 1e-14
        explicit = np.array(
            [s.components[(m - beta) % d]
             * np.exp(1j * np.pi * ((2 * alpha * m - alpha * beta) % (2 * d)) / d)
             for m in range(d)]
        )
        assert np.max(np.abs(out - explicit)) < 1e-13


def test_momentum_operator_matches_outer_product_loop():
    # the sum of d outer products that F diag(n) F^dagger replaced, kept as the reference
    for d in (1, 2, 5, 16, 64):
        ref = np.zeros((d, d), dtype=complex)
        for n in range(d):
            v = momentum_state(n, d).components
            ref += n * np.outer(v, v.conj())
        assert np.max(np.abs(momentum_operator(d) - ref)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 16])
def test_weyl_pair_matches_loop_reference(d):
    # the per-label trace and the displacement sum that the FFTs replaced, kept as references
    rng = np.random.default_rng(d)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    op[rng.random((d, d)) < 0.3] = 0.0
    table = weyl_function(op)
    ref = np.array([[np.trace(op @ displacement(d, a, b)) for b in range(d)] for a in range(d)])
    assert np.max(np.abs(table - ref)) <= 1e-12 * d * np.max(np.abs(op))
    coeffs = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    back = sum(coeffs[a, b] * displacement(d, a, b).conj().T for a in range(d) for b in range(d)) / d
    assert np.max(np.abs(operator_from_weyl(coeffs) - back)) <= 1e-12 * np.max(np.abs(coeffs))


def test_weyl_function_of_identity():
    d = 3
    table = weyl_function(np.eye(d))
    assert abs(table[0, 0] - d) < 1e-13
    table[0, 0] = 0
    assert np.max(np.abs(table)) < 1e-13


def test_weyl_function_of_displacement_single_entry():
    d = 3
    table = weyl_function(displacement(d, 1, 0))
    nonzero = np.abs(table) > 1e-12
    assert nonzero.sum() == 1
    assert nonzero[d - 1, 0]  # conjugate label of (1, 0)


def test_weyl_function_linearity():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.max(np.abs(weyl_function(a + b) - weyl_function(a) - weyl_function(b))) < 1e-12


def test_operator_from_weyl_zero_table():
    assert np.max(np.abs(operator_from_weyl(np.zeros((3, 3))))) == 0.0


def test_weyl_roundtrip_random():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4, 5, 6, 1000):
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        back = operator_from_weyl(weyl_function(op))
        assert np.max(np.abs(back - op)) < 1e-12


def test_weyl_roundtrip_identity():
    assert np.max(np.abs(operator_from_weyl(weyl_function(np.eye(4))) - np.eye(4))) < 1e-12


def test_finite_state_normalizes_by_default():
    s = FiniteState([3.0, 4.0])
    assert abs(np.linalg.norm(s.components) - 1) < 1e-15
    assert s.normalized


def test_finite_state_rejects_zero_and_nonfinite():
    with pytest.raises(ValueError):
        FiniteState([0.0, 0.0])
    with pytest.raises(ValueError):
        FiniteState([np.nan, 1.0])
