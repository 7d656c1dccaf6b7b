"""Non-finite and non-integer inputs and tolerances: every public entry raises ValueError naming the argument."""

import re

import numpy as np
import pytest

from finiteq import (
    AnalyticState,
    FiniteState,
    GaussianCoherent,
    HermiteNumber,
    OperatorKernel,
    SampledGrid,
    SystemParams,
    ZakSector,
    apply_weyl_expansion,
    classify_completeness,
    clock_matrix,
    coherent_form,
    coherent_from_number,
    coherent_gram_rank,
    coherent_normalization_closed,
    coherent_state_closed,
    coherent_unnormalized,
    count_zeros,
    displaced_f,
    displaced_state,
    displacement,
    find_zeros,
    fourier_matrix,
    hermite_function,
    inverse_zak,
    is_unitary,
    kernel_eval,
    momentum_form,
    momentum_state,
    number_state,
    operator_from_weyl,
    position_form,
    position_operator,
    position_state,
    reconstruct_from_zeros,
    scalar_product,
    sector_family,
    shift_matrix,
    sum_constraint_fit,
    theta2,
    theta3,
    theta3_derivative,
    weyl_function,
    winding_number,
    zak_map,
    zak_sums,
)
from finiteq.hilbert import half_power
from finiteq.zak import weighted_thetas

P3 = SystemParams(3)
STATE = AnalyticState(position_state(1, 3), P3)
ZEROS = np.array([1 + 1j, 2 + 1j, 3 + 2j])
FAMILY = sector_family(GaussianCoherent(0.3), P3)
KERNEL = OperatorKernel(np.eye(3), P3)
GRID_X = np.linspace(-8.0, 8.0, 64)
GRID = SampledGrid(GRID_X, GaussianCoherent(0.3)(GRID_X))


def _with(bad, shape=(3, 3)):
    """An array of `shape`, all ones but its first entry, which is `bad`."""
    out = np.ones(shape, dtype=complex)
    out.flat[0] = bad
    return out


# (argument named in the message, call with the non-finite value x)
ENTRIES = {
    "FiniteState": ("state components", lambda x: FiniteState([x, 1.0])),
    "theta3": ("argument u", lambda x: theta3([0.5, x], 1j)),
    "theta2": ("argument u", lambda x: theta2(x, 1j)),
    "theta3_derivative": ("argument u", lambda x: theta3_derivative(x, 1j)),
    "GaussianCoherent": ("Gaussian label", lambda x: GaussianCoherent(x)),
    "SystemParams a": ("cell anchor a", lambda x: SystemParams(3, a=x)),
    "SystemParams b": ("cell anchor b", lambda x: SystemParams(3, b=x)),
    "f": ("z", lambda x: STATE([0.5, x])),
    "f'": ("z", lambda x: STATE.derivative(x)),
    "displaced_f": ("z", lambda x: displaced_f(STATE, 1, 2, x)),
    "position_form": ("z", lambda x: position_form(1, P3, x)),
    "weighted_thetas": ("z", lambda x: weighted_thetas(x, P3)),
    "momentum_form": ("z", lambda x: momentum_form(1, P3, x)),
    "coherent_form z": ("z", lambda x: coherent_form(0.5, P3, x)),
    "coherent_form label": ("coherent label", lambda x: coherent_form(x, P3, 0.5)),
    "coherent_unnormalized": ("coherent label", lambda x: coherent_unnormalized([0.5, x], P3)),
    "coherent_state_closed": ("coherent label", lambda x: coherent_state_closed(x, P3)),
    "coherent_normalization_closed": ("coherent label", lambda x: coherent_normalization_closed(x, P3)),
    "classify_completeness": ("points", lambda x: classify_completeness([x, 1, 2], P3)),
    "coherent_gram_rank": ("points", lambda x: coherent_gram_rank([1, x], P3)),
    "reconstruct_from_zeros points": ("points", lambda x: reconstruct_from_zeros(_with(x, 3), P3)),
    "reconstruct_from_zeros multiplicities": ("multiplicities",
                                              lambda x: reconstruct_from_zeros(ZEROS, P3, [x, 1, 1])),
    "reconstruct_from_zeros residual_tol": ("residual_tol",
                                            lambda x: reconstruct_from_zeros(ZEROS, P3, residual_tol=x)),
    "inverse_zak": ("tol", lambda x: inverse_zak(sector_family(GaussianCoherent(0.3), P3), 0, 0, tol=x)),
    "weyl_function": ("operator", lambda x: weyl_function(_with(x))),
    "is_unitary": ("operator", lambda x: is_unitary(_with(x))),
    "is_unitary tol": ("tol", lambda x: is_unitary(np.eye(3), tol=x)),
    "operator_from_weyl": ("Weyl table", lambda x: operator_from_weyl(_with(x))),
    "OperatorKernel": ("operator matrix", lambda x: OperatorKernel(_with(x), P3)),
    "apply_weyl_expansion": ("Weyl table", lambda x: apply_weyl_expansion(_with(x), STATE, 0.5)),
    "zak_sums": ("the values of psi", lambda x: zak_sums(lambda t: t + x, P3)),
    "zak_map": ("the values of psi", lambda x: zak_map(lambda t: np.where(t > 3, x, 0.0), P3)),
    "sector_family": ("the values of psi", lambda x: sector_family(lambda t: t + x, P3)),
    "winding_number values": ("f", lambda x: winding_number(lambda z: np.where(z.imag > 0.5, x, z), 0, 1 + 1j)),
    "winding_number corner": ("rectangle corner", lambda x: winding_number(np.exp, x, 1 + 1j)),
    "count_zeros": ("rectangle corner", lambda x: count_zeros(STATE, 0, x)),
    "sum_constraint_fit": ("total", lambda x: sum_constraint_fit(x, P3)),
    "hermite_function": ("x", lambda x: hermite_function(3, x)),
    "HermiteNumber": ("x", lambda x: HermiteNumber(3)([0.5, x])),
    "GaussianCoherent point": ("x", lambda x: GaussianCoherent(0.3)(x)),
    "SampledGrid point": ("x", lambda x: GRID([0.5, x])),
    "SampledGrid grid": ("grid", lambda x: SampledGrid(np.r_[x, GRID_X[1:]], GRID.values)),
    "SampledGrid values": ("values", lambda x: SampledGrid(GRID_X, np.r_[x, GRID.values[1:]])),
    "kernel_eval z": ("z", lambda x: kernel_eval(KERNEL, x, 0.3)),
    "kernel_eval zeta_star": ("zeta_star", lambda x: kernel_eval(KERNEL, 0.3, x)),
    "ZakSector sigma1": ("twist sigma1", lambda x: ZakSector(x, 0.5)),
    "ZakSector sigma2": ("twist sigma2", lambda x: ZakSector(0.5, x)),
    "zak_sums sector": ("twist sigma1", lambda x: zak_sums(GaussianCoherent(0.3), P3, (x, 0))),
    "sector_family sigma2": ("twist sigma2", lambda x: sector_family(GaussianCoherent(0.3), P3, sigma2=x)),
}

# (argument named in the message, call with the matrix x); d = 3 where the entry fixes the size
SQUARE_ENTRIES = {
    "weyl_function": ("operator", lambda x: weyl_function(x)),
    "operator_from_weyl": ("Weyl table", lambda x: operator_from_weyl(x)),
    "is_unitary": ("operator", lambda x: is_unitary(x)),
    "OperatorKernel": ("operator matrix", lambda x: OperatorKernel(x, P3)),
    "apply_weyl_expansion": ("Weyl table", lambda x: apply_weyl_expansion(x, STATE, 0.5)),
}

# (argument named in the message, call with the non-integer value x)
INTEGER_ENTRIES = {
    "SystemParams": ("dimension", lambda x: SystemParams(x)),
    "fourier_matrix": ("dimension", lambda x: fourier_matrix(x)),
    "position_operator": ("dimension", lambda x: position_operator(x)),
    "position_state d": ("dimension", lambda x: position_state(0, x)),
    "position_state m": ("label m", lambda x: position_state(x, 4)),
    "momentum_state d": ("dimension", lambda x: momentum_state(0, x)),
    "momentum_state m": ("label m", lambda x: momentum_state(x, 4)),
    "half_power d": ("dimension", lambda x: half_power(x, 1)),
    "half_power k": ("exponent k", lambda x: half_power(4, x)),
    "displacement d": ("dimension", lambda x: displacement(x, 1, 1)),
    "displacement alpha": ("label alpha", lambda x: displacement(3, x, 0)),
    "displacement beta": ("label beta", lambda x: displacement(3, 0, x)),
    "clock_matrix": ("label alpha", lambda x: clock_matrix(3, x)),
    "shift_matrix": ("label beta", lambda x: shift_matrix(3, x)),
    "displaced_state": ("label alpha", lambda x: displaced_state(position_state(0, 3), (x, 1))),
    "displaced_f": ("label beta", lambda x: displaced_f(STATE, 1, x, 0.5)),
    "hermite_function": ("Hermite index", lambda x: hermite_function(x, 0.3)),
    "HermiteNumber": ("Hermite index", lambda x: HermiteNumber(x)),
    "number_state": ("Hermite index", lambda x: number_state(x, SystemParams(6))),
    "coherent_from_number": ("n_max", lambda x: coherent_from_number(0.3, P3, x)),
    "inverse_zak m": ("label m", lambda x: inverse_zak(FAMILY, x, 0)),
    "inverse_zak w": ("winding w", lambda x: inverse_zak(FAMILY, 0, x)),
    "SectorFamily.component": ("label m", lambda x: FAMILY.component(x)),
    "sector_family": ("n_sigma1", lambda x: sector_family(GaussianCoherent(0.3), P3, n_sigma1=x)),
    "zak_sums": ("label m", lambda x: zak_sums(GaussianCoherent(0.3), P3, m=[0, x])),
    "momentum_form": ("label m", lambda x: momentum_form(x, P3, 0.5)),
    "weighted_thetas": ("order", lambda x: weighted_thetas(0.5, P3, x)),
    "reconstruct_from_zeros": ("multiplicities", lambda x: reconstruct_from_zeros(ZEROS, P3, [x, 1, 1])),
}
# the rows whose argument may hold many integers, one per exponent, label, point or position
ARRAY_ENTRIES = {"half_power k", "zak_sums", "weighted_thetas", "reconstruct_from_zeros"}

# (argument named in the message, call with the value x, which must lie in (0, inf) or (0, 1))
POSITIVE_ENTRIES = {
    "is_unitary": ("tol", lambda x: is_unitary(np.eye(3), tol=x)),
    "inverse_zak": ("tol", lambda x: inverse_zak(FAMILY, 0, 0, tol=x)),
    "scalar_product": ("tol", lambda x: scalar_product(STATE, STATE, tol=x)),
    "reconstruct_from_zeros": ("residual_tol", lambda x: reconstruct_from_zeros(ZEROS, P3, residual_tol=x)),
    "SystemParams": ("scale lam", lambda x: SystemParams(3, x)),
    "winding_number": ("spacing", lambda x: winding_number(np.exp, 0, 1 + 1j, spacing=x)),
    "find_zeros": ("cluster_diam", lambda x: find_zeros(STATE, cluster_diam=x)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_non_finite_input_is_a_value_error_naming_the_argument(entry, bad):
    # before, these returned NaN tables, gave a "state" for any zero set, or blamed
    # another cause: a psi that decays too slowly, a degenerate rectangle, argument u
    name, call = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(bad)


@pytest.mark.parametrize("bad", [2.5, np.nan, np.inf], ids=str)
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRIES))
def test_non_integer_input_is_a_value_error_naming_the_argument(entry, bad):
    # before, most of these truncated: fourier_matrix(2.5) was 2 x 2, HermiteNumber(2.5).n was 2,
    # displacement(3, 0.5, 0) the identity, and NaN raised "cannot convert float NaN to integer"
    name, call = INTEGER_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(bad)


def test_integral_values_of_any_type_are_accepted():
    # Python ints, numpy ints and integral floats give the same result, and ints come back as Python ints
    for d in (6, np.int64(6), 6.0, np.float32(6)):
        params = SystemParams(d)
        assert params.d == 6 and type(params.d) is int
        assert np.array_equal(number_state(2.0, params).components, number_state(2, SystemParams(6)).components)
    assert type(HermiteNumber(np.int8(2)).n) is int
    assert np.array_equal(displacement(5.0, np.int64(2**62), 3.0), displacement(5, 2**62, 3))
    assert np.array_equal(position_state(np.uint8(7), 4.0).components, position_state(3, 4).components)
    assert inverse_zak(FAMILY, 1.0, np.int32(-1)) == inverse_zak(FAMILY, 1, -1)
    zeros = find_zeros(STATE).positions
    assert np.array_equal(reconstruct_from_zeros(zeros, P3, [1.0, 1.0, 1.0]).components,
                          reconstruct_from_zeros(zeros, P3, np.ones(3, dtype=np.int32)).components)


@pytest.mark.parametrize("entry", sorted(set(INTEGER_ENTRIES) - ARRAY_ENTRIES))
def test_a_list_is_not_one_integer(entry):
    # before, a list passed the integer rule as an int array: SystemParams([3]) had d = [3], and
    # fourier_matrix([3]) raised numpy's "only 0-dimensional arrays can be converted"
    name, call = INTEGER_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer"):
        call([3])


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan, "1"], ids=str)
@pytest.mark.parametrize("entry", sorted(POSITIVE_ENTRIES))
def test_non_positive_tolerances_are_value_errors(entry, bad):
    # residual_tol <= 0 blamed the zeros ("no such state exists"), inverse_zak reported a coarse grid,
    # spacing = 0 divided by zero,
    # cluster_diam = inf merged all d zeros into one, and a string raised TypeError
    name, call = POSITIVE_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(bad)


def test_cluster_diam_lies_below_half_the_shorter_side():
    # past that the nearest lattice translate of two roots is not unique; at d = 4, cluster_diam = 5.0
    # gave a certified zero of multiplicity 4 whose rebuild had fidelity 0.936 to the state
    half = 0.5 * min(P3.cell_width, P3.cell_height)
    with pytest.raises(ValueError, match="^cluster_diam must be positive and below"):
        find_zeros(STATE, cluster_diam=half)


@pytest.mark.parametrize("bad", [1.0, np.ones(3), np.ones((2, 3)), np.zeros((0, 0))], ids=str)
@pytest.mark.parametrize("entry", sorted(SQUARE_ENTRIES))
def test_a_matrix_of_the_wrong_shape_is_a_value_error_naming_the_argument(entry, bad):
    # weyl_function(1.0) raised IndexError, an empty matrix reached numpy's FFT or max, and
    # is_unitary read a 2 x 3 matrix as "not unitary"
    name, call = SQUARE_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(bad)
