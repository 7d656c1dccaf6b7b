"""Non-finite, non-integer and non-positive inputs: every public entry raises ValueError naming the argument."""

import inspect
import re

import numpy as np
import pytest

import finiteq
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
    coherent_identity_matrix,
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
    kernel_apply,
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
    "weyl_function": ("operator", lambda x: weyl_function(_with(x))),
    "is_unitary": ("operator", lambda x: is_unitary(_with(x))),
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
# the rows whose argument may hold many integers, one per exponent, label or position
ARRAY_ENTRIES = {"half_power k", "zak_sums", "reconstruct_from_zeros"}

# (argument named in the message, call with the value x, which must lie in (0, inf))
POSITIVE_ENTRIES = {
    "SystemParams": ("scale lam", lambda x: SystemParams(3, x)),
    "winding_number": ("spacing", lambda x: winding_number(np.exp, 0, 1 + 1j, spacing=x)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_non_finite_input_is_a_value_error_naming_the_argument(entry, bad):
    # before, these returned NaN tables, gave a "state" for any zero set, or blamed
    # another cause: a psi that decays too slowly, a degenerate rectangle, argument u
    name, call = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(bad)


# a bool is an int to Python, but no integer argument; a list such as [0, True] reaches numpy as an int array, so
# the bools go to the rows that take one integer
NON_INTEGERS = [(entry, bad) for entry in sorted(INTEGER_ENTRIES)
                for bad in [2.5, np.nan, np.inf] + ([] if entry in ARRAY_ENTRIES else [True, np.True_])]


def bad_id(value):
    """str(value), but np.True_ as its repr, apart from True."""
    return repr(value) if isinstance(value, np.bool_) else str(value)


@pytest.mark.parametrize("entry, bad", NON_INTEGERS, ids=bad_id)
def test_non_integer_input_is_a_value_error_naming_the_argument(entry, bad):
    # before, most of these truncated: fourier_matrix(2.5) was 2 x 2, HermiteNumber(2.5).n was 2,
    # displacement(3, 0.5, 0) the identity, and NaN raised "cannot convert float NaN to integer";
    # SystemParams(True) had d = 1
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


def test_a_bool_array_is_not_multiplicities():
    # np.array([True, True, True]) read as multiplicities 1
    zeros = find_zeros(STATE).positions
    with pytest.raises(ValueError, match="^multiplicities must be integers of at least 1, got True"):
        reconstruct_from_zeros(zeros, P3, np.array([True, True, True]))


@pytest.mark.parametrize("lam", [np.float32(0.7), 2], ids=repr)
def test_system_params_keep_python_floats(lam):
    # a float32 lam made the cell width, the window's c and kappa float32: f was off by up to 7e-7 relative and
    # find_zeros raised "zero sum misses the lattice rule by 2.385e-06"; an int lam gives the float's outputs
    rng = np.random.default_rng(8)
    a, b = np.float32(-1.3), np.float32(0.45)
    given, plain = SystemParams(8, lam, a, b), SystemParams(8, float(lam), float(a), float(b))
    assert all(type(value) is float for value in (given.lam, given.a, given.b))
    state = FiniteState(rng.normal(size=8) + 1j * rng.normal(size=8))
    z = given.a + rng.uniform(size=5) * given.cell_width + 1j * (given.b + rng.uniform(size=5) * given.cell_height)
    assert AnalyticState(state, given)(z).tobytes() == AnalyticState(state, plain)(z).tobytes()
    found, expected = find_zeros(AnalyticState(state, given)), find_zeros(AnalyticState(state, plain))
    assert found.positions.tobytes() == expected.positions.tobytes()
    assert (found.M, found.N, found.residual) == (expected.M, expected.N, expected.residual)


@pytest.mark.parametrize("entry", sorted(set(INTEGER_ENTRIES) - ARRAY_ENTRIES))
def test_a_list_is_not_one_integer(entry):
    # before, a list passed the integer rule as an int array: SystemParams([3]) had d = [3], and
    # fourier_matrix([3]) raised numpy's "only 0-dimensional arrays can be converted"
    name, call = INTEGER_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer"):
        call([3])


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan, "1", True, np.True_], ids=bad_id)
@pytest.mark.parametrize("entry", sorted(POSITIVE_ENTRIES))
def test_non_positive_tolerances_are_value_errors(entry, bad):
    # spacing = 0 divided by zero, a string raised TypeError, and SystemParams(3, True) had lam = 1
    name, call = POSITIVE_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(bad)


@pytest.mark.parametrize("bad", [1.0, np.ones(3), np.ones((2, 3)), np.zeros((0, 0))], ids=str)
@pytest.mark.parametrize("entry", sorted(SQUARE_ENTRIES))
def test_a_matrix_of_the_wrong_shape_is_a_value_error_naming_the_argument(entry, bad):
    # weyl_function(1.0) raised IndexError, an empty matrix reached numpy's FFT or max, and
    # is_unitary read a 2 x 3 matrix as "not unitary"
    name, call = SQUARE_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(bad)


# every optional parameter of the public callables of finiteq, as name.parameter
OPTIONAL_PARAMETERS = [
    "CompletenessResult.gram_rank", "FiniteState.normalize", "SystemParams.lam", "SystemParams.a", "SystemParams.b",
    "ZakSector.sigma1", "ZakSector.sigma2", "classify_completeness.cross_validate", "clock_matrix.alpha",
    "momentum_zak_sums.m", "reconstruct_from_zeros.params", "reconstruct_from_zeros.multiplicities",
    "sector_family.sigma2", "sector_family.n_sigma1", "shift_matrix.beta", "winding_number.spacing",
    "zak_map.sector", "zak_normalization.sector", "zak_sums.sector", "zak_sums.m",
]


def test_the_public_optional_parameters_are_the_pinned_list():
    # the quadratures', inverse_zak's and is_unitary's tol had one value in use and are constants now;
    # a new knob shows up as an edit to this list
    found = []
    for name in sorted(dir(finiteq)):
        obj = getattr(finiteq, name)
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        found += [f"{name}.{p.name}" for p in inspect.signature(obj).parameters.values()
                  if p.default is not inspect.Parameter.empty]
    assert found == OPTIONAL_PARAMETERS


# the calls that took a tol before it became a module constant, each passing the old default
REMOVED_TOL = {
    "scalar_product": lambda: scalar_product(STATE, STATE, tol=1e-6),
    "kernel_apply": lambda: kernel_apply(KERNEL, STATE, 0.5j, tol=1e-6),
    "coherent_identity_matrix": lambda: coherent_identity_matrix(P3, tol=1e-6),
    "inverse_zak": lambda: inverse_zak(FAMILY, 0, 0, tol=1e-6),
    "is_unitary": lambda: is_unitary(np.eye(3), tol=1e-10),
}


@pytest.mark.parametrize("entry", sorted(REMOVED_TOL))
def test_a_removed_tol_is_a_type_error(entry):
    # no caller but the tests set these; a tol= that was silently ignored would read as honoured
    with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
        REMOVED_TOL[entry]()
