"""Non-finite inputs and tolerances: every public entry raises ValueError naming the argument."""

import re

import numpy as np
import pytest

from finiteq import (
    AnalyticState,
    FiniteState,
    GaussianCoherent,
    OperatorKernel,
    SystemParams,
    apply_weyl_expansion,
    classify_completeness,
    coherent_form,
    coherent_gram_rank,
    coherent_normalization_closed,
    coherent_state_closed,
    coherent_unnormalized,
    count_zeros,
    displaced_f,
    inverse_zak,
    momentum_form,
    operator_from_weyl,
    position_form,
    position_state,
    reconstruct_from_zeros,
    sector_family,
    sum_constraint_fit,
    theta2,
    theta3,
    theta3_derivative,
    weyl_function,
    winding_number,
    zak_map,
    zak_sums,
)
from finiteq.zak import weighted_thetas

P3 = SystemParams(3)
STATE = AnalyticState(position_state(1, 3), P3)
ZEROS = np.array([1 + 1j, 2 + 1j, 3 + 2j])


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
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_non_finite_input_is_a_value_error_naming_the_argument(entry, bad):
    # before, these returned NaN tables, gave a "state" for any zero set, or blamed
    # another cause: a psi that decays too slowly, a degenerate rectangle, argument u
    name, call = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(bad)


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_non_positive_tolerances_are_value_errors(tol):
    # residual_tol <= 0 blamed the zeros ("no such state exists"), and inverse_zak reported a coarse grid
    with pytest.raises(ValueError, match="^residual_tol must be finite and positive"):
        reconstruct_from_zeros(ZEROS, P3, residual_tol=tol)
    with pytest.raises(ValueError, match="^tol must be finite and positive"):
        inverse_zak(sector_family(GaussianCoherent(0.3), P3), 0, 0, tol=tol)
