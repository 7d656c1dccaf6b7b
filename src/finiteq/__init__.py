"""finiteq: finite d-dimensional quantum systems on the theta-function cell.

Position/momentum bases and displacements on Z_d, the transform from
real-line wavefunctions to d-component states, number and coherent states
with closed theta forms, the entire-function representation on the
fundamental cell, zero location by the argument principle, completeness
classification, and reconstruction of a state from its zeros.
"""

from .theta import theta2, theta3, theta3_derivative
from .hilbert import (
    FiniteState,
    PhasePoint,
    fourier_matrix,
    position_state,
    momentum_state,
    position_operator,
    momentum_operator,
    shift_matrix,
    clock_matrix,
    displacement,
    displaced_state,
    weyl_function,
    operator_from_weyl,
    is_unitary,
)
from .wavefunctions import (
    hermite_function,
    HermiteNumber,
    GaussianCoherent,
    SampledGrid,
    sampled_from_csv,
)
from .zak import (
    SystemParams,
    ZakSector,
    zak_sums,
    zak_normalization,
    zak_map,
    momentum_zak_sums,
    momentum_zak_normalization,
    momentum_zak_map,
    number_state,
    number_normalization,
    coherent_unnormalized,
    coherent_normalization,
    coherent_normalization_closed,
    coherent_state_closed,
    coherent_overlap,
    coherent_overlap_direct,
    coherent_from_number,
    SectorFamily,
    sector_family,
    inverse_zak,
    finite_fourier,
)
from .analytic import (
    AnalyticState,
    OperatorKernel,
    position_form,
    momentum_form,
    coherent_form,
    scalar_product,
    displaced_f,
    kernel_eval,
    kernel_apply,
    apply_weyl_expansion,
    coherent_identity_matrix,
)
from .zeros import (
    ZeroSet,
    CompletenessResult,
    winding_number,
    count_zeros,
    find_zeros,
    zero_sum_residual,
    sum_constraint_fit,
    classify_completeness,
    coherent_gram_rank,
    reconstruct_from_zeros,
)

__version__ = "0.1.0"
