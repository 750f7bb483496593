"""herzlab: a desk-scale numerical laboratory for Lorentz-Herz function spaces.

Exact norms on step-function representatives, K-functionals and real
interpolation, and empirical operator-boundedness verification.
"""

from .herz import (
    AnnulusMeasureSequence,
    HerzParams,
    annuli_decompose,
    annulus_indicator,
    annulus_measure,
    bfs_condition_check,
    embedding_check,
    hl_holder_check,
    hl_norm,
    quasi_constant_probe,
)
from .interp import (
    CoupleSpec,
    InterpolationParams,
    WeightedSeq,
    coretract_M,
    ell_norm,
    interpolation_norm,
    k_functional,
    k_functional_curve,
    retract_L,
    verify_interpolation,
)
from .lorentz import (
    LorentzParams,
    equivalence_check,
    lorentz_holder_pairing,
    lorentz_quasi_norm,
    lorentz_star_norm,
    refinement_chain_check,
)
from .operators import (
    BoundednessReport,
    GridFunction1D,
    annulus_interaction_bound,
    annulus_interaction_scan,
    boundedness_sweep,
    grid_hl_norm,
    hilbert_transform,
    interpolated_boundedness_check,
    maximal_operator,
    out_of_range_witness,
    size_condition_check,
)
from .rearrange import (
    RadialStepFunction,
    StepRearrangement,
    average_rearrangement,
    ball,
    distribution,
    rearrangement,
    sum_bound_check,
)

__version__ = "0.1.0"
