"""Identification of field-free and coupling Hamiltonians of a driven
quantum system from a known control field and the exact final propagator.

The forward model is the norm-preserving Cayley (midpoint) time stepper;
its discrete structure yields the exact derivative of the final propagator
with respect to both operators, which drives a Newton iteration on the
Hermitized mismatch.  A homotopy over interpolated targets globalizes the
solve from a closed-form starting point.
"""

from .continuation import (
    CONTINUATION_FAILED,
    CONTINUATION_OK,
    ContinuationConfig,
    ContinuationReport,
    ContinuationStage,
    continuation_identify,
    intermediate_target,
    m0_seed,
)
from .fields import (
    ControlField,
    PiPulse,
    SinSqEnvelope,
    Tabulated,
    TimeGrid,
    field_from_config,
    field_to_config,
    sample_field,
)
from .linalg import (
    TargetDecomposition,
    decompose_target,
    matrix_from_json,
    matrix_to_json,
    spec_norm,
    split_log,
    unitary_exp,
    unitary_log,
)
from .models import (
    AU_TIME_SECONDS,
    DOUBLE_WELL_DEFAULT_STEPS,
    PICOSECOND_AU,
    TWO_LEVEL_DEFAULT_STEPS,
    DoubleWellModel,
    DoubleWellParams,
    PerturbationSpec,
    SpatialGrid,
    TwoLevelParams,
    build_double_well,
    double_well_potential,
    perturb_pair,
    pi_pulse_field,
    two_level_model,
)
from .newton import (
    FLAG_CONVERGED,
    FLAG_MAX_ITERS,
    FLAG_SINGULAR,
    Linearization,
    NewtonConfig,
    NewtonIteration,
    NewtonReport,
    NewtonUpdate,
    ReducedSystem,
    SingularityDiagnostic,
    SingularJacobianError,
    grams_to_jacobians,
    hermitian_residual,
    linearize,
    newton_identify,
    reduce_system,
    reduced_condition,
    singularity_probe,
    solve_update,
    unknown_index_map,
)
from .propagation import (
    HamiltonianPair,
    Trajectory,
    cn_error_order,
    cn_step,
    propagate,
    propagate_final,
    propagate_with_gram,
)

__version__ = "0.1.0"
