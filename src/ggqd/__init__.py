"""Geometric global quantum discord (GGQD) of two-qubit density matrices.

The discord value is trace_cc(corr) - f_max / 4, where corr is the Bloch
form (x, y, T) of the state, trace_cc the squared Frobenius norm of its
correlation-coefficient matrix, and f_max the maximum of the measurement
objective f(a, b) = 1 + (y.b)^2 + (x.a)^2 + (a.Tb)^2 over unit directions
a, b. See :func:`ggqd.solver.ggqd` for the entry point and
:func:`ggqd.solver.ggqd_many` for many states in one batch.
"""

from .errors import (
    GgqdError,
    NonFiniteResultError,
    NonHermitianError,
    NonUnitDirectionError,
    NotPositiveError,
    NotUnitaryError,
    ParameterOutOfRangeError,
    ProbabilitiesNotNormalizedError,
    StateFormatError,
    TraceNotOneError,
    UnknownFamilyError,
)
from .objective import (
    objective_f,
    rank2_lambda_max,
    reduced_over_a,
    sphere_direction,
)
from .pauli import (
    CorrelationData,
    correlation_matrix,
    pauli_decompose,
    reconstruct_density,
    trace_cc,
)
from .qstate import (
    FAMILIES,
    PAULIS,
    DensityMatrix,
    StateFamilySpec,
    generate_state,
    load_state,
    local_unitary_conjugate,
    save_state,
    state_from_json,
    state_to_json,
    swap_subsystems,
    validate_density,
)
from .solver import (
    GgqdResult,
    brute_force_oracle,
    ggqd,
    ggqd_many,
    maximize_objective,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationData",
    "DensityMatrix",
    "FAMILIES",
    "GgqdError",
    "GgqdResult",
    "NonFiniteResultError",
    "NonHermitianError",
    "NonUnitDirectionError",
    "NotPositiveError",
    "NotUnitaryError",
    "PAULIS",
    "ParameterOutOfRangeError",
    "ProbabilitiesNotNormalizedError",
    "StateFamilySpec",
    "StateFormatError",
    "TraceNotOneError",
    "UnknownFamilyError",
    "brute_force_oracle",
    "correlation_matrix",
    "generate_state",
    "ggqd",
    "ggqd_many",
    "load_state",
    "local_unitary_conjugate",
    "maximize_objective",
    "objective_f",
    "pauli_decompose",
    "rank2_lambda_max",
    "reconstruct_density",
    "reduced_over_a",
    "save_state",
    "sphere_direction",
    "state_from_json",
    "state_to_json",
    "swap_subsystems",
    "trace_cc",
    "validate_density",
]
