"""Sequential qubit-ancilla decomposition of multiqubit isometries.

The package decides whether an M -> N qubit isometry can be realized as a
chain of unitaries, each acting once on (ancilla, site k) with no
measurements, synthesizes the minimal-ancilla step unitaries from the
canonical matrix-product form of the operator when possible, and verifies
the synthesis by exact state-vector simulation.
"""

from .errors import (
    ContractViolationError,
    InternalConsistencyError,
    NotImplementableError,
    NumericFailureError,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    SvdResult,
    complete_to_unitary,
    dagger,
    reduced_density_matrix,
    regroup,
    svd,
)
from .mps import (
    CanonicalReport,
    CanonicalWeights,
    GaugeVerdict,
    Mps,
    canonicalize,
    check_canonical,
    contract_operator,
    contract_state,
    gauge_check,
    operator_to_mps,
    state_to_mps,
)
from .oplib import (
    Isometry,
    cnot,
    dicke_state,
    ghz_isometry,
    ghz_state,
    gisin_massar_cloner,
    haar_unitary,
    product_unitary,
    random_isometry,
    shor_encoder,
)
from .sequencer import (
    DEFAULT_CRITERION_TOL,
    PlanVerification,
    SequentialPlan,
    SequentialityReport,
    build_plan,
    direct_sum_operator_mps,
    operator_schmidt_ranks,
    sequentiality_test,
    simulate,
    verify_plan,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalReport",
    "CanonicalWeights",
    "ContractViolationError",
    "DEFAULT_CRITERION_TOL",
    "DEFAULT_RANK_TOL",
    "GaugeVerdict",
    "InternalConsistencyError",
    "Isometry",
    "Mps",
    "NotImplementableError",
    "NumericFailureError",
    "PlanVerification",
    "SequentialPlan",
    "SequentialityReport",
    "SvdResult",
    "build_plan",
    "canonicalize",
    "check_canonical",
    "cnot",
    "complete_to_unitary",
    "contract_operator",
    "contract_state",
    "dagger",
    "dicke_state",
    "direct_sum_operator_mps",
    "gauge_check",
    "ghz_isometry",
    "ghz_state",
    "gisin_massar_cloner",
    "haar_unitary",
    "operator_schmidt_ranks",
    "operator_to_mps",
    "product_unitary",
    "random_isometry",
    "reduced_density_matrix",
    "regroup",
    "sequentiality_test",
    "shor_encoder",
    "simulate",
    "state_to_mps",
    "svd",
    "verify_plan",
]
