"""Steering test for two-setting, two-outcome correlations with a trusted
quantum side, plus an LP membership oracle and a model of the
split-single-photon homodyne experiment."""

from .correlation_model import (
    ConstraintError,
    CorrelationSet,
    EBasisVector,
    Marginals,
    correlation_set_from_json_dict,
    correlations_from_matrix,
    extremal_correlations,
    to_e_basis,
)
from .homodyne_experiment import (
    ExperimentReport,
    MonteCarloCorrelations,
    SinglePhotonState,
    adjudicate,
    adjudicate_reported,
    experiment_correlations,
    gamma,
    homodyne_effects,
    homodyne_pdf,
    monte_carlo_correlations,
    state_density,
)
from .lhs_oracle import (
    LhsAtom,
    LhsModel,
    MembershipResult,
    NotAMemberError,
    boundary_band,
    decompose,
    lp_membership,
    lp_membership_batch,
    model_correlations,
)
from .qubit_core import ellipse_point, projector_from_params, quantum_correlator
from .simplex import OracleError, lp_feasibility, lp_feasibility_batch
from .steering_witness import (
    WitnessReport,
    chsh_values,
    f_value,
    full_report,
    pair_inequalities,
    steering_inequality,
)
from .violation_search import state_scan

__version__ = "0.1.0"

__all__ = [
    "ConstraintError",
    "CorrelationSet",
    "EBasisVector",
    "ExperimentReport",
    "LhsAtom",
    "LhsModel",
    "Marginals",
    "MembershipResult",
    "MonteCarloCorrelations",
    "NotAMemberError",
    "OracleError",
    "SinglePhotonState",
    "WitnessReport",
    "adjudicate",
    "adjudicate_reported",
    "boundary_band",
    "chsh_values",
    "correlation_set_from_json_dict",
    "correlations_from_matrix",
    "decompose",
    "ellipse_point",
    "experiment_correlations",
    "extremal_correlations",
    "f_value",
    "full_report",
    "gamma",
    "homodyne_effects",
    "homodyne_pdf",
    "lp_feasibility",
    "lp_feasibility_batch",
    "lp_membership",
    "lp_membership_batch",
    "model_correlations",
    "monte_carlo_correlations",
    "pair_inequalities",
    "projector_from_params",
    "quantum_correlator",
    "state_density",
    "state_scan",
    "steering_inequality",
    "to_e_basis",
]
