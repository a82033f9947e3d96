"""Certify and quantify quantum coherence between two measurements.

Library layout:

* qubit      -- states, effects, observables, small-matrix operations
* channels   -- sequential statistics and the outcome-discarding channel
* criterion  -- classical total-probability/variance laws, violation
                functionals, closed-form qubit predictions
* photonics  -- two-photon gate model, analyzer, Poisson counting
* cli        -- reproducible grid sweeps (see the measurement-coherence
                console script)
"""

from .channels import (
    JointDistribution,
    OutcomeDistribution,
    ZeroProbabilityError,
    is_incoherent,
    luders_channel,
    measurement_coherence_witness,
    outcome_distribution,
    post_measurement_state,
    sequential_joint,
)
from .criterion import (
    CriterionReport,
    analytic_delta_v,
    analytic_variance_perturbed,
    analytic_variance_unperturbed,
    delta_v,
    entropy_difference,
    law_of_total_variance_decomposition,
    moment_difference,
    total_probability_residual,
)
from .photonics import (
    MAX_FLUX,
    MEASURED_GATE,
    PERTURBED,
    UNPERTURBED,
    CountRecord,
    EstimationError,
    GateParams,
    PostSelectionError,
    PrepConfig,
    analyzer_distribution,
    estimate_delta_v,
    gate_channel,
    hwp_jones,
    prepare_signal,
    run_setting,
    sample_counts,
)
from .qubit import (
    Effect,
    Observable,
    QState,
    commutator_norm,
    expectation,
    half_trace_norm_distance,
    make_state,
    observable_x,
    observable_y,
    trace_norm_distance,
    variance,
)

__all__ = [
    "CountRecord",
    "CriterionReport",
    "Effect",
    "EstimationError",
    "GateParams",
    "JointDistribution",
    "MAX_FLUX",
    "MEASURED_GATE",
    "Observable",
    "OutcomeDistribution",
    "PERTURBED",
    "PostSelectionError",
    "PrepConfig",
    "QState",
    "UNPERTURBED",
    "ZeroProbabilityError",
    "analytic_delta_v",
    "analytic_variance_perturbed",
    "analytic_variance_unperturbed",
    "analyzer_distribution",
    "commutator_norm",
    "delta_v",
    "entropy_difference",
    "estimate_delta_v",
    "expectation",
    "gate_channel",
    "half_trace_norm_distance",
    "hwp_jones",
    "is_incoherent",
    "law_of_total_variance_decomposition",
    "luders_channel",
    "make_state",
    "measurement_coherence_witness",
    "moment_difference",
    "observable_x",
    "observable_y",
    "outcome_distribution",
    "post_measurement_state",
    "prepare_signal",
    "run_setting",
    "sample_counts",
    "sequential_joint",
    "total_probability_residual",
    "trace_norm_distance",
    "variance",
]

__version__ = "0.1.0"
