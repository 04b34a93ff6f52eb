"""Learning and inference for low-rank rewards observed through matchings."""

from .errors import (
    ArgumentError,
    ConfigError,
    DataFormatError,
    DegenerateInitError,
    DegenerateSpectrumWarning,
    DegenerateTestError,
    EmptyMatchingWarning,
    InfeasibleTruncationError,
    InternalConsistencyError,
    MatchlearnError,
    MatchlearnWarning,
    NonFiniteResultError,
    NumericalError,
    OutsideTheoryWarning,
    RankDeficientDesignError,
    RemainderDroppedWarning,
    ReplicationFailureError,
    SingularCoreError,
    UndefinedVarianceError,
)
from .samplers import (
    Matching,
    MatchingScheme,
    NuEstimate,
    ObservationBatch,
    OneToMany,
    OneToOne,
    TwoSided,
    entrywise_probability,
    load_batch,
    observe,
    sample_matching,
    save_batch,
    scheme_from_json,
    scheme_to_json,
)
from .matmodel import (
    LinearForm,
    RewardMatrix,
    generate_low_rank,
    projection_magnitude,
    save_matrix_csv,
    svd_r,
)
from .estimator import (
    EstimatorConfig,
    FactorState,
    FitTrace,
    aggregate_response,
    batch_loss,
    batch_loss_gradient,
    fit,
    gradient_step,
    partition_batches,
    solve_G,
    spectral_init,
)
from .inference import (
    EstimationArtifacts,
    InferenceResult,
    confidence_interval,
    debias,
    estimate_sigma,
    held_out_residual,
    infer_linear_form,
    period_mean_squares,
    prepare_inference,
    project_rank_r,
    standard_error,
)
from .policy import (
    evaluate_policy,
    matching_to_json,
    matching_to_linear_form,
    optimal_one_to_one,
)
from .harness import (
    ReplicationSummary,
    RunConfig,
    config_to_dict,
    ks_statistic,
    load_config,
    main,
    parse_config,
    resolve_q,
    run_simulation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
