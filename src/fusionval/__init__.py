"""Data-partitioning validation strategies with a reproducible harness.

The package implements three ways to estimate a model's performance on
a dataset: simple random subsampling with hold-out scoring, lambda
weighted k-fold cross-validation, and a compounding scheme that repeats
subsample-and-validate iterations and averages them under a shrinkage
factor. A small theory kit provides the matching variance budgets and
concentration bounds, and the harness reruns the whole comparison grid
deterministically from a single seed.
"""

from .data import Dataset, generate_dataset
from .errors import ValidationError
from .estimator import ModelParams, fit, loss
from .fsv import (
    DEFAULT_ALPHA,
    FsvConfig,
    FsvResult,
    SampledTrial,
    compound_measure,
    fsv_run,
    sampled_kfold_trial,
)
from .harness import (
    CellResult,
    ExperimentConfig,
    ExperimentReport,
    emit_csv,
    emit_json,
    emit_markdown_table,
    emit_plotdata,
    run_experiment,
)
from .kfold import (
    FoldPlan,
    KfcvEstimate,
    LambdaWeights,
    empirical_kfold_loss,
    kfold_losses,
    make_folds,
    repeated_kfcv,
    weighted_kfold_loss,
)
from .metrics import (
    Method,
    TrialMetrics,
    summarize,
    trial_metrics,
)
from .rng import Purpose, RngStream, derive_stream, standard_normal
from .sampling import (
    FRACTION_RANGE,
    SampleView,
    draw_partition_fraction,
    holdout_values,
    inclusion_moments,
    srs_sample,
)
from .theory import (
    TailBound,
    VarianceBudget,
    chebyshev_tail,
    chebyshev_threshold,
    hoeffding_tail,
    hybrid_variance,
    kfcv_variance_component,
    srs_variance_component,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ValidationError",
    "Purpose",
    "RngStream",
    "derive_stream",
    "standard_normal",
    "Dataset",
    "generate_dataset",
    "FRACTION_RANGE",
    "SampleView",
    "srs_sample",
    "holdout_values",
    "inclusion_moments",
    "draw_partition_fraction",
    "ModelParams",
    "fit",
    "loss",
    "FoldPlan",
    "LambdaWeights",
    "KfcvEstimate",
    "make_folds",
    "kfold_losses",
    "empirical_kfold_loss",
    "weighted_kfold_loss",
    "repeated_kfcv",
    "DEFAULT_ALPHA",
    "FsvConfig",
    "FsvResult",
    "SampledTrial",
    "sampled_kfold_trial",
    "compound_measure",
    "fsv_run",
    "VarianceBudget",
    "TailBound",
    "srs_variance_component",
    "kfcv_variance_component",
    "hybrid_variance",
    "chebyshev_tail",
    "chebyshev_threshold",
    "hoeffding_tail",
    "Method",
    "TrialMetrics",
    "trial_metrics",
    "summarize",
    "ExperimentConfig",
    "ExperimentReport",
    "CellResult",
    "run_experiment",
    "emit_markdown_table",
    "emit_csv",
    "emit_json",
    "emit_plotdata",
]
