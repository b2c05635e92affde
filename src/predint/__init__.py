"""Distribution-free prediction intervals from leave-one-out and K-fold fits.

The package provides the interval constructions (naive, split, jackknife,
jackknife+, jackknife-minmax, CV+, cross-conformal, full conformal), the
counting machinery behind their coverage guarantees, (epsilon, nu) stability
estimation, known failure-case regressors, and a Monte Carlo coverage
harness. See the ``predint`` console script for the command-line surface.
"""

from .audit import (
    VARIANTS,
    AuditReport,
    audit_instance,
    comparison_matrix,
    residual_matrix,
    run_audit,
    strange_set,
)
from .dataset import (
    Dataset,
    SplitSpec,
    attach_tau,
    gen_gaussian_linear,
    gen_pathological_abc,
    load_csv,
    load_features_csv,
    save_csv,
    train_test_split,
)
from .errors import ConfigError, DataError, PredintError
from .experiments import (
    CoverageReport,
    MethodSpec,
    ParityResult,
    aggregate,
    default_method_list,
    evaluate_methods,
    figure2_experiment,
    parity_vacuity_slack,
    pathology_memorizer,
    pathology_parity,
    run_coverage_mc,
    run_trial,
)
from .intervals import (
    METHOD_TOKENS,
    GridSpec,
    IntervalSpec,
    LooCache,
    PredictionInterval,
    PredictionSet,
    build_loo_cache,
    contains,
    cross_conformal_set,
    cv_plus,
    full_conformal_set,
    interval_about,
    jackknife,
    jackknife_from_cache,
    jackknife_minmax,
    jackknife_plus,
    naive_interval,
    split_conformal,
)
from .quantiles import lower_index, lower_quantile, upper_index, upper_quantile
from .regressors import (
    KNN,
    REGRESSOR_TOKENS,
    ConstantMean,
    FittedModel,
    Memorizer,
    MinNormOLS,
    ParityAdversary,
    Regressor,
    Ridge,
    canonical_order,
    make_regressor,
)
from .rng import derive_rng, derive_seed
from .stability import (
    KINDS,
    StabilityEstimate,
    coverage_lower_bounds,
    estimate_stability,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PredintError",
    "ConfigError",
    "DataError",
    # rng
    "derive_seed",
    "derive_rng",
    # quantiles
    "upper_quantile",
    "lower_quantile",
    "upper_index",
    "lower_index",
    # data
    "Dataset",
    "SplitSpec",
    "load_csv",
    "load_features_csv",
    "save_csv",
    "train_test_split",
    "gen_gaussian_linear",
    "gen_pathological_abc",
    "attach_tau",
    # regressors
    "FittedModel",
    "Regressor",
    "MinNormOLS",
    "Ridge",
    "KNN",
    "ConstantMean",
    "Memorizer",
    "ParityAdversary",
    "make_regressor",
    "REGRESSOR_TOKENS",
    "canonical_order",
    # intervals and sets
    "IntervalSpec",
    "GridSpec",
    "PredictionInterval",
    "PredictionSet",
    "LooCache",
    "build_loo_cache",
    "naive_interval",
    "split_conformal",
    "jackknife",
    "jackknife_from_cache",
    "jackknife_plus",
    "jackknife_minmax",
    "cv_plus",
    "cross_conformal_set",
    "full_conformal_set",
    "contains",
    "interval_about",
    "METHOD_TOKENS",
    # audit
    "residual_matrix",
    "comparison_matrix",
    "strange_set",
    "AuditReport",
    "audit_instance",
    "run_audit",
    "VARIANTS",
    # stability
    "StabilityEstimate",
    "estimate_stability",
    "coverage_lower_bounds",
    "KINDS",
    # experiments
    "MethodSpec",
    "CoverageReport",
    "aggregate",
    "evaluate_methods",
    "run_trial",
    "default_method_list",
    "figure2_experiment",
    "run_coverage_mc",
    "pathology_memorizer",
    "pathology_parity",
    "ParityResult",
    "parity_vacuity_slack",
]
