"""DP sufficient-statistic release and noise-calibrated inference."""

__version__ = "0.1.0"

from .expfam import (
    ClipBounds,
    Dataset,
    ExpFamModel,
    GaussianMeanModel,
    LogisticModel,
    PoissonModel,
    load_model_config,
)
from .privacy import (
    PrivacyBudget,
    ReleasedStatistic,
    calibrate_agm,
    l2_sensitivity,
    release,
    verify_agm_condition,
)
from .estimate import (
    BootstrapConfig,
    EstimateReport,
    dp_variance,
    noise_aware_mle,
    nonprivate_mle,
    parametric_bootstrap,
    plugin_mle,
    wald_ci,
    wald_test,
)
from .synthgen import generate_synthetic, naive_analysis, noise_aware_synth_analysis
from .harness import ExperimentConfig, MetricsTable, run_experiment
from .rng import substream
