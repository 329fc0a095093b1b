"""Parametric synthetic data from a DP estimate, and its two analysis modes.

Synthetic generation consumes only the (post-processed) DP estimate, so
the synthetic records inherit the release's privacy guarantee.  Both modes
take the MLE of the clipped synthetic records (``estimate.records_mle``):
naive analysis treats them as real and ignores privacy noise entirely, while
noise-aware analysis adds back the privacy and original-sampling variance
the synthetic data cannot carry.
"""

from __future__ import annotations

import numpy as np

from .estimate import EstimateReport, _check_dimension, dp_variance, nonprivate_mle, records_mle
from .expfam import Dataset, ExpFamModel
from .privacy import ReleasedStatistic


def generate_synthetic(
    model: ExpFamModel,
    theta: np.ndarray,
    n_syn: int,
    rng: np.random.Generator,
) -> Dataset:
    """Sample n_syn records from the model at theta; ValueError unless n_syn >= 1."""
    if n_syn < 1:
        raise ValueError("n_syn must be at least 1")
    return model.sample(theta, n_syn, rng)


def naive_analysis(model: ExpFamModel, d_syn: Dataset, alpha: float) -> EstimateReport:
    """Standard MLE and CIs on synthetic data, as if it were real.

    The variance uses n_syn and nothing else; this is the miscalibrated
    baseline the noise-aware mode corrects.
    """
    clipped = model.clip(d_syn)
    report = nonprivate_mle(model, clipped, alpha)
    report.method = "naive_synth"
    return report


def noise_aware_synth_analysis(
    model: ExpFamModel,
    d_syn: Dataset,
    rel: ReleasedStatistic,
    alpha: float,
) -> EstimateReport:
    """CIs on synthetic data corrected for all three error sources.

    Variance = I^{-1}/n + sigma^2 I^{-2} + I^{-1}/n_syn evaluated at the
    synthetic-data MLE: original sampling, privacy noise, and synthetic
    Monte Carlo error are independent, so their variances add.  As
    n_syn -> infinity the third term vanishes and this collapses to the
    direct DP variance.
    """
    _check_dimension(model, rel)
    clipped = model.clip(d_syn)
    theta_hat, fisher = records_mle(model, clipped)
    var = dp_variance(fisher, rel, n_syn=clipped.n)
    return EstimateReport.wald(theta_hat, var, alpha, "noise_aware_synth",
                               {"n_syn": clipped.n, "n": rel.n, "sigma": rel.sigma})
