import numpy as np
import pytest

from dpss.estimate import dp_variance, nonprivate_mle
from dpss.expfam import GaussianMeanModel, LogisticModel
from dpss.privacy import PrivacyBudget, ReleasedStatistic
from dpss.rng import substream
from dpss.synthgen import generate_synthetic, naive_analysis, noise_aware_synth_analysis


def make_release(s_tilde, sigma, n=1000, model_id="gaussian_mean", B=5.0):
    s_tilde = np.atleast_1d(np.asarray(s_tilde, dtype=float))
    return ReleasedStatistic(s_tilde, sigma, n, len(s_tilde), B,
                             PrivacyBudget(1.0, 1.0 / n**2), model_id)


def test_config_rejects_nonpositive_n_syn():
    with pytest.raises(ValueError, match="n_syn"):
        generate_synthetic(GaussianMeanModel(1.0), np.array([0.3]), 0, substream(1, "syn"))


def test_generation_reproducible():
    model = GaussianMeanModel(1.0)
    a = generate_synthetic(model, np.array([0.3]), 50, substream(1, "syn"))
    b = generate_synthetic(model, np.array([0.3]), 50, substream(1, "syn"))
    np.testing.assert_array_equal(a.x, b.x)


def test_synthetic_mean_lln():
    model = GaussianMeanModel(1.0)
    data = generate_synthetic(model, np.array([0.7]), 10**6, substream(3, "lln"))
    s_bar = model.mean_suff_stat(model.clip(data))
    assert s_bar[0] == pytest.approx(0.7, abs=0.005)


def test_naive_analysis_uses_synthetic_sample_size():
    model = GaussianMeanModel(1.0)
    n_syn = 4000
    syn = generate_synthetic(model, np.array([0.5]), n_syn, substream(4, "naive"))
    report = naive_analysis(model, syn, 0.05)
    assert report.method == "naive_synth"
    # variance is the classical 1/n_syn (unit Fisher), blind to privacy noise
    assert report.variance[0][0] == pytest.approx(1.0 / n_syn, rel=1e-6)


def test_naive_analysis_clips_before_estimating():
    model = GaussianMeanModel(1.0, B=0.5)
    syn = generate_synthetic(model, np.array([2.0]), 500, substream(5, "clip"))
    report = naive_analysis(model, syn, 0.05)
    assert abs(report.theta_hat[0]) <= 0.5 + 1e-12


def test_noise_aware_variance_is_three_term_sum():
    rng = substream(6, "threeterm")
    model = LogisticModel(rng.standard_normal((800, 3)), B_X=3.0)
    theta = np.array([0.4, -0.2, 0.3])
    rel = make_release(model.grad_log_partition(theta), sigma=0.05,
                       model_id="logistic", B=3.0)
    syn = generate_synthetic(model, theta, 800, rng)
    report = noise_aware_synth_analysis(model, syn, rel, 0.05)
    th_syn = np.asarray(report.theta_hat)
    base = dp_variance(model.fisher_info(th_syn), rel)
    lam = max(1e-6, 0.01 * rel.sigma**2)
    extra = np.linalg.inv(model.fisher_info(th_syn) + lam * np.eye(3)) / syn.n
    np.testing.assert_allclose(np.asarray(report.variance), base + extra, rtol=1e-10)


def test_noise_aware_variance_collapses_for_huge_n_syn():
    # as n_syn grows the synthetic Monte Carlo term vanishes and the total
    # converges to the direct dp_variance at the same point
    model = GaussianMeanModel(1.0)
    rel = make_release([0.3], sigma=0.1)
    rng = substream(7, "collapse")
    syn = generate_synthetic(model, np.array([0.3]), 200_000, rng)
    report = noise_aware_synth_analysis(model, syn, rel, 0.05)
    direct = dp_variance(model.fisher_info(np.asarray(report.theta_hat)), rel)
    np.testing.assert_allclose(np.asarray(report.variance), direct, rtol=1e-2)
    # and the gap is exactly the classical-variance term
    gap = np.asarray(report.variance) - direct
    lam = max(1e-6, 0.01 * rel.sigma**2)
    assert gap[0, 0] == pytest.approx(1.0 / ((1.0 + lam) * syn.n), rel=1e-10)


def test_naive_matches_nonprivate_on_same_data():
    model = GaussianMeanModel(1.0)
    syn = generate_synthetic(model, np.array([0.2]), 300, substream(8, "eq"))
    naive = naive_analysis(model, syn, 0.05)
    clean = nonprivate_mle(model, model.clip(syn), 0.05)
    np.testing.assert_array_equal(naive.theta_hat, clean.theta_hat)
    np.testing.assert_array_equal(naive.variance, clean.variance)
