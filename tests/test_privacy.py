import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import norm

from dpss.expfam import MODEL_IDS, Dataset, GaussianMeanModel
from dpss.privacy import (
    PrivacyBudget,
    ReleasedStatistic,
    SensitivityViolatedError,
    calibrate_agm,
    classical_gaussian_sigma,
    l2_sensitivity,
    release,
    verify_agm_condition,
)
from dpss.rng import substream

EPS_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
DELTA_GRID = [1e-4, 1e-6, 1e-8]
SENS_GRID = [1e-3, 1.0, 10.0]


def oracle_sigma(delta2, eps, delta):
    """Independent calibration: root-find the mechanism's delta curve.

    Uses scipy's normal CDF and Brent's method rather than the library's
    own bisection, so it can adjudicate the calibration routine.
    """

    def achieved(sigma):
        a = delta2 / (2 * sigma) - eps * sigma / delta2
        b = -delta2 / (2 * sigma) - eps * sigma / delta2
        return norm.cdf(a) - np.exp(eps) * norm.cdf(b)

    hi = delta2 * np.sqrt(2 * np.log(1.25 / delta)) / eps
    while achieved(hi) > delta:
        hi *= 2
    return brentq(lambda s: achieved(s) - delta, 1e-12 * delta2, hi, xtol=1e-15, rtol=1e-14)


def test_l2_sensitivity():
    assert l2_sensitivity(3.0, 1000) == 0.006
    assert l2_sensitivity(1.0, 2) == 1.0
    assert l2_sensitivity(60.0, 500) == pytest.approx(0.24)


def test_budget_validation():
    with pytest.raises(ValueError, match="invalid_budget"):
        PrivacyBudget(-1.0, 1e-6)
    with pytest.raises(ValueError, match="invalid_budget"):
        PrivacyBudget(1.0, 0.0)
    with pytest.raises(ValueError, match="invalid_budget"):
        PrivacyBudget(1.0, 1.0)


def test_calibration_matches_independent_oracle():
    for eps in (0.1, 1.0, 5.0):
        for delta in (1e-4, 1e-8):
            got = calibrate_agm(1.0, PrivacyBudget(eps, delta))
            want = oracle_sigma(1.0, eps, delta)
            assert got == pytest.approx(want, rel=1e-9)


def test_calibration_tightness_grid():
    for eps in EPS_GRID:
        for delta in DELTA_GRID:
            for d2 in SENS_GRID:
                sigma = calibrate_agm(d2, PrivacyBudget(eps, delta))
                achieved = verify_agm_condition(sigma, d2, eps)
                assert achieved <= delta
                assert achieved >= delta * (1 - 1e-6)


def test_classical_bound_dominates_for_small_epsilon():
    for eps in (0.1, 0.5, 1.0):
        for delta in DELTA_GRID:
            for d2 in SENS_GRID:
                sigma = calibrate_agm(d2, PrivacyBudget(eps, delta))
                assert sigma <= classical_gaussian_sigma(d2, eps, delta)


def test_scale_equivariance():
    budget = PrivacyBudget(1.3, 1e-7)
    unit = calibrate_agm(1.0, budget)
    for c in (1e-4, 0.006, 3.0, 250.0):
        assert calibrate_agm(c, budget) == pytest.approx(c * unit, rel=1e-9)


def test_calibration_monotone_in_epsilon_and_delta():
    s1 = calibrate_agm(1.0, PrivacyBudget(1.0, 1e-6))
    assert calibrate_agm(1.0, PrivacyBudget(2.0, 1e-6)) < s1
    assert calibrate_agm(1.0, PrivacyBudget(1.0, 1e-4)) < s1


@pytest.mark.parametrize("delta2", [0.0, -1.0, float("inf"), float("-inf"), float("nan")])
def test_calibration_rejects_a_sensitivity_that_is_not_positive_and_finite(delta2):
    with pytest.raises(ValueError, match="sensitivity must be positive and finite"):
        calibrate_agm(delta2, PrivacyBudget(1.0, 1e-6))


@pytest.mark.parametrize("delta", [1e-6, 1e-300])
def test_calibration_is_finite_where_the_classical_bound_overflows(delta):
    # as eps -> 0 the unit sigma tends to 1 / (2 ndtri((1 + delta) / 2)),
    # about 1 / (delta sqrt(2 pi))
    assert classical_gaussian_sigma(1.0, 1e-308, delta) == math.inf
    sigma = calibrate_agm(1.0, PrivacyBudget(1e-308, delta))
    assert sigma == pytest.approx(1.0 / (delta * math.sqrt(2.0 * math.pi)), rel=1e-6)
    assert verify_agm_condition(sigma, 1.0, 1e-308) <= delta


def test_calibration_rejects_a_sigma_past_the_float_range():
    with pytest.raises(ValueError, match="sigma is not finite"):
        calibrate_agm(1e308, PrivacyBudget(1e-300, 1e-6))


def test_verify_limits():
    assert verify_agm_condition(1e6, 1.0, 1.0) < 1e-12
    assert verify_agm_condition(0.01, 1.0, 0.1) > 0.5


def test_classical_bound_value():
    # sqrt(2 ln(1.25e6)) ~ 5.30 at eps=1, delta=1e-6
    assert classical_gaussian_sigma(1.0, 1.0, 1e-6) == pytest.approx(5.2988, abs=1e-3)


# ------------------------------------------------------------------ release

def gaussian_release(s=0.0, B=1.0, n=100, eps=1.0, seed=0, **kw):
    model = GaussianMeanModel(1.0, B=B)
    budget = PrivacyBudget(eps, 1e-6)
    return release(np.array([s]), model, n, budget, substream(seed, "rel"), **kw)


def test_release_rejects_unclipped_statistic():
    with pytest.raises(SensitivityViolatedError, match="sensitivity_violated"):
        gaussian_release(s=1.5, B=1.0)


def test_release_sigma_zero_hook_is_exact():
    model = GaussianMeanModel(1.0, B=1.0)
    rel = release(np.array([0.25]), model, 100, None, substream(0, "rel"))
    assert rel.s_tilde[0] == 0.25
    assert rel.sigma == 0.0


def test_only_a_noise_free_release_may_lack_a_budget():
    model = GaussianMeanModel(1.0, B=1.0)
    rel = release(np.array([0.25]), model, 100, None, substream(1, "rel"))
    assert (rel.s_tilde[0], rel.budget) == (0.25, None)
    with pytest.raises(ValueError, match="budget"):
        ReleasedStatistic(np.array([0.25]), 0.1, 100, 1, 1.0, None, model.model_id)


def test_release_deterministic_given_seed():
    a = gaussian_release(s=0.3, seed=77)
    b = gaussian_release(s=0.3, seed=77)
    assert a.s_tilde[0] == b.s_tilde[0]
    assert a.s_tilde[0] != gaussian_release(s=0.3, seed=78).s_tilde[0]


def test_release_noise_independent_of_statistic():
    # same substream, different s_bar: the realized noise must agree
    za = gaussian_release(s=0.1, seed=5).s_tilde[0] - 0.1
    zb = gaussian_release(s=-0.4, seed=5).s_tilde[0] + 0.4
    assert za == pytest.approx(zb, abs=1e-15)


def test_release_noise_scale_monte_carlo():
    model = GaussianMeanModel(1.0, B=1.0)
    budget = PrivacyBudget(1.0, 1e-6)
    sigma = calibrate_agm(l2_sensitivity(1.0, 100), budget)
    rng = substream(123, "noise-scale")
    draws = np.array(
        [release(np.zeros(1), model, 100, budget, rng).s_tilde[0] for _ in range(10**5)]
    )
    assert draws.std() == pytest.approx(sigma, rel=0.02)


def test_release_records_metadata():
    rel = gaussian_release(s=0.2, B=2.0, n=400, eps=0.5, seed=9)
    assert (rel.n, rel.d, rel.B) == (400, 1, 2.0)
    assert rel.model_id == "gaussian_mean"
    assert rel.budget.epsilon == 0.5
    expected = calibrate_agm(l2_sensitivity(2.0, 400), PrivacyBudget(0.5, 1e-6))
    assert rel.sigma == pytest.approx(expected, rel=1e-12)


def test_released_statistic_json_round_trip(tmp_path):
    rel = gaussian_release(s=0.1234567890123456, seed=21)
    back = ReleasedStatistic.from_json(rel.to_json())
    assert back.s_tilde[0] == rel.s_tilde[0]
    assert back.sigma == rel.sigma
    assert back.budget.delta == rel.budget.delta
    rel.save(tmp_path / "rel.json")
    assert ReleasedStatistic.load(tmp_path / "rel.json").s_tilde[0] == rel.s_tilde[0]


# ---------------------------------------------------- release artifacts

VALID_ARTIFACT = {
    "model_id": "logistic", "d": 3, "n": 1000, "B": 3.0, "epsilon": 1.0, "delta": 1e-6,
    "sigma": 0.01, "s_tilde": [0.1, -0.2, 0.05],
}


def artifact(**changes):
    obj = dict(VALID_ARTIFACT, **changes)
    return json.dumps({k: v for k, v in obj.items() if v is not ...})


def test_valid_artifact_loads():
    rel = ReleasedStatistic.from_json(artifact())
    assert (rel.d, rel.n, rel.model_id) == (3, 1000, "logistic")


@pytest.mark.parametrize("changes", [
    {"d": 5},  # five dimensions, three entries
    {"s_tilde": [[0.1, -0.2, 0.05]]},
    {"sigma": -0.1},
    {"sigma": float("nan")},
    {"sigma": float("inf")},
    {"n": 0},
    {"n": 1000.5},
    {"B": 0.0},
    {"B": -3.0},
    {"model_id": "linear"},
    {"s_tilde": ["a", 0.0, 0.0]},
    {"s_tilde": [0.1, None, 0.0]},
    {"sigma": "0.01"},
    {"epsilon": 10**400},
    {"model_id": ...},
])
def test_malformed_artifact_rejected(changes):
    with pytest.raises(ValueError):
        ReleasedStatistic.from_json(artifact(**changes))


def test_non_object_artifact_rejected():
    with pytest.raises(ValueError):
        ReleasedStatistic.from_json("[1, 2, 3]")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(
    replaced=st.dictionaries(st.sampled_from(sorted(VALID_ARTIFACT)), JSON_VALUES, max_size=3),
    dropped=st.sets(st.sampled_from(sorted(VALID_ARTIFACT)), max_size=2),
)
def test_from_json_accepts_only_consistent_artifacts(replaced, dropped):
    obj = {k: v for k, v in dict(VALID_ARTIFACT, **replaced).items() if k not in dropped}
    try:
        rel = ReleasedStatistic.from_json(json.dumps(obj))
    except ValueError:
        return
    # whatever loads satisfies every invariant inference relies on
    assert rel.s_tilde.shape == (rel.d,) and np.all(np.isfinite(rel.s_tilde))
    assert math.isfinite(rel.sigma) and rel.sigma >= 0
    assert isinstance(rel.n, int) and rel.n >= 1
    assert math.isfinite(rel.B) and rel.B > 0
    assert rel.model_id in MODEL_IDS
    assert ReleasedStatistic.from_json(rel.to_json()).to_json() == rel.to_json()
