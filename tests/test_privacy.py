import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import norm

from dpss.expfam import MODEL_IDS, Dataset, GaussianMeanModel
from dpss.harness import default_theta0, make_model_and_data
from dpss.privacy import (
    InvalidBudgetError,
    PrivacyBudget,
    ReleasedStatistic,
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
    for B, n in [(0.0, 10), (1.0, 0)]:
        with pytest.raises(ValueError, match="B > 0 and n >= 1"):
            l2_sensitivity(B, n)


def test_budget_validation():
    with pytest.raises(InvalidBudgetError, match="invalid_budget"):
        PrivacyBudget(-1.0, 1e-6)
    with pytest.raises(InvalidBudgetError, match="invalid_budget"):
        PrivacyBudget(1.0, 0.0)
    with pytest.raises(InvalidBudgetError, match="invalid_budget"):
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
    with pytest.raises(InvalidBudgetError, match="sensitivity must be positive and finite"):
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
    with pytest.raises(InvalidBudgetError, match="sigma is not finite"):
        calibrate_agm(1e308, PrivacyBudget(1e-300, 1e-6))


# The least unit-sensitivity sigma with Phi(1/(2s) - eps s) - e^eps Phi(-1/(2s) - eps s)
# <= delta, found by bisection at 60 digits in mpmath and stored to 25: one row per
# eps, one column per delta in AGM_REFERENCE_DELTAS
AGM_REFERENCE_DELTAS = [1e-30, 1e-20, 1e-14, 1e-10, 1e-6, 1e-3]
AGM_REFERENCE_SIGMA = {
    1e-12: ["8264365610162.863059205634", "5012024237147.733347501513", "1724094361682.641978393686", "3969606205.159557757722010", "398942.0809305190056107962", "398.9421757592860948489632"],
    1e-10: ["87837134878.26850187595762", "57891827874.13707058263771", "30622266785.77999011204450", "2760298048.080634057764151", "398922.3346219796961768382", "398.9421560313870058010960"],
    1e-08: ["927600089.3096443303458312", "648641848.8961587096342763", "412252529.9364873719653330", "172409436.3329321263297789", "396960.6224906129352178236", "398.9401832544737202136436"],
    1e-06: ["9744982.959530396296386889", "7123425.298860483915644782", "5012024.326871715682113561", "3062226.806319281014781180", "276029.9039992015080964610", "398.7430354231058017612475"],
    0.0001: ["101936.3317619678600399291", "77131.01371543811470040205", "57891.90747256639745261460", "41225.35741905764011710868", "17241.10829997835053985519", "380.2376562463539212004828"],
    0.01: ["1062.478971867928364983737", "826.4945772262749971482436", "648.7139920394983286285053", "501.2921329260007413839918", "306.3503761538176823756854", "93.90741983985157625649167"],
    0.1: ["108.3808124013559315700231", "85.33328230163480949276892", "68.18431686022258858106089", "54.20629583690126558608982", "36.30469042619578316016247", "17.40439620303116624487761"],
    1.0: ["11.08310294897699342892172", "8.838226921980592348376777", "7.189244601589909627757802", "5.867777749630526383216376", "4.224678889326835292283418", "2.574657018637206133073044"],
    10.0: ["1.166022940976753172493744", "0.9539669685617317107220511", "0.8017677155203678713374781", "0.6830439672274811820489245", "0.5410868318183659822094944", "0.4060595580241385227215824"],
    1e-20: ["578918278740574768897.8967", "27602980479814331210.71847", "39894208093042.39599872192", "3989422803.814855493877957", "398942.2804013262584386539", "398.9421759585578139547246"],
    1e-30: ["2.76029804798143273963525e+29", "39894228038148558580.18682", "39894228040143.26584638595", "3989422804.01432663402563", "398942.280401328253148061", "398.9421759585578159474419"],
}


@pytest.mark.parametrize("eps", list(AGM_REFERENCE_SIGMA))
def test_calibration_holds_against_60_digit_references(eps):
    # never short by more than the bisection's resolution, 1e-12, nor long by more than
    # 1e-9: bisected on Phi(h - m) - e^eps Phi(-h - m) as written, eps = 1e-12 and
    # delta = 1e-30 fell short by 1.3e-2, and certified afterwards, eps = 1e-12 and
    # delta = 1e-14 came out long by 3.4e-4
    for delta, ref in zip(AGM_REFERENCE_DELTAS, AGM_REFERENCE_SIGMA[eps]):
        sigma = Decimal(calibrate_agm(1.0, PrivacyBudget(eps, delta)))  # exact
        assert sigma >= Decimal(ref) * (1 - Decimal("1e-12")), (eps, delta)
        assert sigma <= Decimal(ref) * (1 + Decimal("1e-9")), (eps, delta)


def test_verify_limits():
    assert verify_agm_condition(1e6, 1.0, 1.0) < 1e-12
    assert verify_agm_condition(0.01, 1.0, 0.1) > 0.5


def test_classical_bound_value():
    # sqrt(2 ln(1.25e6)) ~ 5.30 at eps=1, delta=1e-6
    assert classical_gaussian_sigma(1.0, 1.0, 1e-6) == pytest.approx(5.2988, abs=1e-3)


# ------------------------------------------------------------------ release

def gaussian_release(s=0.0, B=1.0, n=100, eps=1.0, seed=0, **kw):
    # n records equal to s, so the clipped mean is s for |s| <= B
    model = GaussianMeanModel(1.0, B=B)
    budget = PrivacyBudget(eps, 1e-6)
    return release(Dataset(np.full(n, s)), model, budget, substream(seed, "rel"), **kw)


def outlier_records():
    # 99 records at 0 and one at 400, past B = 5: the clipped mean is 5/100 = 0.05,
    # the unclipped one 4.0
    x = np.zeros(100)
    x[0] = 400.0
    return GaussianMeanModel(1.0, B=5.0), Dataset(x)


@pytest.mark.parametrize("budget", [PrivacyBudget(1.0, 1e-4), None])
def test_release_clips_a_record_past_the_bound(budget):
    model, data = outlier_records()
    rel = release(data, model, budget, substream(4, "rel"))
    noise = rel.sigma * substream(4, "rel").standard_normal(1)
    assert rel.s_tilde[0] == 0.05 + noise[0]
    assert rel.s_tilde[0] - noise[0] == pytest.approx(0.05, abs=1e-15)
    assert rel.n == data.n == 100
    # calibrated for the sensitivity of the clipped mean, 2B/n = 0.1
    expected = 0.0 if budget is None else calibrate_agm(0.1, budget)
    assert rel.sigma == expected


@pytest.mark.parametrize("model_id", list(MODEL_IDS))
@pytest.mark.parametrize("eps", [1.0, None])
def test_release_of_records_equals_release_of_their_clipped_copy(model_id, eps):
    rng = substream(8, "raw", model_id)
    model, raw = make_model_and_data(model_id, default_theta0(model_id), 300, rng, B=0.5)
    budget = None if eps is None else PrivacyBudget(eps, 1e-5)
    rel = release(raw, model, budget, substream(8, "rel"))
    clipped = release(model.clip(raw), model, budget, substream(8, "rel"))
    np.testing.assert_array_equal(rel.s_tilde, clipped.s_tilde)
    assert rel.n == raw.n == 300
    if eps is None:
        np.testing.assert_array_equal(rel.s_tilde, model.mean_suff_stat(model.clip(raw)))


def test_release_sigma_zero_hook_is_exact():
    model = GaussianMeanModel(1.0, B=1.0)
    rel = release(Dataset(np.full(100, 0.25)), model, None, substream(0, "rel"))
    assert rel.s_tilde[0] == 0.25
    assert rel.sigma == 0.0


def test_only_a_noise_free_release_may_lack_a_budget():
    model = GaussianMeanModel(1.0, B=1.0)
    rel = release(Dataset(np.full(100, 0.25)), model, None, substream(1, "rel"))
    assert (rel.s_tilde[0], rel.budget) == (0.25, None)
    with pytest.raises(ValueError, match="budget"):
        ReleasedStatistic(np.array([0.25]), 0.1, 100, 1, 1.0, None, model.model_id)


def test_noise_free_release_round_trips_through_json():
    model, data = outlier_records()
    rel = release(data, model, None, substream(2, "rel"))
    obj = json.loads(rel.to_json())
    assert (obj["epsilon"], obj["delta"], obj["sigma"]) == (None, None, 0.0)
    back = ReleasedStatistic.from_json(rel.to_json())
    assert back.budget is None and back.s_tilde[0] == rel.s_tilde[0] == 0.05
    assert back.to_json() == rel.to_json()
    with pytest.raises(ValueError, match="needs a privacy budget"):  # noise without a budget
        ReleasedStatistic.from_json(json.dumps(dict(obj, sigma=0.1)))


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
    zeros = Dataset(np.zeros(100))
    draws = np.array([release(zeros, model, budget, rng).s_tilde[0] for _ in range(10**5)])
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
    {"epsilon": None},  # a budget is null only as a whole
    {"delta": None},
    {"epsilon": None, "delta": None},  # no budget, but sigma > 0
    {"n": 10**400},  # past the float range; last, so the other cases keep their ids
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
