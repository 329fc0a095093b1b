import pickle
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from dpss import estimate
from dpss.estimate import (
    BootstrapConfig,
    BootstrapUnstableError,
    EstimateReport,
    FisherSingularError,
    InvalidVarianceError,
    dp_variance,
    noise_aware_mle,
    nonprivate_mle,
    parametric_bootstrap,
    plugin_mle,
    wald_ci,
    wald_test,
)
from dpss.expfam import (
    NEWTON_CHUNK_ELEMS,
    NEWTON_MAX_ITER,
    PARAM_BOX,
    Dataset,
    GaussianMeanModel,
    LogisticModel,
    MeanOverflowError,
    NumericalError,
    PoissonModel,
    SolverDivergedError,
)
from dpss.harness import default_theta0, make_model_and_data
from dpss.privacy import PrivacyBudget, ReleasedStatistic, release
from dpss.rng import substream


def make_release(s_tilde, sigma, n=1000, model_id="gaussian_mean", B=5.0, eps=1.0):
    return ReleasedStatistic(
        s_tilde=np.atleast_1d(np.asarray(s_tilde, dtype=float)),
        sigma=sigma,
        n=n,
        d=np.atleast_1d(s_tilde).shape[0],
        B=B,
        budget=PrivacyBudget(eps, 1.0 / n**2),
        model_id=model_id,
    )


# ---------------------------------------------------------------- plugin

def test_plugin_gaussian_identity():
    model = GaussianMeanModel(1.0)
    assert plugin_mle(model, make_release([0.3], 0.1))[0] == pytest.approx(0.3)


def test_plugin_logistic_at_half():
    model = LogisticModel(np.ones((5, 1)))
    rel = make_release([0.5], 0.05, model_id="logistic", B=3.0)
    assert plugin_mle(model, rel)[0] == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("model_id", ["gaussian_mean", "logistic", "poisson"])
def test_plugin_consistency_sigma_zero_large_n(model_id):
    rng = substream(2024, "consistency", model_id)
    n = 10**6
    if model_id == "gaussian_mean":
        model = GaussianMeanModel(1.0, B=8.0)
        theta0 = np.array([0.7])
    elif model_id == "logistic":
        model = LogisticModel(rng.standard_normal((2000, 3)), B_X=6.0)
        theta0 = np.array([0.5, -0.3, 0.2])
    else:
        model = PoissonModel(rng.uniform(0.2, 1.5, (2000, 1)), B_X=3.0, B_Y=50.0)
        theta0 = np.array([0.5])
    rel = release(model.sample(theta0, n, rng), model, None, rng)
    np.testing.assert_allclose(plugin_mle(model, rel), theta0, atol=0.01)


@pytest.mark.parametrize("call, message", [
    (lambda: plugin_mle(GaussianMeanModel(1.0), make_release([0.1, 0.2], 0.1)), "dimension"),
    (lambda: estimate.estimate_report(GaussianMeanModel(1.0), make_release([0.3], 0.1), "x", 0.05),
     "unknown method"),
    (lambda: wald_ci([0.3], [[0.01]], 1.0), "alpha"),
    (lambda: BootstrapConfig(1), "b_boot"),
], ids=["plugin_other_d", "unknown_method", "wald_alpha_1", "b_boot_1"])
def test_invalid_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ------------------------------------------------------------ noise-aware

def test_noise_aware_equals_plugin_for_gaussian():
    model = GaussianMeanModel(1.0)
    for sigma in (0.0, 0.05, 0.5):
        rel = make_release([0.4], sigma)
        np.testing.assert_allclose(
            noise_aware_mle(model, rel), plugin_mle(model, rel), atol=1e-6
        )


def test_noise_aware_equals_plugin_at_sigma_zero_interior():
    model = LogisticModel(np.random.default_rng(1).standard_normal((200, 3)))
    theta = np.array([0.4, -0.2, 0.6])
    rel = make_release(model.grad_log_partition(theta), 0.0, model_id="logistic", B=3.0)
    np.testing.assert_allclose(noise_aware_mle(model, rel), plugin_mle(model, rel), atol=1e-6)


def test_noise_aware_first_order_equivalence_monte_carlo():
    # the deviation from the plug-in estimate should be well below the
    # combined sampling + privacy scale in essentially every replication
    n, eps = 1000, 1.0
    theta0 = np.array([0.5, -0.5, 0.3, -0.3, 0.2])
    budget = PrivacyBudget(eps, 1.0 / n**2)
    ok = 0
    for r in range(200):
        rng = substream(424242, "prop1", r)
        X = rng.standard_normal((n, 5))
        model = LogisticModel(X, B_X=3.0)
        y = (rng.random(n) < 1 / (1 + np.exp(-(X @ theta0)))).astype(float)
        rel = release(Dataset(X, y), model, budget, rng)
        gap = np.linalg.norm(noise_aware_mle(model, rel) - plugin_mle(model, rel))
        if gap <= 0.5 * (n**-0.5 + rel.sigma):
            ok += 1
    assert ok >= 190


def finite_difference_noise_aware(model, rel):
    """The noise-aware solve with L-BFGS-B's finite-difference gradient: the reference."""
    plug = plugin_mle(model, rel)
    sigma, n, d = rel.sigma, rel.n, model.d
    lam = max(1e-6, 0.01 * sigma**2)
    s = rel.s_tilde
    eye = np.eye(d)

    def objective(theta):
        r = s - model.grad_log_partition(theta)
        cov = (model.fisher_info(theta) + lam * eye) / n + sigma**2 * eye
        gls = float(r @ np.linalg.solve(cov, r))
        diff = theta - plug
        return gls + 0.1 * sigma**2 * float(diff @ diff)

    res = minimize(objective, plug, method="L-BFGS-B", bounds=[(-PARAM_BOX, PARAM_BOX)] * d,
                   options={"maxiter": 200, "gtol": 1e-8, "ftol": 1e-14})
    return np.clip(res.x, -PARAM_BOX, PARAM_BOX)


def gls_objective(monkeypatch, model, rel):
    """The objective that noise_aware_mle minimises, as theta -> (f, gradient), and its Hessians."""
    seen = []
    real = estimate._gls_objective
    monkeypatch.setattr(estimate, "_gls_objective", lambda *a: seen.append(real(*a)) or seen[-1])
    noise_aware_mle(model, rel)
    monkeypatch.undo()
    (evaluate, hessians), = seen
    return gls_callbacks(evaluate, hessians)


def gls_callbacks(evaluate, hessians):
    """``_gls_objective``'s one-row callbacks as theta -> (f, gradient) and theta -> Hessians."""
    one = np.arange(1)

    def fun(theta):
        f, grad, finite, *_ = evaluate(theta[None], one)
        assert finite[0]
        return f[0], grad[0]

    def hess(theta):
        _, _, _, *state = evaluate(theta[None], one)
        return tuple(h[0] for h in hessians(one, state))

    return fun, hess


def noise_aware_release(model_id, eps, seed):
    n = {"logistic": 1000, "poisson": 500, "gaussian_mean": 1000}[model_id]
    return simulated_release(model_id, n, eps, seed)


@pytest.mark.parametrize("model_id", ["gaussian_mean", "logistic", "poisson"])
@pytest.mark.parametrize("on_box", [False, True])
def test_noise_aware_gradient_matches_central_differences(monkeypatch, model_id, on_box):
    model, rel = noise_aware_release(model_id, 0.3, seed=11)
    fun, hessians = gls_objective(monkeypatch, model, rel)
    theta = plugin_mle(model, rel) + substream(11, "gradient-point").uniform(-0.3, 0.3, model.d)
    if on_box:
        theta[0] = PARAM_BOX
    gauss_newton = hessians(theta)[1]
    np.testing.assert_allclose(gauss_newton, gauss_newton.T, rtol=1e-12)
    assert np.linalg.eigvalsh(gauss_newton).min() > 0
    value, grad = fun(theta)
    h = 1e-5 * max(1.0, np.abs(theta).max())
    central = np.array([(fun(theta + h * e)[0] - fun(theta - h * e)[0]) / (2 * h)
                        for e in np.eye(model.d)])
    assert value == fun(theta)[0] > 0
    np.testing.assert_allclose(grad, central, rtol=1e-6, atol=1e-6 * np.abs(central).max())


@pytest.mark.parametrize("model_id", ["gaussian_mean", "logistic", "poisson"])
def test_noise_aware_evaluation_makes_one_one_row_kernel_call(monkeypatch, model_id):
    model, rel = noise_aware_release(model_id, 0.1, seed=0)
    fun, _ = gls_objective(monkeypatch, model, rel)
    # a start off the minimiser, so that the solve iterates
    plug = np.clip(plugin_mle(model, rel) - 0.2, -PARAM_BOX, PARAM_BOX)
    monkeypatch.setattr(estimate, "plugin_mle", lambda model, rel: plug)
    rows = []
    kernel = model._record_moments
    monkeypatch.setattr(model, "_record_moments",
                        lambda Theta: rows.append(len(Theta)) or kernel(Theta))
    for name in ("grad_log_partition", "fisher_info", "mean_and_fisher"):
        monkeypatch.setattr(model, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    for k in range(3):
        fun(plug + 0.1 * k)
        assert rows == [1] * (k + 1)
    rows.clear()
    solver = {}
    noise_aware_mle(model, rel, _solver=solver)
    assert solver["nfev"] > 1 and rows == [1] * solver["nfev"]


@pytest.mark.parametrize("model_id", ["gaussian_mean", "logistic", "poisson"])
@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_noise_aware_agrees_with_the_finite_difference_solve(model_id, eps):
    for seed in range(4):
        model, rel = noise_aware_release(model_id, eps, seed)
        ref = finite_difference_noise_aware(model, rel)
        theta = noise_aware_mle(model, rel)
        # both Gaussian solves end at the plug-in point: the exact one after
        # one evaluation, the finite-difference one in a failed line search
        if model_id == "gaussian_mean":
            np.testing.assert_array_equal(theta, ref)
        else:
            np.testing.assert_allclose(theta, ref, rtol=0.0, atol=1e-5 * np.abs(ref).max())


def large_feature_poisson_release():
    X = substream(6, "overflow").uniform(20.0, 60.0, (200, 2))
    model = PoissonModel(X, B_X=100.0, B_Y=1e6)
    rel = make_release(model.grad_log_partition(np.array([0.05, 0.05])), 0.1, n=200,
                       model_id="poisson", B=1e8)
    return model, rel


def test_noise_aware_overflowing_mean_raises():
    model, rel = large_feature_poisson_release()
    with pytest.raises(MeanOverflowError):
        noise_aware_mle(model, rel, theta_plug=np.array([PARAM_BOX, PARAM_BOX]))


def test_noise_aware_start_with_an_overflowing_fisher_block_raises():
    # the mean at x theta = 699 is finite but its Fisher block is not; the objective's
    # matmul with it used to emit "invalid value encountered in matmul"
    model = PoissonModel(np.full((5, 1), 300.0), B_X=1e3, B_Y=1e6)
    rel = make_release([1.0], 0.1, n=5, model_id="poisson", B=1e9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MeanOverflowError):
            noise_aware_mle(model, rel, theta_plug=np.array([699.0 / 300.0]))


def test_noise_aware_direction_of_an_overflowed_row_with_a_singular_covariance_does_not_raise():
    # equal features of 40: on the box face the mean overflows and C(I) is exactly
    # singular, so the kernel's direction callback cannot solve C v = r there
    model = PoissonModel(np.full((5, 2), 40.0), B_X=100.0, B_Y=1e6)
    rel = make_release([1.0, 1.0], 0.1, n=5, model_id="poisson", B=1e8)
    evaluate, _ = estimate._gls_objective(model, rel, np.zeros(2))
    f, _, finite, *_ = evaluate(np.full((1, 2), PARAM_BOX), np.arange(1))
    assert f[0] == np.inf and not finite[0]
    with pytest.raises(MeanOverflowError):
        noise_aware_mle(model, rel, theta_plug=np.full(2, PARAM_BOX))


def test_noise_aware_step_to_an_overflowing_mean_is_halved(monkeypatch):
    # from (-0.5, -0.5) the first full step ends on the box face, where exp(x . theta) overflows
    model, rel = large_feature_poisson_release()
    finite_masks = []
    kernel = model._record_moments

    def spy(Theta):
        moments = kernel(Theta)
        finite_masks.append(moments[2])
        return moments

    monkeypatch.setattr(model, "_record_moments", spy)
    solver = {}
    theta = noise_aware_mle(model, rel, theta_plug=np.array([-0.5, -0.5]), _solver=solver)
    assert finite_masks[0].all() and not finite_masks[1].any()
    assert solver["status"] == 0 and solver["nfev"] > solver["nit"] + 1
    np.testing.assert_allclose(theta, [0.05, 0.05], rtol=1e-3)


def test_noise_aware_report_counts_solver_work():
    model, rel = noise_aware_release("logistic", 0.1, seed=0)
    plugin = estimate.estimate_report(model, rel, "plugin", 0.05)
    report = estimate.estimate_report(model, rel, "noise_aware", 0.05)
    solver = {}
    np.testing.assert_array_equal(noise_aware_mle(model, rel, _solver=solver), report.theta_hat)
    assert solver["nit"] > 0 and solver["nfev"] > solver["nit"]
    assert {k: report.diagnostics[k] for k in solver} == solver
    assert list(report.diagnostics) == ["lambda", "sigma", "at_box", "nit", "nfev", "status"]
    assert list(plugin.diagnostics) == ["lambda", "sigma", "at_box"]


@pytest.mark.parametrize("s_tilde, at_box", [(0.4, False), (40.0, True)])
def test_gaussian_noise_aware_solve_stops_at_the_plug_in_point(s_tilde, at_box):
    model = GaussianMeanModel(2.0, B=50.0)
    rel = make_release([s_tilde], 0.3, B=50.0)
    report = estimate.estimate_report(model, rel, "noise_aware", 0.05)
    np.testing.assert_array_equal(report.theta_hat, plugin_mle(model, rel))
    assert report.diagnostics["at_box"] is at_box
    assert report.diagnostics["nfev"] == 1 and report.diagnostics["status"] == 0


def lbfgsb_noise_aware(model, rel):
    """The exact-gradient L-BFGS-B solve that the projected Newton replaced: the reference.

    Returns the end point and scipy's result.
    """
    plug = plugin_mle(model, rel)
    sigma, n, d = rel.sigma, rel.n, model.d
    lam = max(1e-6, 0.01 * sigma**2)
    eye = np.eye(d)

    def direction(rows, mu, fisher):  # v = C^{-1} r
        r = rel.s_tilde - mu[0]
        return np.linalg.solve((fisher[0] + lam * eye) / n + sigma**2 * eye, r)[None]

    def objective_and_gradient(theta):
        mu, fisher, v, skew_v, _ = model.mean_fisher_and_skew(theta[None], direction)
        r, v = rel.s_tilde - mu[0], v[0]
        diff = theta - plug
        grad = -2.0 * (fisher[0] @ v) - skew_v[0] @ v / n + 0.2 * sigma**2 * diff  # T[v, v]
        return float(r @ v) + 0.1 * sigma**2 * float(diff @ diff), grad

    res = minimize(objective_and_gradient, plug, jac=True, method="L-BFGS-B",
                   bounds=[(-PARAM_BOX, PARAM_BOX)] * d,
                   options={"maxiter": 200, "gtol": 1e-8, "ftol": 1e-14})
    return np.clip(res.x, -PARAM_BOX, PARAM_BOX), res


@pytest.mark.parametrize("model_id", ["gaussian_mean", "logistic", "poisson"])
@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_noise_aware_agrees_with_the_exact_gradient_lbfgsb_solve(model_id, eps):
    for seed in range(8):
        model, rel = noise_aware_release(model_id, eps, seed)
        ref, res = lbfgsb_noise_aware(model, rel)
        solver = {}
        theta = noise_aware_mle(model, rel, _solver=solver)
        assert solver["status"] == 0 and res.status == 0
        # Newton steps with the T term: Gauss-Newton steps alone zig-zag on box-bound
        # logistic solves at eps = 0.1, for up to 130 evaluations
        assert solver["nfev"] <= 3
        assert (np.abs(theta).max() >= PARAM_BOX) == (np.abs(ref).max() >= PARAM_BOX)
        if res.nfev == 1:  # L-BFGS-B stopped at the plug-in point, and so does the new solve
            assert solver["nfev"] == 1
            np.testing.assert_array_equal(theta, ref)
        else:
            np.testing.assert_allclose(theta, ref, rtol=0.0, atol=1e-6 * np.abs(ref).max())


@pytest.mark.parametrize("model_id", ["gaussian_mean", "logistic", "poisson"])
def test_noise_aware_hessian_is_exact_but_for_the_fourth_cumulant(model_id):
    model, rel = noise_aware_release(model_id, 0.3, seed=11)
    plug = plugin_mle(model, rel)
    fun, hessians = gls_callbacks(*estimate._gls_objective(model, rel, plug))
    theta = plug + substream(11, "hessian-point").uniform(-0.3, 0.3, model.d)
    full, gauss_newton = hessians(theta)
    mu, fisher, _ = model.mean_and_fisher(theta[None])
    cov = (fisher[0] + estimate._regularizer(rel.sigma) * np.eye(model.d)) / rel.n \
        + rel.sigma**2 * np.eye(model.d)
    v = np.linalg.solve(cov, rel.s_tilde - mu[0])
    np.testing.assert_allclose(gauss_newton, 2.0 * fisher[0] @ np.linalg.solve(cov, fisher[0])
                               + 0.2 * rel.sigma**2 * np.eye(model.d), rtol=1e-12)
    # the exact Hessian, the gradient's central differences, is full - Q[v, v] / n, with Q
    # the fourth cumulants: central differences of T(theta)[v, v] at a fixed v
    h = 1e-5 * max(1.0, np.abs(theta).max())
    central = np.array([(fun(theta + h * e)[1] - fun(theta - h * e)[1]) / (2 * h)
                        for e in np.eye(model.d)])

    def skew_vv(t):
        return model.mean_fisher_and_skew(t[None], lambda *_: v[None])[3][0] @ v

    quartic = np.array([(skew_vv(theta + h * e) - skew_vv(theta - h * e)) / (2 * h)
                        for e in np.eye(model.d)]) / rel.n
    np.testing.assert_allclose(full - quartic, central, rtol=1e-6,
                               atol=1e-6 * np.abs(central).max())


def test_noise_aware_solve_capped_at_newton_max_iter_steps_raises_with_its_iterate(monkeypatch):
    model, rel = noise_aware_release("logistic", 0.1, seed=0)
    start = np.clip(plugin_mle(model, rel) - 0.2, -PARAM_BOX, PARAM_BOX)
    real = estimate._gls_objective

    def short_steps(*args):
        # Hessians 1e4 times too large: every step is accepted and too short to converge
        evaluate, hessians = real(*args)
        return evaluate, lambda rows, state: tuple(1e4 * h for h in hessians(rows, state))

    monkeypatch.setattr(estimate, "_gls_objective", short_steps)
    solver = {}
    with pytest.raises(SolverDivergedError, match="na_diverged") as info:
        noise_aware_mle(model, rel, theta_plug=start, _solver=solver)
    assert solver == {"nit": NEWTON_MAX_ITER, "nfev": NEWTON_MAX_ITER + 1, "status": 1}
    assert np.abs(info.value.last_iterate - start).max() > 0


# ---------------------------------------------------------------- variance

def test_dp_variance_gaussian_arithmetic():
    model = GaussianMeanModel(1.0)
    v = dp_variance(model, np.array([0.3]), make_release([0.3], 0.1, n=1000))
    # 1/1000 + 0.01, up to the small Fisher regularizer
    assert v[0, 0] == pytest.approx(0.011, abs=1e-5)


def test_dp_variance_sigma_zero_is_classical():
    model = LogisticModel(np.random.default_rng(8).standard_normal((300, 3)))
    th = np.array([0.2, -0.4, 0.1])
    v = dp_variance(model, th, make_release(model.grad_log_partition(th), 0.0,
                                            model_id="logistic", B=3.0))
    classical = np.linalg.inv(model.fisher_info(th)) / 1000
    np.testing.assert_allclose(v, classical, rtol=1e-5)


def test_dp_variance_diagonal_cap():
    # nearly flat family: the privacy term blows past the cap and is clipped
    model = GaussianMeanModel(1e-6)
    rel = make_release([0.0], 0.1, n=10)
    v = dp_variance(model, np.zeros(1), rel)
    assert v[0, 0] <= 1e6 / 10 + 1e-12
    assert v[0, 0] == pytest.approx(1e5)


def test_dp_variance_symmetric_psd():
    model = LogisticModel(np.random.default_rng(3).standard_normal((100, 4)))
    th = np.array([0.5, -0.1, 0.0, 0.3])
    v = dp_variance(model, th, make_release(np.zeros(4), 0.2, model_id="logistic", B=3.0))
    np.testing.assert_allclose(v, v.T)
    assert np.linalg.eigvalsh(v).min() >= -1e-12


def test_dp_variance_n_syn_term_is_added_before_the_cap():
    model = LogisticModel(np.random.default_rng(5).standard_normal((200, 3)))
    th = np.array([0.3, -0.2, 0.1])
    rel = make_release(np.zeros(3), 0.05, n=500, model_id="logistic", B=3.0)
    iinv = np.linalg.inv(model.fisher_info(th) + estimate._regularizer(rel.sigma) * np.eye(3))
    want = iinv / 500 + 0.05**2 * (iinv @ iinv) + iinv / 40
    np.testing.assert_array_equal(dp_variance(model, th, rel, n_syn=40), 0.5 * (want + want.T))
    # a term that pushes the diagonal past the cap is capped with the rest
    capped = dp_variance(GaussianMeanModel(1.0), np.zeros(1), make_release([0.0], 0.0, n=10),
                         n_syn=1e-6)
    assert capped[0, 0] == 1e6 / 10


class FixedFisher:
    """A stand-in model whose Fisher information is one fixed matrix."""

    def __init__(self, fisher):
        self.fisher = np.asarray(fisher, dtype=float)
        self.d = len(self.fisher)

    def fisher_info(self, theta):
        return self.fisher


def uncapped_variance(fisher, rel):
    """dp_variance's matrix before its cap, computed as dp_variance computes it."""
    iinv = np.linalg.inv(fisher + estimate._regularizer(rel.sigma) * np.eye(len(fisher)))
    var = iinv / rel.n + rel.sigma**2 * (iinv @ iinv)
    return 0.5 * (var + var.T)


@pytest.mark.parametrize("fisher", [
    np.full((2, 2), 0.25),  # two identical design columns: singular up to the regularizer
    [[0.25, 0.25, 0.0], [0.25, 0.25, 0.0], [0.0, 0.0, 0.2]],  # and one uncorrelated column
    [[0.25, 0.25 - 1e-9, 0.001], [0.25 - 1e-9, 0.25, 0.002], [0.001, 0.002, 0.2]],
])
def test_dp_variance_cap_keeps_a_covariance(fisher):
    # capping the diagonal alone left an off-diagonal of -5.4e5 beside a variance of 2500
    rel = make_release(np.zeros(len(fisher)), 0.01, n=400, model_id="logistic", B=3.0)
    cap = estimate.VARIANCE_DIAG_CAP / rel.n
    raw = uncapped_variance(np.asarray(fisher), rel)
    assert np.diag(raw).max() > cap  # the cap binds
    v = dp_variance(FixedFisher(fisher), np.zeros(len(fisher)), rel)
    np.testing.assert_array_equal(np.diag(v), np.minimum(np.diag(raw), cap))
    np.testing.assert_array_equal(v, v.T)
    assert np.linalg.eigvalsh(v).min() >= -1e-12 * cap
    sd = np.sqrt(np.diag(v))
    assert np.abs(v / np.outer(sd, sd)).max() <= 1 + 1e-12
    # the entries of rows and columns below the cap are untouched
    free = np.diag(raw) <= cap
    np.testing.assert_array_equal(v[np.ix_(free, free)], raw[np.ix_(free, free)])


def test_dp_variance_below_the_cap_is_unchanged_bit_for_bit():
    fisher = np.array([[0.3, 0.1], [0.1, 0.2]])
    rel = make_release(np.zeros(2), 0.05, n=400, model_id="logistic", B=3.0)
    np.testing.assert_array_equal(dp_variance(FixedFisher(fisher), np.zeros(2), rel),
                                  uncapped_variance(fisher, rel))


# ---------------------------------------------------------------- wald

def test_wald_ci_textbook():
    (lo, hi), = wald_ci(np.array([0.5]), np.array([[0.01]]), 0.05)
    assert lo == pytest.approx(0.304, abs=1e-3)
    assert hi == pytest.approx(0.696, abs=1e-3)


def test_wald_ci_extreme_alpha():
    (lo, hi), = wald_ci(np.array([0.0]), np.array([[1.0]]), 0.9999)
    assert hi - lo < 1e-3


def test_wald_ci_zero_variance_degenerate():
    (lo, hi), = wald_ci(np.array([0.7]), np.array([[0.0]]), 0.05)
    assert lo == hi == 0.7


def test_wald_ci_negative_variance_rejected():
    with pytest.raises(InvalidVarianceError, match="invalid_variance"):
        wald_ci(np.array([0.0]), np.array([[-1.0]]), 0.05)


def test_wald_test_null_at_center():
    res = wald_test(np.zeros(1), np.array([[0.01]]), np.zeros(1), 0.05)
    assert res[0]["reject"] is False
    assert res[0]["p_value"] == pytest.approx(1.0)


def test_wald_test_near_boundary():
    res = wald_test(np.array([0.196]), np.array([[0.01]]), np.zeros(1), 0.05)
    # score 1.96 sits just above the exact 1.959964 quantile
    assert res[0]["p_value"] == pytest.approx(0.05, abs=1e-3)


def test_wald_test_clear_rejection():
    res = wald_test(np.ones(1), np.array([[0.01]]), np.zeros(1), 0.05)
    assert res[0]["reject"] is True
    assert res[0]["p_value"] < 1e-15


# -------------------------------------------------------------- bootstrap

def test_bootstrap_deterministic():
    model = GaussianMeanModel(1.0)
    rel = make_release([0.3], 0.1)
    cfg = BootstrapConfig(2, 0.05)
    a = parametric_bootstrap(model, rel, cfg, substream(3, "boot"))
    b = parametric_bootstrap(model, rel, cfg, substream(3, "boot"))
    assert a.cis == b.cis


def test_bootstrap_matches_wald_width_sigma_zero():
    model = GaussianMeanModel(1.0, B=8.0)
    rng = substream(90, "bw")
    n = 10**6
    rel = release(model.sample(np.array([0.4]), n, rng), model, None, rng)
    boot = parametric_bootstrap(model, rel, BootstrapConfig(2000, 0.05), rng)
    th = plugin_mle(model, rel)
    (lo, hi), = wald_ci(th, dp_variance(model, th, rel), 0.05)
    bw = boot.cis[0][1] - boot.cis[0][0]
    assert bw == pytest.approx(hi - lo, rel=0.10)


def test_bootstrap_wald_consilience_with_noise():
    model = GaussianMeanModel(1.0)
    n = 1000
    budget = PrivacyBudget(1.0, 1.0 / n**2)
    rng = substream(17, "consilience")
    widths_b, widths_w = [], []
    for _ in range(30):
        rel = release(model.sample(np.array([1.0]), n, rng), model, budget, rng)
        boot = parametric_bootstrap(model, rel, BootstrapConfig(300, 0.05), rng)
        th = plugin_mle(model, rel)
        (lo, hi), = wald_ci(th, dp_variance(model, th, rel), 0.05)
        widths_b.append(boot.cis[0][1] - boot.cis[0][0])
        widths_w.append(hi - lo)
    assert np.mean(widths_b) == pytest.approx(np.mean(widths_w), rel=0.10)


def per_draw_bootstrap(model, rel, cfg, rng):
    """The per-draw loop the batched bootstrap solve replaced, kept as the reference.

    Each draw is solved once; a diverged one is replaced by theta_hat.
    Returns the draws and the failure count.
    """
    theta_hat = plugin_mle(model, rel)
    mu = model.grad_log_partition(theta_hat)
    cov = model.fisher_info(theta_hat) / rel.n + rel.sigma**2 * np.eye(model.d)
    chol = np.linalg.cholesky(cov + 1e-15 * np.eye(model.d))
    draws = np.empty((cfg.b_boot, model.d))
    failures = 0
    for b in range(cfg.b_boot):
        s_star = mu + chol @ rng.standard_normal(model.d)
        try:
            draws[b] = model.inverse_mean_map(s_star)
        except SolverDivergedError:
            failures += 1
            draws[b] = theta_hat
    return draws, failures


def capture_solved_draws(monkeypatch):
    """Record each bootstrap's batched solve: its statistics and (draws, fallbacks, failures)."""
    seen = []
    solve = estimate._solve_draws

    def spy(model, s_star, *args):
        seen.append((s_star, solve(model, s_star, *args)))
        return seen[-1][1]

    monkeypatch.setattr(estimate, "_solve_draws", spy)
    return seen


def simulated_release(model_id, n, eps, seed):
    rng = substream(seed, "batched-bootstrap", model_id)
    model, raw = make_model_and_data(model_id, default_theta0(model_id), n, rng)
    rel = release(raw, model, PrivacyBudget(eps, 1.0 / n**2), rng)
    return model, rel


@pytest.mark.parametrize("model_id, n, eps", [
    ("logistic", 1000, 1.0),
    ("poisson", 500, 1.0),
    ("poisson", 500, 0.1),
])
def test_batched_bootstrap_matches_per_draw_loop(monkeypatch, model_id, n, eps):
    model, rel = simulated_release(model_id, n, eps, seed=5)
    seen = capture_solved_draws(monkeypatch)
    cfg = BootstrapConfig(200, 0.05)
    report = parametric_bootstrap(model, rel, cfg, substream(5, "draws"))
    ref_draws, ref_failures = per_draw_bootstrap(model, rel, cfg, substream(5, "draws"))
    (_, (draws, fallbacks, failures)), = seen
    np.testing.assert_allclose(draws, ref_draws, rtol=0.0, atol=1e-10)
    assert failures == ref_failures == report.diagnostics["failures"]
    assert report.diagnostics["fallbacks"] == fallbacks
    if eps < 1.0:
        assert fallbacks > 0  # some draws took the projected-Newton fallback


def test_batched_bootstrap_logistic_low_eps_fallbacks_agree_to_solver_tolerance(monkeypatch):
    # Newton rows agree to rounding.  A logistic draw far outside the mean
    # range leaves Newton unconverged near the box, where the least-squares
    # objective is nearly flat; the fallback then stops within its own
    # tolerance of a minimizer, so a last iterate that differs in the last
    # bits (a GEMM over the chunk instead of one row) can move its answer.
    model, rel = simulated_release("logistic", 1000, 0.1, seed=5)
    seen = capture_solved_draws(monkeypatch)
    fell_back = []
    fallback = model._inverse_mean_map_fallback
    monkeypatch.setattr(model, "_inverse_mean_map_fallback",
                        lambda S, Theta0: fell_back.extend(S.copy()) or fallback(S, Theta0))
    cfg = BootstrapConfig(200, 0.05)
    report = parametric_bootstrap(model, rel, cfg, substream(5, "draws"))
    monkeypatch.undo()
    ref_draws, ref_failures = per_draw_bootstrap(model, rel, cfg, substream(5, "draws"))
    (s_star, (draws, fallbacks, failures)), = seen
    newton_rows = ~np.any(np.all(s_star[:, None] == np.array(fell_back)[None], axis=2), axis=1)
    assert fallbacks == (~newton_rows).sum() > 0
    np.testing.assert_allclose(draws[newton_rows], ref_draws[newton_rows], rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(draws, ref_draws, rtol=0.0, atol=1e-5)
    assert failures == ref_failures == report.diagnostics["failures"]


def lbfgsb_fallback(model, s, theta0):
    """The per-row L-BFGS-B fallback that the batched projected Newton replaced.

    Kept as the reference: returns the end point and whether it diverged,
    by the same end check.
    """
    X = model.design

    def objective(theta):
        P, W, finite = model._record_moments(theta[None])
        if not finite[0]:
            return 1e300, np.zeros(model.d)
        r = P[0] @ X / len(X) - s
        return 0.5 * float(r @ r), (W[0] * (X @ r)) @ X / len(X)

    res = minimize(objective, theta0, jac=True, method="L-BFGS-B",
                   bounds=[(-PARAM_BOX, PARAM_BOX)] * model.d,
                   options={"maxiter": 200, "ftol": 1e-15, "gtol": 1e-12})
    theta = np.clip(res.x, -PARAM_BOX, PARAM_BOX)
    value, grad = objective(theta)
    proj = grad.copy()
    proj[(theta >= PARAM_BOX - 1e-12) & (grad < 0)] = 0.0
    proj[(theta <= -PARAM_BOX + 1e-12) & (grad > 0)] = 0.0
    return theta, not value < 1e300 or np.linalg.norm(proj) > 1e-5 * max(1.0, np.linalg.norm(s))


def low_eps_draws(model, rel):
    """200 bootstrap draws of the statistic around the plug-in estimate of ``rel``."""
    theta_hat = plugin_mle(model, rel)
    cov = model.fisher_info(theta_hat) / rel.n + rel.sigma**2 * np.eye(model.d)
    z = substream(5, "draws").standard_normal((200, model.d))
    return model.grad_log_partition(theta_hat) + z @ np.linalg.cholesky(cov).T


@pytest.mark.parametrize("model_id, n", [("logistic", 1000), ("poisson", 500)])
def test_batched_fallback_agrees_with_per_row_lbfgsb_on_low_eps_draws(model_id, n):
    model, rel = simulated_release(model_id, n, 0.1, seed=5)
    s_star = low_eps_draws(model, rel)
    Theta0, converged = model.newton_batch(s_star)
    S, Theta0 = s_star[~converged], Theta0[~converged]
    assert len(S) > 20  # at eps = 0.1 many draws fall back
    theta, diverged = model._inverse_mean_map_fallback(S, Theta0)
    ref = [lbfgsb_fallback(model, s, t0) for s, t0 in zip(S, Theta0)]
    assert diverged.tolist() == [d for _, d in ref]
    ref_theta = np.array([t for t, _ in ref])
    np.testing.assert_allclose(theta, ref_theta, rtol=0.0, atol=1e-5 * np.abs(ref_theta).max())


def test_newton_hands_box_blocked_low_eps_draws_on_without_halving_rounds():
    # at eps = 0.1 most logistic draws lie outside the mean range; their Newton
    # rows reach the box with steps pointing out of it, and stop there instead
    # of trying 30 halvings each (225 kernel calls over 6972 rows before)
    model, rel = simulated_release("logistic", 1000, 0.1, seed=5)
    s_star = low_eps_draws(model, rel)
    rows = []
    kernel = model.mean_and_fisher
    model.mean_and_fisher = lambda Theta: rows.append(len(Theta)) or kernel(Theta)
    _, converged = model.newton_batch(s_star)
    assert (~converged).sum() == 182  # as many rows as before are left to the fallback
    assert len(rows) <= 100 and sum(rows) <= 2000


def test_batched_bootstrap_large_rate_rows_match_the_loop(monkeypatch):
    # features near 60 make the full Newton step from 0 overflow the log link; the
    # bounded step moves no record's x . theta by more than NEWTON_MAX_REACH, so no
    # candidate overflows, and every draw is solved as the one-row loop solves it
    X = substream(6, "overflow").uniform(20.0, 60.0, (200, 2))
    model = PoissonModel(X, B_X=100.0, B_Y=1e6)
    thetas = substream(7, "overflow").uniform(-0.05, 0.15, (30, 2))
    s_star = np.array([model.grad_log_partition(t) for t in thetas])
    overflowed = []
    kernel = model.mean_and_fisher

    def spy(Theta):
        mu, fisher, finite = kernel(Theta)
        overflowed.append(not finite.all())
        return mu, fisher, finite

    monkeypatch.setattr(model, "mean_and_fisher", spy)
    draws, _, failures = estimate._solve_draws(model, s_star, thetas[0])
    monkeypatch.undo()
    assert overflowed and not any(overflowed)
    assert failures == 0
    ref = np.array([model.inverse_mean_map(s) for s in s_star])
    np.testing.assert_allclose(draws, ref, rtol=0.0, atol=1e-10)


def test_bootstrap_chunks_are_sized_by_the_design_not_the_release():
    # the public design has 2**14 rows, and it, not a release's n, sets the
    # width of the kernel's temporaries
    model = LogisticModel(substream(11, "chunks").standard_normal((2**14, 2)))
    thetas = substream(12, "chunks").uniform(-0.5, 0.5, (10, 2))
    s_star = np.array([model.grad_log_partition(t) for t in thetas])
    widths, blocks = [], []
    newton, kernel, moments = model.newton_batch, model.mean_and_fisher, model._record_moments
    model.newton_batch = lambda S: widths.append(len(S)) or newton(S)
    model.mean_and_fisher = lambda Theta: blocks.append([]) or kernel(Theta)
    model._record_moments = lambda Theta: blocks[-1].append(len(Theta)) or moments(Theta)
    draws, fallbacks, failures = estimate._solve_draws(model, s_star, thetas[0])
    assert widths == [10]  # one Newton loop over every draw
    # the start at theta = 0, then the first step of all 10 draws, in blocks of
    # NEWTON_CHUNK_ELEMS // 2**14 rows
    assert blocks[:2] == [[1], [4, 4, 2]]
    assert max(max(b) for b in blocks) <= 4
    assert (fallbacks, failures) == (0, 0)
    np.testing.assert_allclose(draws, thetas, atol=1e-8)


@pytest.mark.parametrize("model_id, n", [("logistic", 1000), ("poisson", 500)])
def test_batched_inverse_matches_row_by_row_solves_on_low_eps_draws(model_id, n):
    # the one Newton loop and the fallback blocks run each row as a solve of
    # that row alone does (the one-row batch is inverse_mean_map, without the raise)
    model, rel = simulated_release(model_id, n, 0.1, seed=5)
    s_star = low_eps_draws(model, rel)
    theta, fallbacks, diverged = model.inverse_mean_map_batch(s_star)
    alone = [model.inverse_mean_map_batch(s[None]) for s in s_star]
    assert fallbacks == sum(f for _, f, _ in alone) > 20
    assert diverged.tolist() == [bool(d[0]) for _, _, d in alone]
    np.testing.assert_allclose(theta, np.vstack([t for t, _, _ in alone]), rtol=0.0, atol=1e-12)


def test_one_newton_loop_makes_no_more_kernel_calls_than_its_slowest_draw():
    # 500 draws on a 2**14-row design used to run in 125 chunks of 4, each its
    # own Newton loop; one loop makes a kernel call per iteration and halving
    # round of all its rows, no more than the slowest draw makes alone
    model = LogisticModel(substream(13, "one-loop").standard_normal((2**14, 2)))
    s_star = model.mean_and_fisher(substream(14, "one-loop").uniform(-1.0, 1.0, (500, 2)))[0]
    calls = []
    kernel = model.mean_and_fisher
    model.mean_and_fisher = lambda Theta: calls.append(len(Theta)) or kernel(Theta)
    _, fallbacks, _ = model.inverse_mean_map_batch(s_star)
    assert fallbacks == 0 and calls[:2] == [1, 500]
    batched = len(calls)
    alone = []
    for s in s_star:
        calls.clear()
        model.newton_batch(s[None])
        alone.append(len(calls))
    assert batched <= max(alone)


def test_no_kernel_temporary_is_wider_than_a_block():
    model = LogisticModel(substream(15, "blocks").standard_normal((2**14, 2)))
    s_star = model.mean_and_fisher(substream(16, "blocks").uniform(-1.0, 1.0, (40, 2)))[0]
    s_star[::4, 0] = 3.0  # out of the mean range: these 10 rows go on to the fallback
    widths, handed = [], []
    moments, fallback = model._record_moments, model._inverse_mean_map_fallback
    model._record_moments = lambda Theta: widths.append(len(Theta)) or moments(Theta)
    model._inverse_mean_map_fallback = lambda S, Theta0: handed.append(len(S)) or fallback(S, Theta0)
    _, fallbacks, diverged = model.inverse_mean_map_batch(s_star)
    assert fallbacks == 10 and not diverged.any()
    assert handed == [10]  # one fallback call, which the kernel blocks
    assert max(widths) == NEWTON_CHUNK_ELEMS // 2**14


# the low-eps batched inverse of test_batched_inverse_matches_row_by_row_solves_on_low_eps_draws
# in a fresh interpreter: one warm-up solve, then the page faults of each of five more
REPEATED_LOW_EPS_SOLVES = """
import resource, sys
sys.path[:0] = sys.argv[1:3]
from test_estimate import low_eps_draws, simulated_release
model, rel = simulated_release(sys.argv[3], int(sys.argv[4]), 0.1, seed=5)
S = low_eps_draws(model, rel)
assert model.inverse_mean_map_batch(S)[1] > 20  # many draws take the fallback
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    model.inverse_mean_map_batch(S)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.parametrize("model_id, n", [("logistic", 1000), ("poisson", 500)])
def test_repeated_low_eps_solves_fault_in_no_fresh_kernel_arrays(model_id, n):
    # every kernel block writes into this thread's workspace; a block that
    # allocated its (rows, N) arrays afresh would fault in about 9k pages per
    # logistic solve and 1.5k per Poisson solve
    pytest.importorskip("resource")  # the script reads ru_minflt
    paths = [str(Path(estimate.__file__).resolve().parent.parent), str(Path(__file__).parent)]
    out = subprocess.run([sys.executable, "-c", REPEATED_LOW_EPS_SOLVES, *paths, model_id, str(n)],
                         capture_output=True, text=True, check=True, timeout=120)
    faults = [int(line) for line in out.stdout.split()]
    assert len(faults) == 5 and max(faults) < 100, faults


def test_threads_solving_on_two_models_at_once_match_solving_them_in_turn():
    # each thread's kernel writes its own workspace, so solves interleaved
    # across threads give the bits of the same solves run one after the other
    problems = []
    for model_id, n in (("logistic", 1000), ("poisson", 500)):
        model, rel = simulated_release(model_id, n, 0.1, seed=5)
        problems.append((model, low_eps_draws(model, rel)))
    want = [model.inverse_mean_map_batch(S) for model, S in problems]

    def solve(k):
        model, S = problems[k % 2]
        return [model.inverse_mean_map_batch(S) for _ in range(2)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(solve, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for k, runs in enumerate(results):
        theta, fallbacks, diverged = want[k % 2]
        for got in runs:
            assert got[1] == fallbacks
            np.testing.assert_array_equal(got[2], diverged)
            np.testing.assert_array_equal(got[0].view(np.uint64), theta.view(np.uint64))


def flaky_newton(model, fails):
    """Make the batched Newton report rows unconverged where ``fails(S)`` holds."""
    newton = model.newton_batch

    def patched(S):
        theta, converged = newton(S)
        return theta, converged & ~fails(np.atleast_2d(S))

    model.newton_batch = patched


def test_bootstrap_failed_draws_are_counted_and_replaced(monkeypatch):
    model = LogisticModel(substream(8, "fail").standard_normal((400, 2)))
    s_star = np.tile([0.2, -0.1], (40, 1)) + 0.01 * substream(9, "fail").standard_normal((40, 2))
    bad = [3, 17, 31]
    s_star[bad] = [[0.15, 0.2], [0.1, 0.25], [0.05, 0.1]]  # the only rows with s_2 > 0
    flaky_newton(model, lambda S: S[:, 1] > 0)

    def diverge(S, Theta0):
        return Theta0.copy(), np.ones(len(S), dtype=bool)

    monkeypatch.setattr(model, "_inverse_mean_map_fallback", diverge)
    solved, retried = [], []
    batch = model.inverse_mean_map_batch

    def batch_spy(S):
        theta, fallbacks, diverged = batch(S)
        solved.append(theta.copy())
        return theta, fallbacks, diverged

    monkeypatch.setattr(model, "inverse_mean_map_batch", batch_spy)
    monkeypatch.setattr(model, "inverse_mean_map", retried.append)
    theta_hat = np.array([0.3, -0.3])
    draws, fallbacks, failures = estimate._solve_draws(model, s_star, theta_hat)
    assert (fallbacks, failures) == (3, 3)
    assert len(solved) == 1 and retried == []  # one batched solve; no row is solved again
    np.testing.assert_array_equal(draws[bad], np.tile(theta_hat, (3, 1)))
    np.testing.assert_array_equal(np.delete(draws, bad, axis=0), np.delete(solved[0], bad, axis=0))
    assert not np.any(np.all(np.delete(draws, bad, axis=0) == theta_hat, axis=1))


def numerical_error_classes(cls=NumericalError):
    """Every class of the NumericalError family, found by walking its subclasses."""
    for sub in cls.__subclasses__():
        yield sub
        yield from numerical_error_classes(sub)


@pytest.mark.parametrize("exc", [SolverDivergedError("na_diverged", [0.5, -1.0]),
                                 SolverDivergedError("solver_diverged", [2.0])]
                         + [cls("a_code") for cls in numerical_error_classes()
                            if not issubclass(cls, SolverDivergedError)])
def test_solver_errors_survive_pickling(exc):
    # a harness worker process sends the errors of its cells back pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc)
    assert isinstance(back, NumericalError)
    if isinstance(exc, SolverDivergedError):
        np.testing.assert_array_equal(back.last_iterate, exc.last_iterate)


def test_bootstrap_unstable_at_ten_percent_failures(monkeypatch):
    model = GaussianMeanModel(1.0)
    rel = make_release([0.3], 0.1)
    for failures, unstable in [(1, False), (2, True)]:
        monkeypatch.setattr(estimate, "_solve_draws",
                            lambda m, s, th, k=failures: (s.copy(), k, k))
        if unstable:
            with pytest.raises(BootstrapUnstableError, match="bootstrap_unstable"):
                parametric_bootstrap(model, rel, BootstrapConfig(20, 0.05), substream(1, "u"))
        else:
            report = parametric_bootstrap(model, rel, BootstrapConfig(20, 0.05), substream(1, "u"))
            assert report.diagnostics["failures"] == 1


def test_bootstrap_unstable_when_every_draw_diverges(monkeypatch):
    model = LogisticModel(substream(10, "unstable").standard_normal((300, 2)))
    rel = make_release([0.3, -0.2], 0.05, n=300, model_id="logistic", B=3.0)
    theta_hat = plugin_mle(model, rel)
    flaky_newton(model, lambda S: np.ones(len(S), dtype=bool))

    def diverge(S, Theta0):
        return Theta0.copy(), np.ones(len(S), dtype=bool)

    monkeypatch.setattr(model, "_inverse_mean_map_fallback", diverge)
    monkeypatch.setattr(estimate, "plugin_mle", lambda m, r: theta_hat)
    with pytest.raises(BootstrapUnstableError):
        parametric_bootstrap(model, rel, BootstrapConfig(50, 0.05), substream(2, "u"))


# ------------------------------------------------------------- nonprivate

def test_nonprivate_two_points():
    model = GaussianMeanModel(1.0)
    report = nonprivate_mle(model, Dataset(np.array([-1.0, 1.0])), 0.05)
    assert report.theta_hat[0] == pytest.approx(0.0)
    assert report.variance[0][0] == pytest.approx(0.5)
    assert report.method == "nonprivate_mle"


def test_nonprivate_large_n_consistency():
    model = GaussianMeanModel(1.0)
    data = model.sample(np.array([0.9]), 10**6, substream(4, "np-lln"))
    report = nonprivate_mle(model, data, 0.05)
    assert abs(report.theta_hat[0] - 0.9) < 0.01


def test_nonprivate_is_the_mle_of_the_raw_records():
    # rows past B_X count in full: the MLE under a bound that never binds, bit for bit
    model, raw = make_model_and_data("logistic", default_theta0("logistic"), 2000,
                                     substream(32, "raw-oracle"))
    assert (np.linalg.norm(raw.x, axis=1) > model.clip_bounds.B_X).any()
    report = nonprivate_mle(model, raw, 0.05)
    unbound = LogisticModel(raw.x, B_X=1e9)
    theta = unbound.inverse_mean_map(unbound.mean_suff_stat(raw))
    np.testing.assert_array_equal(report.theta_hat, theta)
    variance = np.linalg.inv(unbound.fisher_info(theta)) / raw.n
    np.testing.assert_array_equal(report.variance, 0.5 * (variance + variance.T))


def collinear_logistic(seed):
    """A logistic model over the columns (x, x, z), n = 400, B_X = 10, and records drawn from it."""
    rng = np.random.default_rng(seed)
    x, z = rng.standard_normal((2, 400))
    model = LogisticModel(np.column_stack([x, x, z]), B_X=10.0)
    return model, model.sample(np.array([0.5, 0.5, -0.5]), 400, rng)


@pytest.mark.parametrize("seed", range(6))
def test_nonprivate_with_two_identical_columns_raises_fisher_singular(seed):
    # the Fisher is singular, so rounding alone decided whether inv raised or
    # returned a negative or a huge variance; the condition bound gives one answer
    model, data = collinear_logistic(seed)
    with pytest.raises(FisherSingularError, match="fisher_singular"):
        nonprivate_mle(model, data, 0.05)


def test_sigma_zero_triple_equality():
    """With no noise, plugin, noise-aware, and the classical MLE agree."""
    rng = substream(31, "triple")
    for model, theta0 in [
        (GaussianMeanModel(1.0, B=6.0), np.array([0.8])),
        (LogisticModel(rng.standard_normal((500, 2)), B_X=5.0), np.array([0.4, -0.6])),
        (PoissonModel(rng.uniform(0.2, 1.5, (500, 1)), B_X=3.0, B_Y=60.0), np.array([0.5])),
    ]:
        data = model.clip(model.sample(theta0, 500, rng))
        rel = release(data, model, None, rng)
        plug = plugin_mle(model, rel)
        na = noise_aware_mle(model, rel)
        clean = nonprivate_mle(model, data, 0.05).theta_hat
        np.testing.assert_allclose(plug, na, atol=1e-6)
        np.testing.assert_allclose(plug, clean, atol=1e-6)


# ---------------------------------------------------------------- reports

def test_estimate_report_diagnostics_and_json(tmp_path):
    model = GaussianMeanModel(1.0)
    rel = make_release([0.3], 0.1)
    report = estimate.estimate_report(model, rel, "plugin", 0.05)
    assert report.method == "plugin_wald"
    assert report.diagnostics["lambda"] == pytest.approx(max(1e-6, 0.01 * 0.1**2))
    back = EstimateReport.from_json(report.to_json())
    np.testing.assert_array_equal(back.theta_hat, report.theta_hat)
    assert back.cis == report.cis
    report.save(tmp_path / "r.json")
    assert (tmp_path / "r.json").exists()


def test_estimate_report_flags_box_hits():
    model = PoissonModel(np.full((50, 1), 0.5))
    pinned = estimate.estimate_report(model, make_release([-3.0], 0.1, model_id="poisson"),
                                      "plugin", 0.05)
    assert pinned.theta_hat[0] == -PARAM_BOX
    assert pinned.diagnostics["at_box"] is True
    inside = estimate.estimate_report(model, make_release([0.6], 0.1, model_id="poisson"),
                                      "plugin", 0.05)
    assert inside.diagnostics["at_box"] is False


def test_regularizer_engages_only_for_meaningful_noise():
    model = GaussianMeanModel(1.0)
    quiet = estimate.estimate_report(model, make_release([0.1], 0.005), "plugin", 0.05)
    loud = estimate.estimate_report(model, make_release([0.1], 0.02), "plugin", 0.05)
    assert quiet.diagnostics["lambda"] == 1e-6
    assert loud.diagnostics["lambda"] > 1e-6
