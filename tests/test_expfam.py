import hashlib
import io
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import dpss.expfam
from dpss.expfam import (
    NEWTON_MAX_ITER,
    NEWTON_MAX_REACH,
    PARAM_BOX,
    ClipBounds,
    Dataset,
    EmptyDatasetError,
    ExpFamModel,
    GaussianMeanModel,
    LogisticModel,
    MeanOverflowError,
    PoissonModel,
    SolverDivergedError,
    dataset_from_csv,
    dataset_to_csv,
    _least_squares_objective,
    _row_norms,
    _solve_blocks,
    load_model_config,
    minimize_in_box,
)
from dpss.privacy import PrivacyBudget, calibrate_agm, l2_sensitivity

RNG = np.random.default_rng(511)


def random_logistic(d=3, n=50, seed=42, B_X=3.0):
    X = np.random.default_rng(seed).standard_normal((n, d))
    return LogisticModel(X, B_X=B_X)


def random_poisson(d=2, n=50, seed=43):
    X = np.random.default_rng(seed).uniform(0.1, 1.0, (n, d))
    return PoissonModel(X, B_X=3.0, B_Y=20.0)


# ---------------------------------------------------------------- clipping

def test_gaussian_clip_saturates():
    model = GaussianMeanModel(1.0, B=1.0)
    out = model.clip(Dataset(np.array([2.5, -3.0, 0.4])))
    np.testing.assert_allclose(out.x, [1.0, -1.0, 0.4])


def test_logistic_clip_is_radial_projection():
    model = random_logistic(d=2, B_X=3.0)
    x = np.array([[3.2, 2.4]])  # norm 4
    out = model.clip(Dataset(x, np.array([1.0])))
    np.testing.assert_allclose(out.x, x * 0.75)
    assert np.linalg.norm(out.x) == pytest.approx(3.0)
    assert out.y[0] == 1.0


def test_poisson_clip_caps_count_only():
    model = random_poisson()
    x = np.array([[1.0, 1.0]])  # norm < 3, untouched
    out = model.clip(Dataset(x, np.array([25.0])))
    np.testing.assert_array_equal(out.x, x)
    assert out.y[0] == 20.0


@pytest.mark.parametrize("maker", [
    lambda: GaussianMeanModel(1.0, B=2.0),
    lambda: random_logistic(),
    lambda: random_poisson(),
])
def test_clip_idempotent_and_bounded(maker):
    model = maker()
    rng = np.random.default_rng(7)
    if model.model_id == "gaussian_mean":
        data = Dataset(10.0 * rng.standard_normal(200))
    else:
        X = 5.0 * rng.standard_normal((200, model.d))
        if model.model_id == "logistic":
            y = rng.integers(0, 2, 200).astype(float)
            y[:3] = [-3.0, 0.5, 1000.0]  # labels outside {0, 1}
        else:
            y = rng.integers(0, 40, 200).astype(float)
            y[:2] = [-1e6, -1.0]  # negative counts
        data = Dataset(X, y)
    once = model.clip(data)
    twice = model.clip(once)
    np.testing.assert_array_equal(once.x, twice.x)
    if once.y is not None:
        np.testing.assert_array_equal(once.y, twice.y)
    norms = np.linalg.norm(model.suff_stats(once), axis=1)
    assert norms.max() <= model.clip_bounds.B + 1e-12


def test_clip_passes_through_interior_records():
    model = GaussianMeanModel(1.0, B=5.0)
    x = np.array([0.1, -2.3, 4.9])
    np.testing.assert_array_equal(model.clip(Dataset(x)).x, x)


@pytest.mark.parametrize("call, message", [
    (lambda: ClipBounds(B=0.0), "B must be positive"),
    (lambda: Dataset(np.zeros((3, 2)), np.zeros(2)), "lengths disagree"),
    (lambda: GaussianMeanModel(sigma0_sq=0.0), "sigma0_sq"),
], ids=["clip_bound_0", "x_y_lengths", "sigma0_sq_0"])
def test_invalid_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ----------------------------------------------------------- mean suff stat

def test_mean_suff_stat_examples():
    g = GaussianMeanModel(1.0, B=1.0)
    assert g.mean_suff_stat(Dataset(np.array([0.2, -0.2])))[0] == pytest.approx(0.0)

    ones = np.ones((2, 1))
    lg = LogisticModel(ones, B_X=3.0)
    s = lg.mean_suff_stat(Dataset(ones, np.array([1.0, 0.0])))
    assert s[0] == pytest.approx(0.5)

    po = PoissonModel(ones, B_X=3.0, B_Y=20.0)
    s = po.mean_suff_stat(Dataset(ones, np.array([3.0, 5.0])))
    assert s[0] == pytest.approx(4.0)


@pytest.mark.parametrize("model", [GaussianMeanModel(), random_logistic(), random_poisson()],
                         ids=["gaussian", "logistic", "poisson"])
def test_mean_suff_stat_is_the_mean_bit_for_bit(model):
    rng = np.random.default_rng(12)
    data = model.clip(model.sample(np.full(model.d, 0.3), 1001, rng))
    np.testing.assert_array_equal(model.mean_suff_stat(data), model.suff_stats(data).mean(axis=0))


def test_mean_suff_stat_empty_dataset():
    with pytest.raises(EmptyDatasetError, match="empty_dataset"):
        GaussianMeanModel().mean_suff_stat(Dataset(np.array([])))


# ----------------------------------------------------- mean map and fisher

def test_grad_log_partition_examples():
    assert GaussianMeanModel(1.0).grad_log_partition(np.array([0.5]))[0] == pytest.approx(0.5)
    ones = np.ones((4, 1))
    assert LogisticModel(ones).grad_log_partition(np.zeros(1))[0] == pytest.approx(0.5)
    assert PoissonModel(ones).grad_log_partition(np.zeros(1))[0] == pytest.approx(1.0)


def test_fisher_info_examples():
    np.testing.assert_allclose(GaussianMeanModel(1.0).fisher_info(np.array([3.0])), [[1.0]])
    ones = np.ones((4, 1))
    np.testing.assert_allclose(LogisticModel(ones).fisher_info(np.zeros(1)), [[0.25]])
    np.testing.assert_allclose(PoissonModel(ones).fisher_info(np.zeros(1)), [[1.0]])


@pytest.mark.parametrize("maker, weights", [
    (random_logistic, lambda eta: (expit(eta), expit(eta) * (1.0 - expit(eta)))),
    (random_poisson, lambda eta: (np.exp(eta), np.exp(eta))),
])
def test_mean_map_and_fisher_match_the_direct_formulas(maker, weights):
    # mu = X' p / n and I = X' diag(w) X / n, written out per theta
    model = maker()
    X = model.design
    for theta in np.random.default_rng(13).uniform(-2.0, 2.0, (5, model.d)):
        p, w = weights(X @ theta)
        np.testing.assert_allclose(model.grad_log_partition(theta), (p[:, None] * X).mean(axis=0),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(model.fisher_info(theta), (X.T * w) @ X / len(X),
                                   rtol=1e-12, atol=1e-15)


def test_poisson_overflow_error():
    model = PoissonModel(np.ones((2, 1)))
    with pytest.raises(MeanOverflowError, match="mean_overflow"):
        model.grad_log_partition(np.array([800.0]))


def test_a_fisher_block_past_the_float_range_is_masked():
    # x theta = 699 stays under MAX_LOG_RATE, so the mean, about 1e306, is finite, but
    # the Fisher block 300^2 e^699 is not; the mask used to read True there
    model = PoissonModel(np.full((5, 1), 300.0), B_X=1e3, B_Y=1e6)
    mu, fisher, finite = model.mean_and_fisher(np.array([[699.0 / 300.0], [2.0]]))
    assert np.isfinite(mu).all() and fisher[0, 0, 0] == np.inf
    assert finite.tolist() == [False, True]
    with pytest.raises(MeanOverflowError):
        model.fisher_info(np.array([699.0 / 300.0]))


def _fd_jacobian(f, theta, h=1e-5):
    d = len(theta)
    J = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        J[:, j] = (f(theta + e) - f(theta - e)) / (2 * h)
    return J


@pytest.mark.parametrize("maker", [
    lambda: GaussianMeanModel(2.3),
    lambda: random_logistic(d=3),
    lambda: random_poisson(d=2),
])
def test_fisher_matches_finite_difference_of_mean_map(maker):
    model = maker()
    rng = np.random.default_rng(99)
    for _ in range(100):
        theta = rng.uniform(-2.0, 2.0, model.d)
        fd = _fd_jacobian(model.grad_log_partition, theta)
        np.testing.assert_allclose(model.fisher_info(theta), fd, rtol=1e-5, atol=1e-8)


def test_gaussian_fisher_matches_second_difference_of_log_partition():
    model = GaussianMeanModel(1.7)
    h = 1e-4
    for t in np.linspace(-2, 2, 9):
        theta = np.array([t])
        dd = (
            model.log_partition(theta + h)
            - 2 * model.log_partition(theta)
            + model.log_partition(theta - h)
        ) / h**2
        assert dd == pytest.approx(model.fisher_info(theta)[0, 0], rel=1e-5)


# ---------------------------------------------------------- inverse map

def test_inverse_mean_map_examples():
    g = GaussianMeanModel(1.0)
    assert g.inverse_mean_map(np.array([0.5]))[0] == pytest.approx(0.5)

    lg = LogisticModel(np.ones((3, 1)))
    assert lg.inverse_mean_map(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-8)
    # sigmoid(1) evaluated independently: 1/(1+exp(-1))
    s1 = 1.0 / (1.0 + np.exp(-1.0))
    assert s1 == pytest.approx(0.731058578, abs=1e-9)
    assert lg.inverse_mean_map(np.array([0.731058578]))[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("maker", [
    lambda: GaussianMeanModel(1.4),
    lambda: random_logistic(d=4),
    lambda: random_poisson(d=2),
])
def test_inverse_mean_map_round_trip(maker):
    model = maker()
    rng = np.random.default_rng(3)
    for _ in range(25):
        theta = rng.uniform(-2.0, 2.0, model.d)
        s = model.grad_log_partition(theta)
        np.testing.assert_allclose(model.inverse_mean_map(s), theta, atol=1e-6)


def test_inverse_mean_map_residual_bound_for_interior_s():
    model = random_logistic(d=3)
    theta = np.array([0.7, -0.4, 1.1])
    s = model.grad_log_partition(theta)
    th = model.inverse_mean_map(s)
    resid = np.linalg.norm(model.grad_log_partition(th) - s)
    assert resid <= 1e-8 * max(1.0, np.linalg.norm(s))


def test_inverse_mean_map_out_of_range_hits_boundary():
    # a one-dimensional logistic mean can never exceed 1; the solver must
    # return the box-boundary minimizer rather than raise
    model = LogisticModel(np.ones((3, 1)))
    th = model.inverse_mean_map(np.array([1.5]))
    assert th[0] == pytest.approx(10.0)


def scalar_newton(model, s, face_stop=True):
    """The one-statistic damped Newton that newton_batch replaced, kept as the reference.

    Each step is shortened so that ||step|| max_i ||x_i|| is at most
    NEWTON_MAX_REACH.  With ``face_stop``, a point on a face of the box whose
    step points further out stops when the slope r' I d along the step d with
    those coordinates set to zero is not negative; without it, such a step is
    halved 30 times like any other.
    """
    theta = np.zeros(model.d)
    max_row_norm = np.linalg.norm(model.design, axis=1).max()
    tol = 1e-8 * max(1.0, float(np.linalg.norm(s)))
    resid = model.grad_log_partition(theta) - s
    for _ in range(NEWTON_MAX_ITER):
        rnorm = np.linalg.norm(resid)
        if rnorm <= tol:
            break
        fisher = model.fisher_info(theta) + 1e-12 * np.eye(model.d)
        try:
            step = np.linalg.solve(fisher, -resid)
        except np.linalg.LinAlgError:
            break
        blocked = ((theta >= PARAM_BOX) & (step > 0)) | ((theta <= -PARAM_BOX) & (step < 0))
        if face_stop and blocked.any() and resid @ fisher @ np.where(blocked, 0.0, step) >= 0:
            break
        reach = np.linalg.norm(step) * max_row_norm
        if reach > NEWTON_MAX_REACH:
            step *= NEWTON_MAX_REACH / reach
        t = 1.0
        for _ in range(30):
            cand = np.clip(theta + t * step, -PARAM_BOX, PARAM_BOX)
            try:
                cand_resid = model.grad_log_partition(cand) - s
            except MeanOverflowError:
                t *= 0.5
                continue
            if np.linalg.norm(cand_resid) < rnorm:
                theta, resid = cand, cand_resid
                break
            t *= 0.5
        else:
            break
    return theta, bool(np.linalg.norm(resid) <= tol)


def overflowing_poisson():
    """Poisson model whose unbounded Newton steps from 0 would overflow the log link."""
    X = np.random.default_rng(1).uniform(20.0, 60.0, (200, 2))
    return PoissonModel(X, B_X=100.0, B_Y=1e6)


@pytest.mark.parametrize("maker, low, high", [
    (lambda: random_logistic(d=3), -2.0, 2.0),
    (lambda: random_poisson(d=2), -2.0, 2.0),
    (overflowing_poisson, -0.05, 0.15),
])
def test_newton_batch_matches_scalar_newton(maker, low, high):
    model = maker()
    rng = np.random.default_rng(8)
    S = np.array([model.grad_log_partition(rng.uniform(low, high, model.d)) for _ in range(12)])
    # statistics the mean map cannot reach leave their rows unconverged
    S = np.vstack([S, -np.abs(S[:3]) - 1.0])
    theta, converged = model.newton_batch(S)
    for k, s in enumerate(S):
        with np.errstate(over="ignore"):
            ref_theta, ref_converged = scalar_newton(model, s)
        assert converged[k] == ref_converged
        np.testing.assert_allclose(theta[k], ref_theta, rtol=1e-10, atol=1e-10)
    assert converged[:12].all() and not converged[12:].any()


def test_newton_batch_candidates_stay_below_max_log_rate():
    # the full Newton step from 0 takes x . theta past MAX_LOG_RATE on this design;
    # a step moves no record's x . theta by more than NEWTON_MAX_REACH, so no
    # candidate's rate overflows and no halving round is spent on one
    model = overflowing_poisson()
    calls = []
    kernel = model.mean_and_fisher

    def spy(Theta):
        out = kernel(Theta)
        calls.append(out[2])
        return out

    model.mean_and_fisher = spy
    S = model.grad_log_partition(np.array([0.1, 0.1]))[None]
    _, converged = model.newton_batch(S)
    assert converged[0]
    assert all(finite.all() for finite in calls)


def test_the_kernel_masks_a_rate_past_max_log_rate_per_row():
    # x . theta = 750 is capped at MAX_LOG_RATE, where the mean (1e306) and the
    # Fisher block (1e308) are still finite: only the rate check marks that row
    model = PoissonModel(np.array([[100.0]]), B_X=200.0, B_Y=1e6)
    mu, fisher, finite = model.mean_and_fisher(np.array([[7.5], [0.1]]))
    assert np.isfinite(mu).all() and np.isfinite(fisher).all()
    assert finite.tolist() == [False, True]
    np.testing.assert_array_equal(mu[1], model.grad_log_partition(np.array([0.1])))


def test_newton_batch_stops_a_row_whose_clipped_step_cannot_descend():
    # the first mean coordinate cannot reach 3, so Newton walks theta_0 onto the
    # box face, where every later step points further out; along the clipped
    # step the residual does not decrease, so the row stops at once
    model = random_logistic(d=2)
    s = np.array([3.0, 0.0])
    calls = []
    kernel = model.mean_and_fisher
    model.mean_and_fisher = lambda Theta: calls.append(Theta[0].copy()) or kernel(Theta)
    theta, converged = model.newton_batch(s[None])
    newton_calls = len(calls)
    assert not converged[0]
    assert theta[0, 0] == PARAM_BOX and abs(theta[0, 1]) < PARAM_BOX
    fisher = model.fisher_info(theta[0])
    step = np.linalg.solve(fisher + 1e-12 * np.eye(2), s - model.grad_log_partition(theta[0]))
    assert step[0] > 0  # blocked by the face
    # a bounded step moves theta by at most NEWTON_MAX_REACH / max_i ||x_i||, so
    # reaching theta_0 = 10 from 0 takes at least `steps` of them; here every one is
    # bounded, all but the last are accepted whole, and the last, clipped onto the
    # face, is accepted after one halving.  So: the start, `steps` steps and one
    # halving round; the loop without the face stop would add 30 rejected rounds
    max_row_norm = np.linalg.norm(model.design, axis=1).max()
    steps = math.ceil(PARAM_BOX * max_row_norm / NEWTON_MAX_REACH)
    assert steps == 3
    assert newton_calls == 1 + steps + 1
    np.testing.assert_allclose(np.linalg.norm(np.diff(calls[:steps], axis=0), axis=1),
                               NEWTON_MAX_REACH / max_row_norm, rtol=1e-12)
    ref_theta, ref_converged = scalar_newton(random_logistic(d=2), s, face_stop=False)
    assert not ref_converged
    np.testing.assert_array_equal(theta[0], ref_theta)


def test_row_norms_survive_entries_past_1e154():
    A = np.array([[3.0, 4.0], [1e290, 0.0], [3e200, -4e200], [np.inf, 1.0]])
    norms = _row_norms(A)
    assert norms[0] == np.linalg.norm(A[0])
    np.testing.assert_allclose(norms[1:3], [1e290, 5e200], rtol=1e-15)
    assert norms[3] == np.inf
    X = np.random.default_rng(4).standard_normal((50, 3))
    np.testing.assert_array_equal(_row_norms(X), np.linalg.norm(X, axis=1))


def test_inverse_of_a_statistic_past_1e154_raises():
    # its norm used to overflow to inf, and so did the tolerance, so theta = 0
    # passed for a solution of mu(theta) = 1e290
    model = PoissonModel(np.linspace(50.0, 100.0, 40)[:, None], B_X=200.0, B_Y=1e6)
    with pytest.raises(SolverDivergedError):
        model.inverse_mean_map(np.array([1e290]))


@pytest.mark.parametrize("t", [0.28, 0.3, 0.35])
def test_a_reachable_large_rate_poisson_statistic_is_solved(t):
    # the full Newton step from 0 is about 1e10: clipped to the box, its rates
    # overflow, and 30 halvings never came back, so these raised solver_diverged
    X = np.random.default_rng(0).uniform(50.0, 100.0, (40, 1))
    model = PoissonModel(X, B_X=200.0, B_Y=1e6)
    theta = model.inverse_mean_map(model.grad_log_partition(np.array([t])))
    np.testing.assert_allclose(theta, [t], rtol=0.0, atol=1e-8)


def test_the_reach_bound_leaves_interior_cli_draws_unchanged(monkeypatch):
    # 200 bootstrap draws of a release of the bundled 10k records at eps = 1
    # (B_X = 3): no Newton step reaches NEWTON_MAX_REACH, so the bound scales no
    # row and the iterates are those of the unbounded loop, bit for bit
    meta = json.loads(BUNDLED_CSV.with_suffix(".json").read_text())
    model = LogisticModel(np.loadtxt(BUNDLED_CSV, delimiter=",")[:, :5], B_X=meta["B_X"])
    theta0, n = np.array(meta["theta0"]), meta["n"]
    sigma = calibrate_agm(l2_sensitivity(meta["B_X"], n), PrivacyBudget(1.0, 1.0 / n**2))
    cov = model.fisher_info(theta0) / n + sigma**2 * np.eye(model.d)
    z = np.random.default_rng(20).standard_normal((200, model.d))
    S = model.grad_log_partition(theta0) + z @ np.linalg.cholesky(cov).T
    reaches = []
    solve = dpss.expfam._solve_blocks

    def spy(A, rhs):
        step, solved = solve(A, rhs)
        reaches.append(np.linalg.norm(step, axis=1).max() * model._max_row_norm)
        return step, solved

    monkeypatch.setattr(dpss.expfam, "_solve_blocks", spy)
    theta, converged = model.newton_batch(S)
    assert converged.all() and reaches and max(reaches) <= NEWTON_MAX_REACH
    monkeypatch.setattr(dpss.expfam, "NEWTON_MAX_REACH", np.inf)
    unbounded, unbounded_converged = model.newton_batch(S)
    np.testing.assert_array_equal(theta, unbounded)
    np.testing.assert_array_equal(converged, unbounded_converged)


def test_with_design_drops_the_caches_of_the_old_rows():
    model = random_logistic(d=2)
    model.fisher_info(np.zeros(2)), model._max_row_norm  # fill both caches
    X = np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]])
    other = model.with_design(X)
    assert other._max_row_norm == 5.0
    np.testing.assert_allclose(other.fisher_info(np.zeros(2)), 0.25 * X.T @ X / 3, rtol=1e-15)
    assert model._max_row_norm == pytest.approx(np.linalg.norm(model.design, axis=1).max(),
                                                rel=1e-15)


def test_solve_blocks_marks_only_singular_rows():
    A = np.array([[[1.0, 1.0], [1.0, 1.0]], [[2.0, 0.0], [0.0, 4.0]]])
    x, solved = _solve_blocks(A, np.ones((2, 2)))
    assert solved.tolist() == [False, True]
    np.testing.assert_allclose(x[1], [0.5, 0.25])


def test_minimize_in_box_on_a_separable_quadratic():
    # f = 0.5 sum_j a_j (theta_j - c_j)^2 for each row; a point with |theta_1| >= 5 is not finite
    a = np.array([[2.0, 4.0], [2.0, 4.0], [2.0, 4.0], [1e-12, 1e-12]])
    c = np.array([[1.0, -2.0], [15.0, -3.0], [0.0, 0.0], [0.0, 0.0]])
    calls = []

    def evaluate(Theta, rows):
        calls.append(rows.tolist())
        grad = a[rows] * (Theta - c[rows])
        return 0.5 * (grad * (Theta - c[rows])).sum(axis=1), grad, np.abs(Theta[:, 1]) < 5.0

    def hessians(rows, state):
        assert state == []
        hess = a[rows][:, :, None] * np.eye(2)
        return hess, hess

    # a stationary start; a minimiser outside the box in its first coordinate; a start that
    # is not finite; and a start whose projected gradient is below 1e-8 on a flat objective,
    # though a Newton step from it would predict a decrease of 2.5e-11
    Theta0 = np.array([[1.0, -2.0], [0.0, 0.0], [0.0, 7.0], [5.0, 0.0]])
    theta, finite, grad, status, nit, nfev = minimize_in_box(evaluate, hessians, Theta0)
    np.testing.assert_array_equal(theta, [[1.0, -2.0], [PARAM_BOX, -3.0], [0.0, 7.0], [5.0, 0.0]])
    assert finite.tolist() == [True, True, False, True]
    np.testing.assert_array_equal(grad[:2], [[0.0, 0.0], [2.0 * (PARAM_BOX - 15.0), 0.0]])
    assert status.tolist() == [0, 0, 2, 0]
    assert nit.tolist() == [0, 1, 0, 0] and nfev.tolist() == [1, 2, 1, 1]
    # the start of every row, then one full step of the second, which is accepted
    assert calls == [[0, 1, 2, 3], [1]]


def test_minimize_in_box_never_accepts_a_point_that_is_not_finite():
    # f = 0.5 ||theta - c||^2, but no point with theta_1 <= -5 is finite: every full step
    # to c lands there and is halved, so the row creeps up to the edge and stops on it
    c = np.array([0.0, -6.0])

    def evaluate(Theta, rows):
        return 0.5 * ((Theta - c) ** 2).sum(axis=1), Theta - c, Theta[:, 1] > -5.0

    def hessians(rows, state):
        return (np.tile(np.eye(2), (len(rows), 1, 1)),) * 2

    theta, finite, _, status, nit, nfev = minimize_in_box(evaluate, hessians, np.zeros((1, 2)))
    assert finite[0] and status[0] == 2 and nfev[0] > nit[0] > 1
    assert theta[0, 0] == 0.0 and -5.0 < theta[0, 1] < -5.0 + 1e-8


def test_minimize_in_box_stops_a_row_whose_step_cannot_be_solved():
    def evaluate(Theta, rows):
        return 0.5 * (Theta**2).sum(axis=1), Theta.copy(), np.ones(len(rows), dtype=bool)

    def hessians(rows, state):  # singular Hessians: no Newton step exists
        return (np.zeros((len(rows), 2, 2)),) * 2

    theta, _, _, status, nit, nfev = minimize_in_box(evaluate, hessians, np.ones((1, 2)))
    np.testing.assert_array_equal(theta, np.ones((1, 2)))
    assert (status[0], nit[0], nfev[0]) == (2, 0, 1)


def test_newton_batch_singular_fisher_leaves_row_unconverged():
    # two identical large features: the Fisher block is rank one, and at this
    # scale the 1e-12 ridge is lost to rounding, so the solve is singular
    z = np.random.default_rng(2).standard_normal(40)
    model = LogisticModel(300.0 * np.column_stack([z, z]), B_X=1e4)
    mu0 = model.grad_log_partition(np.zeros(2))
    theta, converged = model.newton_batch(np.vstack([mu0, mu0 + [1.0, -1.0]]))
    assert converged.tolist() == [True, False]
    np.testing.assert_array_equal(theta, 0.0)


def along(U):
    """A ``direction`` callback that gives each block its rows of U."""
    return lambda rows, mu, fisher: U[rows]


@pytest.mark.parametrize("maker", [lambda: GaussianMeanModel(2.3), random_logistic, random_poisson])
def test_mean_fisher_and_skew_extends_mean_and_fisher(maker):
    model = maker()
    rng = np.random.default_rng(9)
    Theta, u = rng.uniform(-1.0, 1.0, (4, model.d)), rng.standard_normal(model.d)
    mu, fisher, U, skew, finite = model.mean_fisher_and_skew(Theta, along(np.tile(u, (4, 1))))
    for got, want in zip((mu, fisher, finite), model.mean_and_fisher(Theta)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(U, np.tile(u, (4, 1)))
    # T = dI/dtheta: the derivative of I along u is T[u]
    h = 1e-6
    plus, minus = (model.mean_and_fisher(Theta + t * u)[1] for t in (h, -h))
    dI = (plus - minus) / (2 * h)
    np.testing.assert_allclose(dI, skew, rtol=1e-6, atol=1e-9)
    if model.model_id == "gaussian_mean":  # a(eta) is quadratic
        assert not skew.any()


@pytest.mark.parametrize("maker, n", [
    (lambda n: GaussianMeanModel(2.3), 1),
    (lambda n: random_logistic(d=1, n=n), 2**14 + 3),
    (lambda n: random_logistic(d=5, n=n), 2**13 + 5),
    (lambda n: random_poisson(d=1, n=n), 2**13 + 5),
    (lambda n: random_poisson(d=5, n=n), 300),
])
def test_skew_tensor_is_the_direct_third_cumulant_contraction(maker, n):
    # b rows that do not divide into whole blocks of NEWTON_CHUNK_ELEMS // n
    model = maker(n)
    rng = np.random.default_rng(23)
    b, block = 2 * model._block_rows + 1, model._block_rows
    Theta = rng.uniform(-1.0, 1.0, (b, model.d))
    U = rng.standard_normal((b, model.d))
    calls = []

    def direction(rows, mu, fisher):
        calls.append((range(b)[rows], mu.copy(), fisher.copy()))
        return U[rows]

    mu, fisher, _, skew, _ = model.mean_fisher_and_skew(Theta, direction)
    # one call per block, with the block's rows and their mean and Fisher blocks
    assert [r for r, _, _ in calls] == [range(lo, min(lo + block, b)) for lo in range(0, b, block)]
    for rows, block_mu, block_fisher in calls:
        np.testing.assert_array_equal(block_mu, mu[rows.start:rows.stop])
        np.testing.assert_array_equal(block_fisher, fisher[rows.start:rows.stop])
    X = model.design
    P, W, _ = model._record_moments(Theta)
    W3u = model._third_cumulants(P, W) * (U @ X.T)
    direct = np.einsum("ki,ia,ib->kab", W3u, X, X) / len(X)  # X' diag(w3 * X u) X / n
    np.testing.assert_allclose(skew, direct, rtol=0.0, atol=1e-12)
    for k in (0, b - 1):  # a one-row call gives the blocked row
        row = model.mean_fisher_and_skew(Theta[k:k + 1], along(U[k:k + 1]))[3]
        np.testing.assert_allclose(row[0], skew[k], rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(skew, skew.transpose(0, 2, 1))
    # T itself, T[p, c, a, b] = T[e_c][a, b] at point p, is symmetric in all three
    # indices: with the (a, b) symmetry above, one cyclic shift covers the rest
    basis = np.tile(np.eye(model.d), (3, 1))
    T = model.mean_fisher_and_skew(np.repeat(Theta[[0, block, b - 1]], model.d, axis=0),
                                   along(basis))[3].reshape(3, model.d, model.d, model.d)
    np.testing.assert_allclose(T, T.transpose(0, 2, 3, 1), rtol=1e-12, atol=1e-15)
    if model.model_id == "gaussian_mean":
        assert not skew.any()


@pytest.mark.parametrize("sigma0_sq", [1.0, 2.3, 0.3, 1e-6])
def test_gaussian_closed_forms_equal_the_design_kernel(sigma0_sq):
    model = GaussianMeanModel(sigma0_sq)
    for t in np.random.default_rng(4).uniform(-PARAM_BOX, PARAM_BOX, 50):
        theta = np.array([t])
        np.testing.assert_array_equal(model.grad_log_partition(theta),
                                      ExpFamModel.grad_log_partition(model, theta))
        np.testing.assert_array_equal(model.fisher_info(theta),
                                      ExpFamModel.fisher_info(model, theta))


def test_gaussian_inverse_mean_map_batch_is_closed_form():
    model = GaussianMeanModel(2.0)
    theta, fallbacks, diverged = model.inverse_mean_map_batch(np.array([[1.0], [-40.0]]))
    np.testing.assert_array_equal(theta[:, 0], [0.5, -PARAM_BOX])
    assert fallbacks == 0 and not diverged.any()


@pytest.mark.parametrize("maker", [random_logistic, random_poisson])
def test_fallback_gradient_is_fisher_times_residual(maker):
    # f = 0.5 ||mu - s||^2 has the gradient g = I r and the Hessian
    # H = I^2 + X' diag(w3 * X r) X / n, the Jacobian of g
    model = maker()
    s = model.grad_log_partition(np.full(model.d, 0.3)) + 0.05

    def f(theta):
        r = model.grad_log_partition(theta) - s
        return 0.5 * float(r @ r)

    def g(theta):
        return model.fisher_info(theta) @ (model.grad_log_partition(theta) - s)

    Theta = np.random.default_rng(21).uniform(-2.0, 2.0, (5, model.d))
    evaluate, hessians = _least_squares_objective(model, np.tile(s, (5, 1)))
    rows = np.arange(5)
    value, grad, finite, *state = evaluate(Theta, rows)
    hess, gauss_newton = hessians(rows, state)
    assert finite.all()
    for k, theta in enumerate(Theta):
        fisher = model.fisher_info(theta)
        assert value[k] == pytest.approx(f(theta), rel=1e-12)
        np.testing.assert_allclose(grad[k], g(theta), rtol=1e-12, atol=1e-15)
        # each row of the difference Jacobian of a scalar f is its gradient
        np.testing.assert_allclose(grad[k], _fd_jacobian(f, theta)[0], rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(gauss_newton[k], fisher @ fisher, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(hess[k], _fd_jacobian(g, theta), rtol=1e-5, atol=1e-8)


def spy_kernel(monkeypatch, model):
    """Record the number of rows of each fallback kernel call; the Newton kernel must not run."""
    kernel_rows = []
    kernel = model.mean_fisher_and_skew
    monkeypatch.setattr(model, "mean_fisher_and_skew",
                        lambda Theta, direction: kernel_rows.append(len(Theta))
                        or kernel(Theta, direction))
    monkeypatch.setattr(model, "mean_and_fisher", lambda Theta: pytest.fail("second kernel"))
    return kernel_rows


def test_fallback_runs_the_kernel_once_per_objective_call(monkeypatch):
    model = random_poisson()
    kernel_rows = spy_kernel(monkeypatch, model)
    # statistics no mean can reach end on the box, after many rounds
    S = np.array([[-1.0, -1.0], [-2.0, 0.5], [-0.5, -3.0]])
    theta, diverged = model._inverse_mean_map_fallback(S, np.zeros((3, 2)))
    assert not diverged.any()
    np.testing.assert_array_equal(np.abs(theta).max(axis=1), PARAM_BOX)
    # one call for the start of every row, then one per halving round of the rows searching
    assert kernel_rows[0] == 3 and len(kernel_rows) > 3 and max(kernel_rows) <= 3


@pytest.mark.parametrize("maker", [random_logistic, random_poisson])
def test_fallback_started_at_a_solution_makes_one_kernel_call(monkeypatch, maker):
    # the end check reuses the last kernel call: none is made for it
    model = maker()
    Theta0 = np.random.default_rng(22).uniform(-1.0, 1.0, (4, model.d))
    S = np.array([model.grad_log_partition(t) for t in Theta0])
    kernel_rows = spy_kernel(monkeypatch, model)
    theta, diverged = model._inverse_mean_map_fallback(S, Theta0)
    assert kernel_rows == [4]
    np.testing.assert_array_equal(theta, Theta0)
    assert not diverged.any()


@pytest.mark.parametrize("maker, shift", [
    (random_logistic, [2.0, 0.0, 0.0]),  # the first mean coordinate cannot reach s
    (random_poisson, [-3.0, -3.0]),  # a Poisson mean is positive
])
def test_fallback_solves_copies_of_a_statistic_with_the_kernel_calls_of_one(maker, shift):
    model = maker()
    s = model.grad_log_partition(np.full(model.d, 0.2)) + shift
    moments = model._record_moments

    def solve_counting_kernel_calls(b):
        calls = []
        model._record_moments = lambda Theta: calls.append(Theta) or moments(Theta)
        return model.inverse_mean_map_batch(np.tile(s, (b, 1))), len(calls)

    (one, one_fallbacks, _), one_calls = solve_counting_kernel_calls(1)
    (many, many_fallbacks, diverged), many_calls = solve_counting_kernel_calls(40)
    assert (one_fallbacks, many_fallbacks) == (1, 40) and not diverged.any()
    assert many_calls == one_calls
    np.testing.assert_allclose(many, np.tile(one, (40, 1)), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("maker, shift", [
    (lambda: random_logistic(n=2**12), [2.0, 0.0, 0.0]),
    (lambda: random_poisson(n=2**12), [-3.0, -3.0]),
])
def test_fallback_over_three_blocks_of_copies_makes_the_kernel_calls_of_one(monkeypatch, maker,
                                                                            shift):
    # the fallback keeps no per-record arrays, so rows that fill three kernel
    # blocks run one loop: one kernel call per round, as for a single row
    model = maker()
    s = model.grad_log_partition(np.full(model.d, 0.2)) + shift
    kernel_rows = spy_kernel(monkeypatch, model)
    one, _ = model._inverse_mean_map_fallback(s[None], np.zeros((1, model.d)))
    one_calls = len(kernel_rows)
    kernel_rows.clear()
    b = 3 * model._block_rows
    many, diverged = model._inverse_mean_map_fallback(np.tile(s, (b, 1)), np.zeros((b, model.d)))
    assert len(kernel_rows) == one_calls > 1 and kernel_rows[0] == b
    assert not diverged.any()
    np.testing.assert_allclose(many, np.tile(one, (b, 1)), rtol=0.0, atol=1e-12)


def test_fallback_raises_at_an_overflowing_end_point(monkeypatch):
    # features of 100 put exp(x . theta) past the log-link cap on the box face,
    # so a row started there cannot move and is marked; the other row is solved
    model = PoissonModel(np.full((5, 1), 100.0), B_X=1e3, B_Y=1e6)
    theta, diverged = model._inverse_mean_map_fallback(np.array([[5.0], [5.0]]),
                                                       np.array([[PARAM_BOX], [0.0]]))
    assert diverged.tolist() == [True, False]
    np.testing.assert_array_equal(theta[0], [PARAM_BOX])
    np.testing.assert_allclose(theta[1], [np.log(0.05) / 100.0], rtol=1e-8)
    # the one-row solve raises with that end point
    monkeypatch.setattr(model, "newton_batch",
                        lambda S: (np.full((1, 1), PARAM_BOX), np.array([False])))
    with pytest.raises(SolverDivergedError) as exc:
        model.inverse_mean_map(np.array([5.0]))
    np.testing.assert_array_equal(exc.value.last_iterate, [PARAM_BOX])


def test_diverged_fallback_marks_its_row_and_the_single_solve_raises(monkeypatch):
    model = random_logistic(d=2)
    S = np.array([model.grad_log_partition(t) for t in ([0.2, -0.1], [0.4, 0.3], [-0.5, 0.1])])
    S[1] = [3.0, 3.0]  # out of the mean range: Newton leaves the row unconverged
    stuck = np.array([1.5, -2.5])
    handed = []

    def diverge(S, Theta0):
        handed.append((S.copy(), Theta0.copy()))
        return np.tile(stuck, (len(S), 1)), np.ones(len(S), dtype=bool)

    monkeypatch.setattr(model, "_inverse_mean_map_fallback", diverge)
    theta, fallbacks, diverged = model.inverse_mean_map_batch(S)
    assert fallbacks == 1
    assert diverged.tolist() == [False, True, False]
    np.testing.assert_array_equal(theta[1], stuck)
    np.testing.assert_allclose(theta[[0, 2]], [[0.2, -0.1], [-0.5, 0.1]], atol=1e-8)
    (fell_back, started), = handed  # only the unconverged row, from its last Newton iterate
    np.testing.assert_array_equal(fell_back, S[[1]])
    np.testing.assert_array_equal(started, model.newton_batch(S)[0][[1]])
    with pytest.raises(SolverDivergedError) as exc:
        model.inverse_mean_map(S[1])
    np.testing.assert_array_equal(exc.value.last_iterate, stuck)


# --------------------------------------------------------------- sampling

def test_gaussian_sample_lln():
    model = GaussianMeanModel(1.0)
    data = model.sample(np.zeros(1), 10**6, np.random.default_rng(12))
    assert abs(data.x.mean()) < 0.005


def test_logistic_sample_lln():
    model = random_logistic(d=2, n=100)
    data = model.sample(np.zeros(2), 10**6, np.random.default_rng(13))
    assert abs(data.y.mean() - 0.5) < 0.002


def test_poisson_sample_lln():
    model = PoissonModel(np.ones((10, 1)))
    data = model.sample(np.zeros(1), 10**6, np.random.default_rng(14))
    assert abs(data.y.mean() - 1.0) < 0.005


def test_sample_resamples_design_rows_when_sizes_differ():
    model = random_logistic(d=2, n=10)
    data = model.sample(np.zeros(2), 500, np.random.default_rng(5))
    assert data.n == 500
    # every sampled row must be one of the 10 design rows
    for row in data.x[:20]:
        assert any(np.allclose(row, dr) for dr in model.design)


# ------------------------------------------------------------ config / csv

def test_load_model_config_gaussian(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"model_id": "gaussian_mean", "d": 1, "sigma0_sq": 2.0, "clip": {"B": 4.0}}')
    model = load_model_config(p)
    assert isinstance(model, GaussianMeanModel)
    assert model.sigma0_sq == 2.0
    assert model.clip_bounds.B == 4.0


def test_load_model_config_logistic_with_design(tmp_path):
    np.savetxt(tmp_path / "design.csv", np.eye(2), delimiter=",")
    (tmp_path / "m.json").write_text(
        '{"model_id": "logistic", "d": 2, "clip": {"B_X": 3.0}, "design_csv": "design.csv"}'
    )
    model = load_model_config(tmp_path / "m.json")
    assert isinstance(model, LogisticModel)
    assert model.design.shape == (2, 2)


def test_load_model_config_dimension_mismatch(tmp_path):
    np.savetxt(tmp_path / "design.csv", np.eye(2), delimiter=",")
    (tmp_path / "m.json").write_text(
        '{"model_id": "logistic", "d": 3, "clip": {"B_X": 3.0}, "design_csv": "design.csv"}'
    )
    with pytest.raises(ValueError):
        load_model_config(tmp_path / "m.json")


@pytest.mark.parametrize("cfg, field", [
    ({"model_id": "logistic", "d": 2, "clip": {}, "design_csv": "design.csv"}, "B_X"),
    ({"model_id": "poisson", "d": 2, "clip": {"B_X": 3.0}, "design_csv": "design.csv"}, "B_Y"),
    ({"model_id": "logistic", "clip": {"B_X": 3.0}, "design_csv": "design.csv"}, "d"),
    ({"model_id": "logistic", "d": "2", "clip": {"B_X": 3.0}, "design_csv": "design.csv"}, "d"),
    ({"model_id": "gaussian_mean", "d": 1, "clip": {"B": "4"}}, "B"),
    ({"model_id": "gaussian_mean", "d": 1, "sigma0_sq": None, "clip": {"B": 4.0}}, "sigma0_sq"),
    ({"model_id": "gaussian_mean", "d": 1, "clip": [4.0]}, "clip"),
    ({"d": 1, "clip": {"B": 4.0}}, "model_id"),
])
def test_load_model_config_names_the_malformed_field(tmp_path, cfg, field):
    np.savetxt(tmp_path / "design.csv", np.eye(2), delimiter=",")
    (tmp_path / "m.json").write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=field):
        load_model_config(tmp_path / "m.json")


VALID_CONFIGS = [
    {"model_id": "gaussian_mean", "d": 1, "sigma0_sq": 2.0, "clip": {"B": 4.0}},
    {"model_id": "logistic", "d": 2, "clip": {"B_X": 3.0}, "design_csv": "design.csv"},
    {"model_id": "poisson", "d": 2, "clip": {"B_X": 3.0, "B_Y": 20.0}, "design_csv": "design.csv"},
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
CONFIG_FIELDS = ["model_id", "d", "sigma0_sq", "clip", "design_csv"]
CLIP_FIELDS = ["B", "B_X", "B_Y"]


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(VALID_CONFIGS),
    replaced=st.dictionaries(st.sampled_from(CONFIG_FIELDS), JSON_VALUES, max_size=2),
    clip_replaced=st.dictionaries(st.sampled_from(CLIP_FIELDS), JSON_VALUES, max_size=2),
    dropped=st.sets(st.sampled_from(CONFIG_FIELDS + CLIP_FIELDS), max_size=2),
)
def test_load_model_config_builds_a_model_or_raises_value_error(
    tmp_path_factory, base, replaced, clip_replaced, dropped
):
    folder = tmp_path_factory.mktemp("config")
    np.savetxt(folder / "design.csv", np.array([[0.5, -1.0], [2.0, 0.3], [-0.7, 1.1]]),
               delimiter=",")
    clip = {k: v for k, v in dict(base["clip"], **clip_replaced).items() if k not in dropped}
    cfg = {k: v for k, v in {**base, "clip": clip, **replaced}.items() if k not in dropped}
    (folder / "m.json").write_text(json.dumps(cfg))
    try:
        model = load_model_config(folder / "m.json")
    except ValueError:
        return
    except OSError:
        # only a design_csv that names no readable file may fail to open
        assert cfg["design_csv"] != "design.csv"
        return
    # whatever loads is a working model of the configured family and size
    assert model.model_id == cfg["model_id"]
    assert math.isfinite(model.clip_bounds.B) and model.clip_bounds.B > 0
    if model.model_id != "gaussian_mean":
        assert model.design.shape == (3, cfg["d"]) == (3, model.d)
    assert np.all(np.isfinite(model.grad_log_partition(np.zeros(model.d))))
    assert np.all(np.isfinite(model.fisher_info(np.zeros(model.d))))


@pytest.mark.parametrize("arr", [
    np.loadtxt(Path(dpss.expfam.__file__).parent / "data" / "logistic_10k.csv", delimiter=","),
    np.array([[0.1], [-0.0], [5e-324], [1e308], [-2.5], [1.0 / 3.0]]),
], ids=["bundled_10k", "gaussian_extremes"])
def test_dataset_to_csv_writes_the_bytes_of_savetxt(tmp_path, arr):
    data = Dataset(arr[:, 0]) if arr.shape[1] == 1 else Dataset(arr[:, :-1], arr[:, -1])
    dataset_to_csv(data, tmp_path / "d.csv")
    np.savetxt(tmp_path / "ref.csv", arr, delimiter=",", fmt="%.17g")
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_dataset_csv_round_trip(tmp_path):
    model = random_logistic(d=2, n=4)
    data = Dataset(RNG.standard_normal((4, 2)), np.array([0.0, 1.0, 1.0, 0.0]))
    dataset_to_csv(data, tmp_path / "d.csv")
    back = dataset_from_csv(tmp_path / "d.csv", model)
    np.testing.assert_array_equal(back.x, data.x)
    np.testing.assert_array_equal(back.y, data.y)


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n"], ids=["empty", "newline", "blank"])
def test_an_empty_dataset_csv_raises_without_a_warning(tmp_path, text):
    (tmp_path / "d.csv").write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns of a file with no data
        with pytest.raises(EmptyDatasetError, match="empty_dataset"):
            dataset_from_csv(tmp_path / "d.csv", random_logistic(d=2, n=4))


# ------------------------------------------------------------ design cache

BUNDLED_CSV = Path(dpss.expfam.__file__).parent / "data" / "logistic_10k.csv"


def write_design_config(folder, design_text, d=2):
    """A logistic config whose design_csv holds design_text; returns the config path."""
    (folder / "design.csv").write_text(design_text)
    (folder / "m.json").write_text(json.dumps(
        {"model_id": "logistic", "d": d, "clip": {"B_X": 3.0}, "design_csv": "design.csv"}))
    return folder / "m.json"


def cache_entry(cache_home, csv_path):
    return cache_home / "dpss" / (hashlib.sha256(csv_path.read_bytes()).hexdigest() + ".npy")


def assert_same_bits(a, b):
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("design_text, d", [
    ("".join(",".join(line.split(",")[:5]) + "\n" for line in BUNDLED_CSV.read_text().splitlines()),
     5),
    ("0.1,-0\n5e-324,1.2345678901234567e150\n0.333333333333333314829616256247,-2.5e-310\n", 2),
    ("1,2\r\n3,4\r\n", 2),
    ("1,2\r3,4\r", 2),
], ids=["bundled_10k_design", "extremes", "crlf", "cr"])
def test_a_cached_design_equals_loadtxt_bit_for_bit(tmp_path, design_cache_home, monkeypatch,
                                                    design_text, d):
    config = write_design_config(tmp_path, design_text, d)
    want = np.loadtxt(tmp_path / "design.csv", delimiter=",", ndmin=2)
    miss = dpss.expfam._read_design(tmp_path / "design.csv")
    assert_same_bits(miss, want)
    entry = cache_entry(design_cache_home, tmp_path / "design.csv")
    assert sorted((design_cache_home / "dpss").iterdir()) == [entry]
    # the second load reads the entry: it parses nothing and writes no new entry
    monkeypatch.setattr(dpss.expfam.np, "loadtxt", None)
    assert_same_bits(dpss.expfam._read_design(tmp_path / "design.csv"), want)
    assert load_model_config(config).d == d
    assert sorted((design_cache_home / "dpss").iterdir()) == [entry]


def test_an_edited_design_misses_the_cache(tmp_path, design_cache_home):
    config = write_design_config(tmp_path, "1.0,0.0\n-0.5,0.5\n")
    first = load_model_config(config).design
    (tmp_path / "design.csv").write_text("1.0,0.0\n-0.5,0.25\n")
    second = load_model_config(config).design
    assert second[1, 1] != first[1, 1]
    np.testing.assert_array_equal(
        second, load_model_config_without_cache(config, tmp_path / "uncached").design)
    assert len(list((design_cache_home / "dpss").iterdir())) == 2


def load_model_config_without_cache(config, cache_home):
    """The model built from a fresh, empty cache directory: a parse of the CSV."""
    with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(cache_home)}):
        return load_model_config(config)


@pytest.mark.parametrize("entry_bytes", [
    lambda good: good[: len(good) // 2],
    lambda good: good[:3],
    lambda good: b"",
    lambda good: b"garbage, not an array",
    lambda good: npy_bytes(np.array([[1, 2], [3, 4]], dtype=np.int64)),
    lambda good: npy_bytes(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)),
    lambda good: npy_bytes(np.array([1.0, 2.0, 3.0, 4.0])),
    lambda good: npy_bytes(np.array([[(1.0, 2.0)]], dtype=[("a", "f8"), ("b", "f8")])),
], ids=["truncated", "header_only", "empty", "garbage", "int64", "float32", "one_d", "record"])
def test_a_bad_cache_entry_falls_back_to_the_parse(tmp_path, design_cache_home, entry_bytes):
    config = write_design_config(tmp_path, "1.0,0.0\n-0.5,0.5\n")
    want = np.loadtxt(tmp_path / "design.csv", delimiter=",", ndmin=2)
    dpss.expfam._read_design(tmp_path / "design.csv")
    entry = cache_entry(design_cache_home, tmp_path / "design.csv")
    entry.write_bytes(entry_bytes(entry.read_bytes()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_bits(dpss.expfam._read_design(tmp_path / "design.csv"), want)
        np.testing.assert_array_equal(load_model_config(config).design,
                                      load_model_config_without_cache(config, tmp_path / "c").design)
    # the parse rewrote the entry
    assert_same_bits(np.load(entry, allow_pickle=False), want)
    assert sorted(p.name for p in (design_cache_home / "dpss").iterdir()) == [entry.name]


def npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def test_an_unwritable_cache_still_loads(tmp_path, monkeypatch):
    config = write_design_config(tmp_path, "1.0,0.0\n-0.5,0.5\n")
    # a regular file where the cache directory should be: no entry can be made
    (tmp_path / "not_a_dir").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "not_a_dir"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            model = load_model_config(config)
            np.testing.assert_array_equal(model.design,
                                          load_model_config_without_cache(config, tmp_path / "c").design)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "design.csv", "m.json", "not_a_dir"]


def test_a_relative_cache_home_is_ignored(tmp_path, monkeypatch):
    config = write_design_config(tmp_path, "1.0,0.0\n-0.5,0.5\n")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    monkeypatch.chdir(tmp_path)
    load_model_config(config)
    assert not (tmp_path / "relative").exists()
    assert cache_entry(tmp_path / "home" / ".cache", tmp_path / "design.csv").exists()


@pytest.mark.parametrize("design_text, d, message", [
    ("1.0,nan\n-0.5,0.5\n", 2, "all finite"),
    ("1.0,inf\n-0.5,0.5\n", 2, "all finite"),
    ("1.0,0.0\n-0.5,0.5\n", 3, "column count"),
])
def test_the_design_checks_run_on_a_cache_hit(tmp_path, design_cache_home, monkeypatch,
                                              design_text, d, message):
    config = write_design_config(tmp_path, design_text, d)
    with pytest.raises(ValueError, match=message):
        load_model_config(config)
    assert cache_entry(design_cache_home, tmp_path / "design.csv").exists()
    monkeypatch.setattr(dpss.expfam.np, "loadtxt", None)  # the second load is a hit
    with pytest.raises(ValueError, match=message):
        load_model_config(config)


def test_concurrent_loads_of_a_cold_cache_all_read_the_design(tmp_path, design_cache_home):
    rows = np.random.default_rng(8).standard_normal((200, 3))
    np.savetxt(tmp_path / "design.csv", rows, delimiter=",", fmt="%.17g")
    want = np.loadtxt(tmp_path / "design.csv", delimiter=",", ndmin=2)
    entry = cache_entry(design_cache_home, tmp_path / "design.csv")

    def load_many(worker):
        for i in range(25):
            if (worker + i) % 3 == 0:  # empty the cache under the other loads
                entry.unlink(missing_ok=True)
            got = dpss.expfam._read_design(tmp_path / "design.csv")
            if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
                return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(load_many, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 8
    # every entry was renamed into place; no temporary file is left behind
    assert [p.name for p in (design_cache_home / "dpss").iterdir()] in ([], [entry.name])


def test_a_planted_non_finite_entry_is_still_rejected(tmp_path, design_cache_home):
    config = write_design_config(tmp_path, "1.0,0.0\n-0.5,0.5\n")
    entry = cache_entry(design_cache_home, tmp_path / "design.csv")
    entry.parent.mkdir(parents=True)
    np.save(entry, np.array([[1.0, np.nan], [-0.5, 0.5]]))
    with pytest.raises(ValueError, match="all finite"):
        load_model_config(config)


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n"], ids=["empty", "newline", "blank"])
def test_an_empty_design_raises_without_a_warning(tmp_path, design_cache_home, text):
    config = write_design_config(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns of a file with no data
        with pytest.raises(ValueError, match="design_csv must hold at least one row, all finite"):
            load_model_config(config)
    assert not (design_cache_home / "dpss").exists()


# files in which np.loadtxt finds no row: comment lines, blank lines, or both,
# ended by \n, \r\n or \r alone
COMMENT_ONLY = [b"# a header line\n", b"# a\n# b\r\n", b"  # a\n\n", b"#a\r#b\r", b"\t# a\r\n \r\n"]


@pytest.mark.parametrize("raw", COMMENT_ONLY)
def test_a_comment_only_design_raises_without_a_warning(tmp_path, design_cache_home, raw):
    config = write_design_config(tmp_path, "")
    (tmp_path / "design.csv").write_bytes(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns of a file with no data
        with pytest.raises(ValueError, match="design_csv must hold at least one row, all finite"):
            load_model_config(config)
    assert not (design_cache_home / "dpss").exists()


@pytest.mark.parametrize("raw", COMMENT_ONLY)
def test_a_comment_only_dataset_csv_raises_without_a_warning(tmp_path, raw):
    (tmp_path / "d.csv").write_bytes(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyDatasetError, match="empty_dataset"):
            dataset_from_csv(tmp_path / "d.csv", random_logistic(d=2, n=4))


@pytest.mark.parametrize("raw", [b"# x\n1,2\n", b"# x\r1,2\r", b"\n# x\r\n 1,2\r\n", b"1,2"])
def test_comments_before_a_row_are_skipped(tmp_path, design_cache_home, raw):
    # the check for a data line must see a row after any line ending np.loadtxt accepts
    config = write_design_config(tmp_path, "")
    (tmp_path / "design.csv").write_bytes(raw)
    np.testing.assert_array_equal(load_model_config(config).design, [[1.0, 2.0]])
    (tmp_path / "d.csv").write_bytes(raw.replace(b"1,2", b"1,2,1"))
    data = dataset_from_csv(tmp_path / "d.csv", random_logistic(d=2, n=4))
    np.testing.assert_array_equal(data.x, [[1.0, 2.0]])
