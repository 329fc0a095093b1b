"""Post-processing inference from a released statistic.

Everything here consumes only the ReleasedStatistic and public model
structure (never raw data, except the explicitly non-private oracle), so
the privacy guarantee of the release carries over unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from .expfam import (
    PARAM_BOX,
    Dataset,
    ExpFamModel,
    MeanOverflowError,
    NumericalError,
    SolverDivergedError,
    minimize_in_box,
)
from .privacy import ReleasedStatistic

VARIANCE_DIAG_CAP = 1e6  # divided by n when applied


class FisherSingularError(NumericalError, np.linalg.LinAlgError):
    """"fisher_singular": a Fisher is singular after regularization, or to working precision."""


class InvalidVarianceError(NumericalError, ValueError):
    """"invalid_variance": a variance matrix has a negative diagonal entry."""


class BootstrapUnstableError(NumericalError, RuntimeError):
    """"bootstrap_unstable": too many bootstrap inner solves failed."""


@dataclass
class EstimateReport:
    theta_hat: np.ndarray
    variance: np.ndarray
    cis: list[tuple[float, float]]
    alpha: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def wald(cls, theta_hat, variance, alpha: float, method: str,
             diagnostics: dict) -> "EstimateReport":
        """The report whose ``cis`` are the Wald intervals ``wald_ci(theta_hat, variance, alpha)``."""
        return cls(theta_hat, variance, wald_ci(theta_hat, variance, alpha), alpha, method, diagnostics)

    def to_json(self) -> str:
        return json.dumps(
            {
                "theta_hat": list(np.asarray(self.theta_hat, dtype=float)),
                "variance": [list(row) for row in np.asarray(self.variance, dtype=float)],
                "cis": [[lo, hi] for lo, hi in self.cis],
                "alpha": self.alpha,
                "method": self.method,
                "diagnostics": self.diagnostics,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "EstimateReport":
        obj = json.loads(text)
        return cls(
            theta_hat=np.array(obj["theta_hat"], dtype=float),
            variance=np.array(obj["variance"], dtype=float),
            cis=[(lo, hi) for lo, hi in obj["cis"]],
            alpha=obj["alpha"],
            method=obj["method"],
            diagnostics=obj.get("diagnostics", {}),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")


@dataclass
class BootstrapConfig:
    b_boot: int = 500
    alpha: float = 0.05

    def __post_init__(self):
        if self.b_boot < 2:
            raise ValueError("b_boot must be at least 2")


def _regularizer(sigma: float) -> float:
    return max(1e-6, 0.01 * sigma**2)


def plugin_mle(model: ExpFamModel, rel: ReleasedStatistic) -> np.ndarray:
    """Invert the mean map at the noisy statistic as if it were clean."""
    if rel.d != model.d:
        raise ValueError("release dimension disagrees with model")
    return model.inverse_mean_map(rel.s_tilde)


def _gls_objective(model: ExpFamModel, rel: ReleasedStatistic, plug: np.ndarray):
    """The objective f of ``noise_aware_mle`` as ``minimize_in_box``'s (evaluate, hessians).

    One row: ``evaluate`` makes one ``model.mean_fisher_and_skew`` call whose
    ``direction`` is v = C(I)^{-1} (s - mu), so the kernel returns v and T[v]
    with mu and I; they give f and its exact gradient, with T[v, v] = T[v] v.
    A mean that overflows is not finite, and its v, nan where the solve
    fails, is not used.
    ``hessians`` then gives, from the same call, the Hessian of f without
    its fourth-cumulant term,
        2 M C^{-1} M - 2 T[v] + 0.2 sigma^2 1,  M = I + T[v] / n,
    and the positive-definite Gauss-Newton Hessian 2 I C^{-1} I + 0.2 sigma^2 1.
    """
    sigma, n, d = rel.sigma, rel.n, model.d
    s = rel.s_tilde
    eye = np.eye(d)
    ridge, noise, anchor = _regularizer(sigma) * eye, sigma**2 * eye, 0.2 * sigma**2 * eye

    def covariance(fisher):
        return (fisher + ridge) / n + noise

    def direction(rows, mu, fisher):
        try:
            return np.linalg.solve(covariance(fisher[0]), s - mu[0])[None]
        except np.linalg.LinAlgError:  # a mean or Fisher block past the float range
            return np.full((1, d), np.nan)

    def evaluate(Theta, rows):
        mu, fisher, v, skew_v, finite = model.mean_fisher_and_skew(Theta, direction)
        if not finite[0]:
            return np.full(1, np.inf), np.zeros((1, d)), finite, fisher, skew_v
        r, v = s - mu[0], v[0]
        diff = Theta[0] - plug
        grad = -2.0 * (fisher[0] @ v) - skew_v[0] @ v / n + 0.2 * sigma**2 * diff
        f = float(r @ v) + 0.1 * sigma**2 * float(diff @ diff)
        return np.array([f]), grad[None], finite, fisher, skew_v

    def hessians(rows, state):
        fisher, skew_v = (a[rows[0]] for a in state)
        # C^{-1} [I, T[v]]
        solved = np.linalg.solve(covariance(fisher), np.concatenate((fisher, skew_v), axis=1))
        m = fisher + skew_v / n
        full = 2.0 * m @ (solved[:, :d] + solved[:, d:] / n) - 2.0 * skew_v
        gauss_newton = 2.0 * fisher @ solved[:, :d]
        return (full + anchor)[None], (gauss_newton + anchor)[None]

    return evaluate, hessians


def noise_aware_mle(
    model: ExpFamModel,
    rel: ReleasedStatistic,
    *,
    theta_plug: np.ndarray | None = None,
    _solver: dict | None = None,
) -> np.ndarray:
    """GLS estimator weighting the residual by sampling + privacy covariance.

    Minimizes
        f(theta) = r' C^{-1} r + 0.1 sigma^2 ||theta - theta_plug||^2,
        r = S - mu(theta),  C = (I(theta) + lam I)/n + sigma^2 I,
    over the box with ``expfam.minimize_in_box``, started at the plug-in
    point.  The Tikhonov term lam = max(1e-6, 0.01 sigma^2) and the anchor
    penalty are stabilizers only; they vanish (or are inert) as sigma -> 0.
    With v = C^{-1} r, the gradient is
        -2 I(theta) v - T(theta)[v, v] / n + 0.2 sigma^2 (theta - theta_plug),
    with T = dI/dtheta, of which the kernel returns only T[v]
    (``_gls_objective``).  In the interior the plug-in point is stationary,
    so most solves stop after one evaluation.  A start whose mean overflows
    raises MeanOverflowError; a solve that reaches the minimiser's step cap
    (status 1) raises SolverDivergedError("na_diverged") with its last
    iterate.  A caller that already holds ``plugin_mle(model, rel)`` passes
    it as ``theta_plug`` to skip solving it again.

    ``estimate_report`` passes a dict as ``_solver``, which receives the
    accepted steps, the objective evaluations and the exit status as
    "nit", "nfev" and "status".
    """
    plug = plugin_mle(model, rel) if theta_plug is None else theta_plug
    evaluate, hessians = _gls_objective(model, rel, plug)
    theta, finite, _, status, nit, nfev = minimize_in_box(evaluate, hessians, np.asarray(plug)[None])
    if not finite[0]:
        raise MeanOverflowError("mean_overflow")
    if _solver is not None:
        _solver.update(nit=int(nit[0]), nfev=int(nfev[0]), status=int(status[0]))
    if status[0] == 1:
        raise SolverDivergedError("na_diverged", theta[0])
    return theta[0]


def dp_variance(
    model: ExpFamModel,
    theta_hat: np.ndarray,
    rel: ReleasedStatistic,
    n_syn: int | None = None,
) -> np.ndarray:
    """Variance of the DP estimator: inverse-Fisher/n plus the privacy inflation.

    Uses I_hat = I(theta_hat) + lam I, returns I_hat^{-1}/n + sigma^2 I_hat^{-2},
    with diagonal entries capped at 1e6/n.  A capped entry's row and column
    are scaled by sqrt(cap / v_ii), so the result stays a covariance with
    the same correlations.  An estimate made from n_syn synthetic records
    adds their Monte Carlo error I_hat^{-1}/n_syn.
    """
    lam = _regularizer(rel.sigma)
    ihat = model.fisher_info(theta_hat) + lam * np.eye(model.d)
    try:
        iinv = np.linalg.inv(ihat)
    except np.linalg.LinAlgError as exc:
        raise FisherSingularError("fisher_singular") from exc
    if not np.isfinite(iinv).all():
        raise FisherSingularError("fisher_singular")
    var = iinv / rel.n + rel.sigma**2 * (iinv @ iinv)
    if n_syn is not None:
        var = var + iinv / n_syn
    var = 0.5 * (var + var.T)
    cap = VARIANCE_DIAG_CAP / rel.n
    diag = var.diagonal()
    scale = np.sqrt(cap / np.maximum(diag, cap))  # exactly 1 where the entry is not capped
    var = var * (scale[:, None] * scale)  # s_i s_j == s_j s_i, so var stays symmetric
    var.flat[::model.d + 1] = np.minimum(diag, cap)
    return var


def _wald(variance: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """The variance diagonal and z_{1-alpha/2}; alpha must lie in (0, 1), the diagonal be >= 0."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    diag = np.diag(np.atleast_2d(variance))
    if np.any(diag < 0):
        raise InvalidVarianceError("invalid_variance")
    return diag, ndtri(1.0 - alpha / 2.0)


def wald_ci(theta_hat: np.ndarray, variance: np.ndarray, alpha: float) -> list[tuple[float, float]]:
    """Per-coordinate theta_j +/- z_{1-alpha/2} sqrt(Var_jj)."""
    diag, z = _wald(variance, alpha)
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    half = z * np.sqrt(diag)
    return [(float(t - h), float(t + h)) for t, h in zip(theta_hat, half)]


def wald_test(
    theta_hat: np.ndarray,
    variance: np.ndarray,
    theta0: np.ndarray,
    alpha: float,
) -> list[dict]:
    """Two-sided z-test per coordinate of H0: theta_j = theta0_j."""
    diag, zcrit = _wald(variance, alpha)
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    out = []
    for t, t0, v in zip(theta_hat, theta0, diag):
        diff = abs(t - t0)
        score = diff / np.sqrt(v) if v != 0.0 else (0.0 if diff == 0.0 else np.inf)
        out.append({"reject": bool(score > zcrit), "p_value": float(2.0 * ndtr(-score))})
    return out


def _solve_draws(
    model: ExpFamModel, s_star: np.ndarray, theta_hat: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Inverse mean map of every row of s_star: (draws, fallbacks, failures).

    Rows are solved once, together, by ``model.inverse_mean_map_batch``;
    a row whose solve diverged counts as a failure and is replaced by
    theta_hat.
    """
    draws, fallbacks, diverged = model.inverse_mean_map_batch(s_star)
    draws[diverged] = theta_hat
    return draws, fallbacks, int(diverged.sum())


def parametric_bootstrap(
    model: ExpFamModel,
    rel: ReleasedStatistic,
    cfg: BootstrapConfig,
    rng: np.random.Generator,
    theta_hat: np.ndarray | None = None,
) -> EstimateReport:
    """Percentile bootstrap from the CLT-regime distribution of the release.

    Draws S*_b ~ N(mu(theta_hat), I(theta_hat)/n + sigma^2 I) and re-estimates
    with the plug-in map; first-order equivalence makes the plug-in and
    noise-aware re-estimates interchangeable here, and the plug-in is far
    cheaper over hundreds of draws.  All B draws are taken in one call
    (the same values, in the same order, as B calls for d normals each)
    and solved together by the model's batched inverse mean map;
    ``diagnostics["fallbacks"]`` counts the draws that Newton left to its
    projected-Newton fallback and ``diagnostics["failures"]`` the draws
    whose solve diverged, each replaced by theta_hat; failures in 10% of
    the draws raise BootstrapUnstableError.  ``diagnostics["draws_at_box"]``
    counts the draws with a coordinate on a face of the box: intervals
    built from many of them show the box, not the release.  A caller that already holds
    ``plugin_mle(model, rel)`` passes it as ``theta_hat`` to skip solving it again.
    """
    if theta_hat is None:
        theta_hat = plugin_mle(model, rel)
    mu = model.grad_log_partition(theta_hat)
    cov = model.fisher_info(theta_hat) / rel.n + rel.sigma**2 * np.eye(model.d)
    chol = np.linalg.cholesky(cov + 1e-15 * np.eye(model.d))
    s_star = mu + rng.standard_normal((cfg.b_boot, model.d)) @ chol.T
    draws, fallbacks, failures = _solve_draws(model, s_star, theta_hat)
    if failures >= 0.1 * cfg.b_boot:
        raise BootstrapUnstableError("bootstrap_unstable")
    lo = np.quantile(draws, cfg.alpha / 2.0, axis=0)
    hi = np.quantile(draws, 1.0 - cfg.alpha / 2.0, axis=0)
    centered = draws - draws.mean(axis=0)
    variance = centered.T @ centered / (cfg.b_boot - 1)
    return EstimateReport(
        theta_hat=theta_hat,
        variance=variance,
        cis=[(float(a), float(b)) for a, b in zip(lo, hi)],
        alpha=cfg.alpha,
        method="bootstrap",
        diagnostics={"b_boot": cfg.b_boot, "failures": failures, "fallbacks": fallbacks,
                     "draws_at_box": int((np.abs(draws) >= PARAM_BOX).any(axis=1).sum())},
    )


def records_mle(model: ExpFamModel, data: Dataset) -> tuple[ExpFamModel, np.ndarray]:
    """``model`` over the records' own rows as given, and the MLE of their mean statistic."""
    m = model.with_design(data.x)
    return m, m.inverse_mean_map(m.mean_suff_stat(data))


def nonprivate_mle(model: ExpFamModel, data: Dataset, alpha: float) -> EstimateReport:
    """Oracle baseline: the classical MLE of the raw records, with inverse-Fisher/n Wald intervals.

    Nothing is clipped: ``records_mle`` takes the records over their own rows.
    A Fisher that is singular to working precision, with a 1-norm condition
    number of at least 1/eps, raises FisherSingularError: rounding alone
    would decide its inverse.
    """
    m, theta_hat = records_mle(model, data)
    fisher = m.fisher_info(theta_hat)
    try:
        inverse = np.linalg.inv(fisher)
    except np.linalg.LinAlgError as exc:
        raise FisherSingularError("fisher_singular") from exc
    # a 1 x 1 Fisher is singular only at 0, where inv raises, so it skips the norms
    if model.d > 1 and (np.linalg.norm(fisher, 1) * np.linalg.norm(inverse, 1)
                        >= 1.0 / np.finfo(float).eps):
        raise FisherSingularError("fisher_singular")
    variance = inverse / data.n
    variance = 0.5 * (variance + variance.T)
    return EstimateReport.wald(theta_hat, variance, alpha, "nonprivate_mle", {"n": data.n})


def estimate_report(
    model: ExpFamModel,
    rel: ReleasedStatistic,
    method: str,
    alpha: float,
    theta_plug: np.ndarray | None = None,
) -> EstimateReport:
    """Run the chosen DP estimator with its Wald interval in one call.

    ``theta_plug``, when given, is ``plugin_mle(model, rel)``, already solved.
    """
    solver: dict = {}  # the noise-aware solve's nit, nfev and status
    if method == "plugin":
        theta_hat = plugin_mle(model, rel) if theta_plug is None else theta_plug
        tag = "plugin_wald"
    elif method == "noise_aware":
        theta_hat = noise_aware_mle(model, rel, theta_plug=theta_plug, _solver=solver)
        tag = "noise_aware_wald"
    else:
        raise ValueError(f"unknown method {method!r}")
    variance = dp_variance(model, theta_hat, rel)
    return EstimateReport.wald(theta_hat, variance, alpha, tag, {
        "lambda": _regularizer(rel.sigma),
        "sigma": rel.sigma,
        # the estimate sits on a face of the |theta_j| <= PARAM_BOX box
        "at_box": bool(np.abs(theta_hat).max() >= PARAM_BOX),
        **solver,
    })
