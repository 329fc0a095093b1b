"""Exponential-family models with bounded sufficient statistics.

Three concrete families are provided: Gaussian mean with known variance,
logistic regression with a public design, and Poisson regression with a
public design.  Each model exposes the sufficient-statistic map, the mean
map (gradient of the log-partition), the Fisher information, a sampler,
a clipping rule that enforces the L2 bound on the per-record statistic,
and the inverse mean map used by the plug-in estimator.

``inverse_mean_map_batch`` inverts the mean map for many statistics at
once: batched damped Newton, then an L-BFGS-B fallback from the last
iterate of each unconverged row; a row whose fallback diverges is marked,
not raised.  ``inverse_mean_map`` is the one-row case, which raises.

Every log-partition is A(theta) = mean_i a(x_i . theta) over a public
design X, so the mean map, the Fisher information and their derivatives
come from one per-record kernel over X.  The Gaussian mean is the one-row
design x = 1 with a(eta) = sigma0^2 eta^2 / 2.  For the regressions only
sum(y_i * x_i) carries private information; X is used after the release.
"""

from __future__ import annotations

import abc
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

PARAM_BOX = 10.0  # box constraint |theta_j| <= 10 for all solvers
MAX_LOG_RATE = 700.0  # largest log-link eta whose exp is computed
NEWTON_MAX_ITER = 100  # Newton iterations of the inverse mean map
# rows x design rows per batched Newton solve, so that each (rows, design
# rows) temporary of the iteration stays within 0.5 MB
NEWTON_CHUNK_ELEMS = 2**16


class EmptyDatasetError(ValueError):
    """Raised when an operation receives a dataset with no records."""


class MeanOverflowError(FloatingPointError):
    """Raised when a log-link mean exp(x.theta) would overflow."""


class SolverDivergedError(RuntimeError):
    """Inverse mean map failed to converge; carries the last iterate."""

    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = np.asarray(last_iterate, dtype=float)


@dataclass(frozen=True)
class ClipBounds:
    """L2 bounds enforced on per-record sufficient statistics.

    ``B`` is the overall bound on ||s(record)||_2.  For regression models
    ``B_X`` bounds the feature norm; for Poisson ``B_Y`` caps the count,
    so the effective bound is B = B_X * B_Y.
    """

    B: float
    B_X: float | None = None
    B_Y: float | None = None

    def __post_init__(self):
        if self.B <= 0:
            raise ValueError("clip bound B must be positive")


@dataclass
class Dataset:
    """A batch of records.

    Gaussian mean: ``x`` has shape (n,) and ``y`` is None.
    Regression: ``x`` has shape (n, d) and ``y`` shape (n,).
    """

    x: np.ndarray
    y: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=float)
            if len(self.y) != len(self.x):
                raise ValueError("x and y lengths disagree")

    @property
    def n(self) -> int:
        return len(self.x)


class ExpFamModel(abc.ABC):
    """Common interface for the supported exponential families."""

    model_id: str
    d: int
    clip_bounds: ClipBounds
    design: np.ndarray  # public design X of the per-record kernel, shape (N, d)

    # -- data handling -------------------------------------------------

    @abc.abstractmethod
    def clip(self, data: Dataset) -> Dataset:
        """Return a copy of ``data`` with every record inside the clip bounds.

        Idempotent; records already inside the bounds pass through unchanged.
        """

    @abc.abstractmethod
    def suff_stats(self, data: Dataset) -> np.ndarray:
        """Per-record sufficient statistics, shape (n, d)."""

    def mean_suff_stat(self, data: Dataset) -> np.ndarray:
        """Arithmetic mean of s over (pre-clipped) records, shape (d,)."""
        if data.n == 0:
            raise EmptyDatasetError("empty_dataset")
        # the same sum and division as .mean(axis=0), without its Python-level overhead
        return np.add.reduce(self.suff_stats(data), axis=0) / data.n

    # -- family structure ----------------------------------------------

    @functools.cached_property
    def _design_outer(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Upper-triangle indices (i, j) and the products x_i x_j of each design row.

        The products have shape (n, d(d+1)/2); W @ products / n holds the
        upper triangles of the Fisher blocks X' diag(w) X / n.
        """
        i, j = np.triu_indices(self.d)
        outer = np.empty((len(self.design), len(i)))
        for k in range(len(i)):  # column by column, so no (n, d(d+1)/2) temporaries
            np.multiply(self.design[:, i[k]], self.design[:, j[k]], out=outer[:, k])
        return i, j, outer

    def _fisher_blocks(self, W: np.ndarray) -> np.ndarray:
        """I = X' diag(w) X / n for each row w of W, from one GEMM: shape (b, d, d)."""
        i, j, outer = self._design_outer
        fisher = np.empty((len(W), self.d, self.d))
        fisher[:, i, j] = fisher[:, j, i] = W @ outer / len(self.design)
        return fisher

    @abc.abstractmethod
    def _record_moments(self, Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-record means P and variances W, shape (b, n), and the finite mask.

        This is the one kernel behind ``mean_and_weights`` and
        ``mean_and_cumulants``: W is the weight vector of the Fisher block.
        """

    @staticmethod
    @abc.abstractmethod
    def _third_cumulants(P: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Per-record third cumulants dW/d(eta) from the means P and variances W."""

    def mean_and_weights(self, Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean map, Fisher weights and a finite mask for each row of Theta, shape (b, d).

        Returns mu = P @ X / n with shape (b, d); the per-record weights W
        with shape (b, n), so that I(Theta[k]) = X' diag(W[k]) X / n; and a
        (b,) mask that is False for rows whose mean would overflow.
        """
        P, W, finite = self._record_moments(Theta)
        return P @ self.design / len(self.design), W, finite

    def mean_and_cumulants(self, Theta: np.ndarray) -> tuple[np.ndarray, ...]:
        """``mean_and_weights`` plus the per-record third cumulants W3, shape (b, n).

        W3 = dW/d(eta) gives the derivative of the Fisher information,
        dI/d(theta_k) = X' diag(W3 * X[:, k]) X / n, from the same kernel call.
        """
        P, W, finite = self._record_moments(Theta)
        return P @ self.design / len(self.design), W, self._third_cumulants(P, W), finite

    def _mean_and_weights_at(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mu, w, finite = self.mean_and_weights(np.asarray(theta, dtype=float)[None])
        if not finite[0]:
            raise MeanOverflowError("mean_overflow")
        return mu[0], w

    def grad_log_partition(self, theta: np.ndarray) -> np.ndarray:
        """Mean parameter mu(theta), the gradient of the log-partition."""
        return self._mean_and_weights_at(theta)[0]

    def fisher_info(self, theta: np.ndarray) -> np.ndarray:
        """Fisher information I(theta) = Jacobian of the mean map, (d, d)."""
        return self._fisher_blocks(self._mean_and_weights_at(theta)[1])[0]

    @abc.abstractmethod
    def sample(self, theta: np.ndarray, n: int, rng: np.random.Generator) -> Dataset:
        """Draw n i.i.d. records at theta.  Draws are not clipped."""

    def with_design(self, design: np.ndarray) -> "ExpFamModel":
        """Model bound to a different public design (no-op for gaussian)."""
        return self

    # -- inverse mean map ----------------------------------------------

    @abc.abstractmethod
    def inverse_mean_map_batch(self, S: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
        """Solve grad_log_partition(theta_b) = S[b] over the box [-10, 10]^d for each row of S.

        Returns the solutions (b, d), the number of rows that needed the
        fallback, and a mask of the rows whose fallback diverged, which
        hold its last iterate.
        """

    def inverse_mean_map(self, s: np.ndarray) -> np.ndarray:
        """The one-row ``inverse_mean_map_batch``; a diverged row raises SolverDivergedError."""
        theta, _, diverged = self.inverse_mean_map_batch(np.asarray(s, dtype=float)[None])
        if diverged[0]:
            raise SolverDivergedError("solver_diverged", theta[0])
        return theta[0]


def _solve_blocks(A: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A[k] x = rhs[k] for each k; a singular block leaves only its own row unsolved."""
    try:
        return np.linalg.solve(A, rhs[..., None])[..., 0], np.ones(len(rhs), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(rhs)
        solved = np.ones(len(rhs), dtype=bool)
        for k in range(len(rhs)):
            try:
                x[k] = np.linalg.solve(A[k], rhs[k])
            except np.linalg.LinAlgError:
                solved[k] = False
        return x, solved


def _projected_gradient(theta, grad):
    proj = grad.copy()
    proj[(theta >= PARAM_BOX - 1e-12) & (grad < 0)] = 0.0
    proj[(theta <= -PARAM_BOX + 1e-12) & (grad > 0)] = 0.0
    return proj


class GaussianMeanModel(ExpFamModel):
    """Gaussian mean with known variance; s(x) = x, theta = mu / sigma0^2."""

    model_id = "gaussian_mean"

    def __init__(self, sigma0_sq: float = 1.0, B: float = 5.0):
        if sigma0_sq <= 0:
            raise ValueError("sigma0_sq must be positive")
        self.sigma0_sq = float(sigma0_sq)
        self.d = 1
        self.clip_bounds = ClipBounds(B=float(B))
        self.design = np.ones((1, 1))  # one record x = 1, a(eta) = sigma0^2 eta^2 / 2

    def clip(self, data: Dataset) -> Dataset:
        B = self.clip_bounds.B
        # the array method skips np.clip's wrapper, which costs more than the
        # clip itself at Monte Carlo sizes; the same holds in inverse_mean_map
        return Dataset(data.x.clip(-B, B), meta=dict(data.meta))

    def suff_stats(self, data: Dataset) -> np.ndarray:
        return data.x.reshape(-1, 1)

    def log_partition(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        return 0.5 * self.sigma0_sq * float(theta[0] ** 2)

    def _record_moments(self, Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        P = self.sigma0_sq * (Theta @ self.design.T)
        return P, np.full_like(P, self.sigma0_sq), np.ones(len(P), dtype=bool)

    @staticmethod
    def _third_cumulants(P: np.ndarray, W: np.ndarray) -> np.ndarray:
        return np.zeros_like(W)

    # the kernel's results in closed form, bit for bit and several times faster
    def grad_log_partition(self, theta: np.ndarray) -> np.ndarray:
        return self.sigma0_sq * np.asarray(theta, dtype=float)

    def fisher_info(self, theta: np.ndarray) -> np.ndarray:
        return np.array([[self.sigma0_sq]])

    def inverse_mean_map(self, s: np.ndarray) -> np.ndarray:
        # the mean map is linear, so the box-constrained solution is closed form
        s = np.asarray(s, dtype=float)
        return (s / self.sigma0_sq).clip(-PARAM_BOX, PARAM_BOX)

    def inverse_mean_map_batch(self, S: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
        return self.inverse_mean_map(S), 0, np.zeros(len(S), dtype=bool)

    def sample(self, theta: np.ndarray, n: int, rng: np.random.Generator) -> Dataset:
        mu = self.sigma0_sq * float(np.asarray(theta, dtype=float)[0])
        return Dataset(rng.normal(mu, np.sqrt(self.sigma0_sq), size=n))


class _RegressionModel(ExpFamModel):
    """Shared machinery for models with s(x, y) = y * x and a public design."""

    def __init__(self, design: np.ndarray):
        design = np.atleast_2d(np.asarray(design, dtype=float))
        self.design = self._clip_features(design)
        self.d = self.design.shape[1]

    def _clip_features(self, X: np.ndarray) -> np.ndarray:
        B_X = self.clip_bounds.B_X
        norms = np.linalg.norm(X, axis=1)
        # the tolerance makes clipping exactly idempotent: rescaled rows
        # land within an ulp of the bound and must not be rescaled again
        scale = np.where(norms > B_X * (1.0 + 1e-14), B_X / np.maximum(norms, 1e-300), 1.0)
        return X * scale[:, None]

    def suff_stats(self, data: Dataset) -> np.ndarray:
        return data.x * data.y[:, None]

    def newton_batch(self, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Damped Newton for every row of S at once, each row started at theta = 0.

        A row converges when ||mu(theta) - s|| <= 1e-8 max(1, ||s||).  It
        stops unconverged when its Fisher block is singular, or when 30
        halvings of its own step length find no candidate in the box with a
        finite mean and a smaller residual.  The weights of each accepted
        candidate give the next Fisher blocks, one GEMM for all rows.
        """
        S = np.atleast_2d(np.asarray(S, dtype=float))
        b, d = S.shape
        theta = np.zeros((b, d))
        tol = 1e-8 * np.maximum(1.0, np.linalg.norm(S, axis=1))
        mu0, w0, _ = self.mean_and_weights(theta[:1])
        resid = mu0 - S
        weights = np.repeat(w0, b, axis=0)
        rnorm = np.linalg.norm(resid, axis=1)
        active = rnorm > tol
        ridge = 1e-12 * np.eye(d)
        for _ in range(NEWTON_MAX_ITER):
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break
            fisher = self._fisher_blocks(weights[rows]) + ridge
            step, solved = _solve_blocks(fisher, -resid[rows])
            active[rows[~solved]] = False
            rows, step = rows[solved], step[solved]
            # backtrack on the residual norm, up to 30 halvings per row
            t = np.ones(len(rows))
            searching = np.ones(len(rows), dtype=bool)
            for _ in range(30):
                j = np.flatnonzero(searching)
                if j.size == 0:
                    break
                r = rows[j]
                cand = np.clip(theta[r] + t[j, None] * step[j], -PARAM_BOX, PARAM_BOX)
                mu, w, finite = self.mean_and_weights(cand)
                cand_resid = mu - S[r]
                with np.errstate(over="ignore"):  # an overflowing norm is inf: rejected
                    cand_norm = np.linalg.norm(cand_resid, axis=1)
                ok = finite & (cand_norm < rnorm[r])
                acc = r[ok]
                theta[acc], resid[acc], rnorm[acc] = cand[ok], cand_resid[ok], cand_norm[ok]
                weights[acc] = w[ok]
                searching[j[ok]] = False
                t[j[~ok]] *= 0.5
            active[rows[searching]] = False
            active &= rnorm > tol
        return theta, rnorm <= tol

    def inverse_mean_map_batch(self, S: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
        """``newton_batch`` in chunks of NEWTON_CHUNK_ELEMS // design rows, then the fallback."""
        S = np.atleast_2d(np.asarray(S, dtype=float))
        theta = np.empty_like(S)
        diverged = np.zeros(len(S), dtype=bool)
        fallbacks = 0
        chunk = max(1, NEWTON_CHUNK_ELEMS // len(self.design))
        for lo in range(0, len(S), chunk):
            theta[lo:lo + chunk], converged = self.newton_batch(S[lo:lo + chunk])
            for b in lo + np.flatnonzero(~converged):
                fallbacks += 1
                try:
                    theta[b] = self._inverse_mean_map_fallback(S[b], theta[b])
                except SolverDivergedError as exc:
                    theta[b], diverged[b] = exc.last_iterate, True
        return theta, fallbacks, diverged

    def _inverse_mean_map_fallback(self, s: np.ndarray, theta0: np.ndarray) -> np.ndarray:
        """Box-constrained L-BFGS-B on 0.5 ||mu(theta) - s||^2, started at theta0.

        Each objective call runs the kernel once; the gradient I(theta) r is
        X'(w * X r) / n, with no d x d Fisher matrix.
        """
        X = self.design

        def objective(theta):
            mu, w, finite = self.mean_and_weights(theta[None])
            if not finite[0]:
                return 1e300, np.zeros(self.d)
            r = mu[0] - s
            return 0.5 * float(r @ r), (w[0] * (X @ r)) @ X / len(X)

        res = minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            bounds=[(-PARAM_BOX, PARAM_BOX)] * self.d,
            options={"maxiter": 200, "ftol": 1e-15, "gtol": 1e-12},
        )
        theta = np.clip(res.x, -PARAM_BOX, PARAM_BOX)
        value, grad = objective(theta)
        # at a box optimum the projected gradient vanishes even though the residual
        # may not; a large one fails, and so does an end point whose mean overflows
        proj = _projected_gradient(theta, grad)
        if not value < 1e300 or np.linalg.norm(proj) > 1e-5 * max(1.0, np.linalg.norm(s)):
            raise SolverDivergedError("solver_diverged", theta)
        return theta

    def _design_for_sampling(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # reuse the design when sizes match; otherwise resample rows uniformly
        if n == len(self.design):
            return self.design
        idx = rng.integers(0, len(self.design), size=n)
        return self.design[idx]


class LogisticModel(_RegressionModel):
    """Logistic regression with y in {0, 1}; ||y x||_2 <= ||x||_2 = B_X."""

    model_id = "logistic"

    def __init__(self, design: np.ndarray, B_X: float = 3.0):
        self.clip_bounds = ClipBounds(B=float(B_X), B_X=float(B_X))
        super().__init__(design)

    def clip(self, data: Dataset) -> Dataset:
        return Dataset(self._clip_features(data.x), data.y, meta=dict(data.meta))

    def _record_moments(self, Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # expit's formula 1 / (1 + exp(-eta)), in place on numpy's vectorised
        # exp, which is several times faster; an overflowing exp gives p = 0
        P = np.negative(Theta @ self.design.T)
        with np.errstate(over="ignore"):
            np.exp(P, out=P)
        P += 1.0
        np.reciprocal(P, out=P)
        return P, P * (1.0 - P), np.ones(len(P), dtype=bool)

    @staticmethod
    def _third_cumulants(P: np.ndarray, W: np.ndarray) -> np.ndarray:
        return W * (1.0 - 2.0 * P)

    def sample(self, theta: np.ndarray, n: int, rng: np.random.Generator) -> Dataset:
        X = self._design_for_sampling(n, rng)
        p = expit(X @ np.asarray(theta, dtype=float))
        y = (rng.random(n) < p).astype(float)
        return Dataset(X.copy(), y)

    def with_design(self, design: np.ndarray) -> "LogisticModel":
        return LogisticModel(design, B_X=self.clip_bounds.B_X)


class PoissonModel(_RegressionModel):
    """Poisson regression with log link; counts capped at B_Y by clipping."""

    model_id = "poisson"

    def __init__(self, design: np.ndarray, B_X: float = 3.0, B_Y: float = 20.0):
        self.clip_bounds = ClipBounds(B=float(B_X) * float(B_Y), B_X=float(B_X), B_Y=float(B_Y))
        super().__init__(design)

    def clip(self, data: Dataset) -> Dataset:
        return Dataset(
            self._clip_features(data.x),
            np.minimum(data.y, self.clip_bounds.B_Y),
            meta=dict(data.meta),
        )

    def _rates(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        eta = X @ np.asarray(theta, dtype=float)
        if np.max(eta) > MAX_LOG_RATE:
            raise MeanOverflowError("mean_overflow")
        return np.exp(eta)

    def _record_moments(self, Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        eta = Theta @ self.design.T
        finite = eta.max(axis=1) <= MAX_LOG_RATE
        # rows past the cap are masked out; capping keeps their exp finite
        lam = np.exp(np.minimum(eta, MAX_LOG_RATE))
        return lam, lam, finite

    @staticmethod
    def _third_cumulants(P: np.ndarray, W: np.ndarray) -> np.ndarray:
        return W  # every cumulant of a Poisson count is its rate

    def sample(self, theta: np.ndarray, n: int, rng: np.random.Generator) -> Dataset:
        X = self._design_for_sampling(n, rng)
        lam = self._rates(theta, X)
        return Dataset(X.copy(), rng.poisson(lam).astype(float))

    def with_design(self, design: np.ndarray) -> "PoissonModel":
        return PoissonModel(design, B_X=self.clip_bounds.B_X, B_Y=self.clip_bounds.B_Y)


MODEL_IDS = tuple(cls.model_id for cls in (GaussianMeanModel, LogisticModel, PoissonModel))


# ---------------------------------------------------------------------- #
# Config and CSV I/O
# ---------------------------------------------------------------------- #

def load_model_config(path: str | Path) -> ExpFamModel:
    """Build a model from a JSON config.

    Schema: {model_id, d, sigma0_sq?, clip: {B | B_X, B_Y}, design_csv?}.
    ``design_csv`` is resolved relative to the config file and holds
    headerless rows of d decimal floats.  A malformed config raises
    ValueError naming the field; an unreadable file raises OSError.
    """
    path = Path(path)
    cfg = json.loads(path.read_text())
    clip = cfg.get("clip", {}) if isinstance(cfg, dict) else None
    if not isinstance(clip, dict):
        raise ValueError("the model config and its clip must be JSON objects")
    model_id = cfg.get("model_id")
    if model_id == "gaussian_mean":
        return GaussianMeanModel(_positive(cfg, "sigma0_sq", 1.0), B=_positive(clip, "B"))
    if model_id not in MODEL_IDS:
        raise ValueError(f"unknown model_id {model_id!r}")
    if not isinstance(cfg.get("design_csv"), str):
        raise ValueError(f"model {model_id!r} requires a design_csv")
    d = cfg.get("d")
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    design = np.loadtxt(path.parent / cfg["design_csv"], delimiter=",", ndmin=2)
    if design.shape[1] != d:
        raise ValueError("design column count disagrees with d")
    if len(design) == 0 or not np.isfinite(design).all():
        raise ValueError("design_csv must hold at least one row, all finite")
    if model_id == "logistic":
        return LogisticModel(design, B_X=_positive(clip, "B_X"))
    return PoissonModel(design, B_X=_positive(clip, "B_X"), B_Y=_positive(clip, "B_Y"))


def _positive(obj: dict, key: str, default: float | None = None) -> float:
    """obj[key] (or the default) as a float; ValueError unless a finite positive number."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < np.inf:
        raise ValueError(f"{key} must be a positive number, got {value!r}")
    return float(value)


def dataset_from_csv(path: str | Path, model: ExpFamModel) -> Dataset:
    """Read a dataset CSV: one column x (gaussian) or d features then y.

    A nan or inf entry raises ValueError; clipping would hide an inf.
    """
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    if arr.size == 0:
        raise EmptyDatasetError("empty_dataset")
    if not np.isfinite(arr).all():
        raise ValueError("data must be finite; found nan or inf")
    if model.model_id == "gaussian_mean":
        if arr.shape[1] != 1:
            raise ValueError("gaussian data must have exactly one column")
        return Dataset(arr[:, 0])
    if arr.shape[1] != model.d + 1:
        raise ValueError(f"expected {model.d} feature columns plus y")
    return Dataset(arr[:, :-1], arr[:, -1])


def dataset_to_csv(data: Dataset, path: str | Path) -> None:
    if data.y is None:
        arr = data.x.reshape(-1, 1)
    else:
        arr = np.column_stack([data.x, data.y])
    np.savetxt(path, arr, delimiter=",", fmt="%.17g")
