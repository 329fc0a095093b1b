"""Exponential-family models with bounded sufficient statistics.

Three concrete families are provided: Gaussian mean with known variance,
logistic regression with a public design, and Poisson regression with a
public design.  Each model exposes the sufficient-statistic map, the mean
map (gradient of the log-partition), the Fisher information, a sampler,
a clipping rule that enforces the L2 bound on the per-record statistic,
and the inverse mean map used by the plug-in estimator.

``inverse_mean_map_batch`` inverts the mean map for many statistics at
once: one damped-Newton loop over every row, then a fallback on the
least-squares residual for the unconverged rows, each started from its last
Newton iterate; a row whose fallback diverges is marked, not raised.  Each
Newton step is bounded in the linear predictor: it is scaled down so that its
reach ||step|| max_i ||x_i|| is at most NEWTON_MAX_REACH, which by
Cauchy-Schwarz bounds max_i |x_i . step|, the most it moves any record's
x_i . theta (a trust region in eta; Nocedal and Wright, ch. 4).  The row-norm
bound needs only the step's norms, and in the common case, where no row is
near it, one dot product of the step with itself; the exact maximum would
cost a (rows, N) product with the design on every iteration.
``inverse_mean_map`` is the one-row case, which raises.  The fallback is
``minimize_in_box``, Bertsekas' projected Newton method over the box for a
batch of rows, which also solves the noise-aware likelihood in ``estimate``;
it and Newton share one backtracking line search, ``_backtrack``.

Every log-partition is A(theta) = mean_i a(x_i . theta) over a public
design X, so the mean map, the Fisher information and their derivatives
come from one per-record kernel over X.  It runs on blocks of
NEWTON_CHUNK_ELEMS // N rows of parameters, so that its (rows, N) arrays
stay in cache however many rows a solver holds.  Those arrays are views of
a per-thread workspace, reused by every block and call on that thread and
valid until its next kernel call, so no call allocates them.  The kernel
returns per-row contractions only: ``mean_and_fisher`` the mean and the
Fisher block, ``mean_fisher_and_skew`` also the third-cumulant tensor
contracted with one vector u per row, T[u] = X' diag(w3 * X u) X / N, the
derivative of the Fisher block along u.  A ``direction(rows, mu, fisher)``
callback gives each block's u from that block's mean and Fisher block, so
the solvers never build T itself.  The Gaussian mean is the one-row design
x = 1 with a(eta) = sigma0^2 eta^2 / 2.  For the regressions only
sum(y_i * x_i) carries private information; X is used after the release.

A row's kernel results are bit-for-bit reproducible under two conditions,
which every change to the kernel and its solvers must keep:

- every BLAS operand keeps its memory layout: the products of
  ``_design_outer`` are C-ordered, and each GEMM writes a C-contiguous
  (rows, k) array, so the same BLAS routine sums in the same order;
- a row's results depend on how many rows share its GEMM, so the rows that
  go into each kernel call, and NEWTON_CHUNK_ELEMS, which splits them into
  blocks, decide the bits.  A solver evaluates the same rows in the same
  calls whatever its bookkeeping.
"""

from __future__ import annotations

import abc
import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import os
import re
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PARAM_BOX = 10.0  # box constraint |theta_j| <= 10 for all solvers
MAX_LOG_RATE = 700.0  # largest log-link eta whose exp is computed
NEWTON_MAX_ITER = 100  # iterations of the inverse mean map's Newton loop and of minimize_in_box
# largest reach ||step|| * max_i ||x_i|| of a Newton step in newton_batch, a bound on
# how far it moves any record's linear predictor x_i . theta
NEWTON_MAX_REACH = 10.0
# rows x design rows per block of the per-record kernel, so that each of its
# (rows, design rows) arrays, a view of one slot of _workspace, stays within 0.5 MB
NEWTON_CHUNK_ELEMS = 2**16
# the largest rate numpy's Generator.poisson accepts (its POISSON_LAM_MAX)
POISSON_RATE_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)

_WORKSPACE = threading.local()


@functools.cache
def _triangle(d: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """The pairs (i, j), i <= j, of a d x d triangle in row order, and a gather index.

    Entry r * d + c of the index is the position of the pair of (r, c), so
    a row of triangle values, gathered through it, is the symmetric block.
    """
    pairs = tuple((i, j) for i in range(d) for j in range(i, d))
    position = {pair: k for k, pair in enumerate(pairs)}
    sym = np.array([position[min(r, c), max(r, c)] for r in range(d) for c in range(d)])
    sym.flags.writeable = False  # shared by every model of dimension d
    return pairs, sym


def _workspace(slot: int, rows: int, n: int) -> np.ndarray:
    """A (rows, n) view of slot ``slot`` of this thread's kernel workspace.

    One (4, max(NEWTON_CHUNK_ELEMS, rows * n)) array per thread, so every
    kernel block writes the same pages instead of allocating fresh ones.
    """
    buf = getattr(_WORKSPACE, "buf", None)
    if buf is None or buf.shape[1] < rows * n:
        buf = _WORKSPACE.buf = np.empty((4, max(NEWTON_CHUNK_ELEMS, rows * n)))
    return buf[slot, :rows * n].reshape(rows, n)


class EmptyDatasetError(ValueError):
    """Raised when an operation receives a dataset with no records."""


class NumericalError(Exception):
    """A numerical failure; str() is its code, which the CLI prints as ``error: <code>``, exit 3.

    Each member also keeps a builtin base, so a caller that catches that base still does.
    """


class MeanOverflowError(NumericalError, FloatingPointError):
    """A log-link mean exp(x.theta) overflows, or a rate is past the Poisson sampler's limit."""


class SolverDivergedError(NumericalError, RuntimeError):
    """A failed solve: "solver_diverged", or "na_diverged" (noise-aware MLE); has last_iterate."""

    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = np.asarray(last_iterate, dtype=float)

    def __reduce__(self):  # picklable, so a harness worker process can raise it
        return type(self), (str(self), self.last_iterate)


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
    def _design_outer(self) -> tuple[np.ndarray, np.ndarray]:
        """``_triangle``'s gather index and the products x_i x_j of each design row.

        The products have shape (n, d(d+1)/2), C-ordered; W @ products / n
        holds the upper triangles of the Fisher blocks X' diag(w) X / n.
        """
        pairs, sym = _triangle(self.d)
        outer = np.empty((len(self.design), len(pairs)))
        for k, (i, j) in enumerate(pairs):  # column by column, so no (n, d(d+1)/2) temporaries
            np.multiply(self.design[:, i], self.design[:, j], out=outer[:, k])
        return sym, outer

    @functools.cached_property
    def _max_row_norm(self) -> float:
        """The largest L2 norm of a design row, max_i ||x_i||.

        The squared norms come from one matrix-vector product: a reduction
        along rows of d entries costs three times as much, and the harness
        builds a design, and so a model, per replication.
        """
        return math.sqrt((np.square(self.design) @ np.ones(self.d)).max())

    @abc.abstractmethod
    def _record_moments(self, Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel's per-record means P and variances W, shape (b, n), and finite mask.

        Runs under the kernel's np.errstate, which ignores overflow.
        """

    @staticmethod
    @abc.abstractmethod
    def _third_cumulants(P: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Per-record third cumulants dW/d(eta) from the means P and variances W."""

    @property
    def _block_rows(self) -> int:
        """Rows of parameters per kernel block: NEWTON_CHUNK_ELEMS // design rows."""
        return max(1, NEWTON_CHUNK_ELEMS // len(self.design))

    def mean_and_fisher(self, Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean map, Fisher information and a finite mask for each row of Theta, shape (b, d).

        Returns mu = P @ X / n with shape (b, d); I = X' diag(W) X / n with
        shape (b, d, d); and a (b,) mask that is False for rows whose mean
        would overflow.
        """
        return self._blocked_moments(Theta)

    def mean_fisher_and_skew(self, Theta: np.ndarray, direction) -> tuple[np.ndarray, ...]:
        """``mean_and_fisher``'s mu, I and mask, with each row's u and T[u] between them.

        T[u] = X' diag(w3 * X u) X / n, shape (b, d, d), is the derivative of
        I along u (w3 = dW/d(eta)): the Fisher block's GEMM with the weights
        w3 * X u.  ``direction(rows, mu, fisher)`` is called once per block,
        with the block's slice of Theta's rows and their mu and I, and returns
        their u, shape (rows, d).  The block's per-record arrays are views of
        this thread's workspace that its T[u] still needs, so ``direction``
        must not call the kernel.  A row whose mean overflowed may get any u,
        and its T[u] may be inf or nan; the mask marks it.
        """
        return self._blocked_moments(Theta, direction)

    def _blocked_moments(self, Theta: np.ndarray, direction=None) -> tuple[np.ndarray, ...]:
        """mu, I, with a ``direction`` also U and T[U], and the finite mask, in blocks.

        Each GEMM writes its own C-contiguous (rows, k) array, as a fresh
        result would be; the symmetric blocks are gathered from its triangle.
        """
        n, block, b, d = len(self.design), self._block_rows, len(Theta), self.d
        sym, outer = self._design_outer
        mu, fisher, finite = np.empty((b, d)), np.empty((b, d, d)), np.empty(b, dtype=bool)
        if direction is not None:
            U, skew = np.empty((b, d)), np.empty((b, d, d))
        # weights near exp(MAX_LOG_RATE) can take a Fisher block past the float
        # range: it is inf, and its row's mean is near 1e300; its T[u] is then
        # inf * 0 or inf - inf, nan, and the mask marks the row
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, b, block):
                rows = slice(lo, lo + block)
                P, W, finite[rows] = self._record_moments(Theta[rows])
                mu_rows = np.matmul(P, self.design, out=mu[rows])
                mu_rows /= n
                F = W @ outer
                F /= n
                F.take(sym, axis=1, out=fisher[rows].reshape(-1, d * d), mode="clip")
                # a Fisher block past the float range; the sum is finite only if every entry is
                if not math.isfinite(F.sum()):
                    finite[rows] &= np.isfinite(F).all(axis=1)
                if direction is not None:
                    U[rows] = direction(rows, mu_rows, fisher[rows])
                    W3u = np.matmul(U[rows], self.design.T, out=_workspace(3, len(P), n))
                    W3u *= self._third_cumulants(P, W)
                    T = W3u @ outer
                    T /= n
                    T.take(sym, axis=1, out=skew[rows].reshape(-1, d * d), mode="clip")
        return (mu, fisher, finite) if direction is None else (mu, fisher, U, skew, finite)

    def _mean_and_fisher_at(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mu, fisher, finite = self.mean_and_fisher(np.asarray(theta, dtype=float)[None])
        if not finite[0]:
            raise MeanOverflowError("mean_overflow")
        return mu[0], fisher[0]

    def grad_log_partition(self, theta: np.ndarray) -> np.ndarray:
        """Mean parameter mu(theta), the gradient of the log-partition."""
        return self._mean_and_fisher_at(theta)[0]

    def fisher_info(self, theta: np.ndarray) -> np.ndarray:
        """Fisher information I(theta) = Jacobian of the mean map, (d, d)."""
        return self._mean_and_fisher_at(theta)[1]

    @abc.abstractmethod
    def sample(self, theta: np.ndarray, n: int, rng: np.random.Generator) -> Dataset:
        """Draw n i.i.d. records at theta.  Draws are not clipped."""

    def with_design(self, design: np.ndarray) -> "ExpFamModel":
        """This model over the records' rows ``design``; the Gaussian mean has none: itself."""
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


def _norms(A: np.ndarray) -> np.ndarray:
    """np.linalg.norm(A, axis=1) of a 2-D array, in its arithmetic, without its Python overhead."""
    return np.sqrt(np.add.reduce(A * A, axis=1))


def _row_norms(A: np.ndarray) -> np.ndarray:
    """np.linalg.norm(A, axis=1), without overflow for finite rows with entries past 1e154.

    Only a row whose sum of squares overflows is rescaled by its largest
    entry, so every other norm is bit-identical to numpy's.
    """
    with np.errstate(over="ignore"):
        norms = _norms(A)
    big = np.isinf(norms)
    if big.any():
        big &= np.isfinite(A).all(axis=1)
        scale = np.abs(A[big]).max(axis=1)
        norms[big] = scale * _norms(A[big] / scale[:, None])
    return norms


def projected_newton_step(theta, grad, hess, gauss_newton) -> tuple[np.ndarray, np.ndarray]:
    """Bertsekas' projected Newton step (SIAM J. Control Optim. 1982) for each row in the box.

    Coordinates within eps of a bound whose gradient points out of the box
    are fixed: their step moves them onto the bound.  The others take the
    Newton step on their free block of ``hess``, where eps is the length of
    a projected gradient step, at most 1e-3.  A row whose free block of
    ``hess`` is not positive definite uses the free block of the positive
    semi-definite ``gauss_newton`` instead.  Returns the steps (b, d) and a
    mask of the rows whose free block could be solved.
    """
    gap = theta - (theta - grad).clip(-PARAM_BOX, PARAM_BOX)
    eps = np.minimum(1e-3, _norms(gap))[:, None]
    upper = (theta >= PARAM_BOX - eps) & (grad < 0)
    lower = (theta <= -PARAM_BOX + eps) & (grad > 0)
    fixed = upper | lower
    # the free block, with an identity on the fixed coordinates
    keep = ~fixed[:, :, None] & ~fixed[:, None, :]
    pin = fixed[:, :, None] * np.eye(theta.shape[1])
    hess = np.where(keep, hess, pin)
    convex = np.isfinite(hess).all(axis=(1, 2))
    convex[convex] = np.linalg.eigvalsh(hess[convex])[:, 0] > 0
    hess[~convex] = np.where(keep, gauss_newton, pin)[~convex]
    step, solved = _solve_blocks(hess, np.where(fixed, 0.0, -grad))
    step = np.where(upper, PARAM_BOX - theta, np.where(lower, -PARAM_BOX - theta, step))
    return step, solved


def _backtrack(evaluate, rows, step, theta, stores) -> np.ndarray:
    """Halve each row's step until its candidate lowers the row's value.

    The candidate of row ``rows[k]`` is theta + t step[k] clipped to the box;
    one ``evaluate(candidates, rows)`` call per halving round evaluates every
    row still searching, all of which have the same t.  It returns per-row
    arrays, the value first and the finite mask third: a finite candidate
    that lowers the value held in ``stores[0]`` is accepted in place into
    theta and ``stores``, which hold its other arrays in order.  Returns the
    rows that found none in 30 halvings.
    """
    t = 1.0
    for _ in range(30):
        if not rows.size:
            break
        # take, not fancy indexing: on a few rows it costs a third as much
        cand = (theta.take(rows, axis=0) + t * step).clip(-PARAM_BOX, PARAM_BOX)
        value, second, finite, *rest = evaluate(cand, rows)
        ok = finite & (value < stores[0].take(rows))
        k = ok.nonzero()[0]
        acc = rows.take(k)
        theta[acc] = cand.take(k, axis=0)
        for store, new in zip(stores, (value, second, *rest)):
            store[acc] = new.take(k, axis=0)
        k = (~ok).nonzero()[0]
        rows, step = rows.take(k), step.take(k, axis=0)
        t *= 0.5
    return rows


def minimize_in_box(evaluate, hessians, Theta0) -> tuple[np.ndarray, ...]:
    """Bertsekas' projected Newton method on a batch of objectives over the box, one per row.

    ``evaluate(Theta, rows)`` gives, for the rows ``rows`` at the points
    Theta, per-row arrays (f, grad, finite, *state): a point that is not
    finite is never accepted.  ``hessians(rows, state)`` gives those rows' Hessians
    and positive semi-definite Gauss-Newton Hessians for
    ``projected_newton_step``.  Each row starts at its row of Theta0 clipped
    to the box, and stops there if its largest projected-gradient entry
    |theta_j - clip(theta_j - grad_j)|, in L-BFGS-B's arithmetic, is at most
    1e-8.  Otherwise each iteration takes ``projected_newton_step`` and halves
    it until f decreases.  A row stops with status 0 when its step predicts a
    decrease -grad.step of at most 1e-15 max(1, |f|); with status 2 when its
    start is not finite, its step cannot be solved or 30 halvings find no
    decrease; with status 1 after NEWTON_MAX_ITER accepted steps.

    Returns the end points, the start's finite mask, the end gradients, and
    per row the status, the accepted steps (nit) and the evaluations (nfev).
    """
    theta = np.asarray(Theta0, dtype=float).clip(-PARAM_BOX, PARAM_BOX)
    nit, nfev = np.zeros((2, len(theta)), dtype=int)

    def counted(Theta, rows):
        nfev[rows] += 1
        return evaluate(Theta, rows)

    f, grad, finite, *state = counted(theta, np.arange(len(theta)))
    status = np.where(finite, 0, 2)
    projected = np.where(grad < 0, np.maximum(theta - PARAM_BOX, grad),
                         np.minimum(theta + PARAM_BOX, grad))
    active = finite & ~(np.abs(projected).max(axis=1) <= 1e-8)  # a nan is not stationary
    for _ in range(NEWTON_MAX_ITER):
        rows = active.nonzero()[0]
        if not rows.size:
            break
        hess, gauss_newton = hessians(rows, state)
        step, solved = projected_newton_step(theta[rows], grad[rows], hess, gauss_newton)
        with np.errstate(over="ignore"):  # past 1e154 the product overflows: the row stops
            decrease = -np.add.reduce(grad[rows] * step, axis=1)
        moving = solved & (decrease > 1e-15 * np.maximum(1.0, np.abs(f[rows])))
        status[rows[~solved]] = 2
        active[rows[~moving]] = False
        stuck = _backtrack(counted, rows[moving], step[moving], theta, (f, grad, *state))
        status[stuck] = 2
        active[stuck] = False
        nit += active  # the rows still active accepted a step
    status[active] = 1
    return theta, finite, grad, status, nit, nfev


def _least_squares_objective(model, S):
    """``minimize_in_box``'s callbacks for f = 0.5 ||mu(theta) - s||^2, one row of S per row.

    With r = mu - s, the gradient is g = I r, the Hessian I^2 + T[r] and the
    Gauss-Newton Hessian I^2, from one ``model.mean_fisher_and_skew`` call
    whose ``direction`` is each block's residual r.
    """

    def evaluate(Theta, rows):
        s = S[rows]
        mu, fisher, resid, skew, finite = model.mean_fisher_and_skew(
            Theta, lambda block, mu, fisher: mu - s[block])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed row is inf or nan
            f = 0.5 * np.linalg.norm(resid, axis=1) ** 2
            return f, (fisher @ resid[..., None])[..., 0], finite, fisher, skew

    def hessians(rows, state):
        fisher, skew = (a[rows] for a in state)
        gauss_newton = fisher @ fisher
        return gauss_newton + skew, gauss_newton

    return evaluate, hessians


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
        return Dataset(data.x.clip(-B, B))

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
        """Damped Newton for every row of S in one loop, each row started at theta = 0.

        A row converges when ||mu(theta) - s|| <= 1e-8 max(1, ||s||).  It
        stops unconverged when its Fisher block is singular, or when 30
        halvings of its own step length find no candidate in the box with a
        finite mean and a smaller residual.  A row on a face of the box whose
        step points further out stops at once, without halving, when the
        slope (I r).d of 0.5 ||mu - s||^2 along the clipped step d (the step
        with those blocked coordinates set to zero) is not negative: short
        steps then cannot lower the residual (Bertsekas, SIAM J. Control
        Optim. 1982).  A step whose reach ||step|| max_i ||x_i||, a bound on
        max_i |x_i . step|, exceeds NEWTON_MAX_REACH is scaled down to it
        before halving, so that no step moves a record's linear predictor by
        more than 10: far from a solution the full step can be 1e10, and 30
        halvings of it, clipped to the box, may all land where the mean
        overflows.  A step within the bound is taken as it is, bit for bit.  Each
        iteration makes one ``mean_and_fisher`` call per halving round over
        the rows still searching.
        """
        S = np.atleast_2d(np.asarray(S, dtype=float))
        b, d = S.shape

        def evaluate(Theta, rows):
            mu, fisher, finite = self.mean_and_fisher(Theta)
            resid = mu - S.take(rows, axis=0)
            return _norms(resid), resid, finite, fisher

        theta = np.zeros((b, d))
        tol = 1e-8 * np.maximum(1.0, _row_norms(S))
        ridge = 1e-12 * np.eye(d)
        m = self._max_row_norm
        with np.errstate(over="ignore"):  # an overflowing norm is inf
            # every row starts at theta = 0, so one kernel row serves them all
            rnorm, resid, _, fisher0 = evaluate(theta[:1], np.arange(b))
            fishers = np.repeat(fisher0, b, axis=0)
            active = rnorm > tol
            for _ in range(NEWTON_MAX_ITER):
                rows = active.nonzero()[0]
                if not rows.size:
                    break
                fisher = fishers.take(rows, axis=0) + ridge
                step, moving = _solve_blocks(fisher, -resid.take(rows, axis=0))
                if np.abs(theta).max() >= PARAM_BOX:  # interior solves skip the check
                    # blocked: on a face of the box, with the step pointing further out
                    th = theta[rows]
                    blocked = ((th >= PARAM_BOX) & (step > 0)) | ((th <= -PARAM_BOX) & (step < 0))
                    slope = np.einsum("kij,kj,ki->k", fisher, np.where(blocked, 0.0, step),
                                      resid[rows])
                    moving &= ~blocked.any(axis=1) | (slope < 0)
                # no row's reach passes the bound unless the sum of their squares does
                if np.vdot(step, step) * (m * m) > NEWTON_MAX_REACH**2:
                    reach = _row_norms(step) * m
                    far = reach > NEWTON_MAX_REACH
                    step[far] *= (NEWTON_MAX_REACH / reach[far])[:, None]
                active[rows[~moving]] = False
                moving = moving.nonzero()[0]
                stuck = _backtrack(evaluate, rows.take(moving), step.take(moving, axis=0), theta,
                                   (rnorm, resid, fishers))
                active[stuck] = False
                active &= rnorm > tol
        return theta, rnorm <= tol

    def inverse_mean_map_batch(self, S: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
        """One ``newton_batch`` over every row of S, then one fallback over its unconverged rows.

        Each unconverged row starts the fallback at its last Newton iterate;
        rows that Newton converges are not touched.
        """
        S = np.atleast_2d(np.asarray(S, dtype=float))
        theta, converged = self.newton_batch(S)
        diverged = np.zeros(len(S), dtype=bool)
        rows = (~converged).nonzero()[0]
        if rows.size:
            theta[rows], diverged[rows] = self._inverse_mean_map_fallback(S[rows], theta[rows])
        return theta, rows.size, diverged

    def _inverse_mean_map_fallback(
        self, S: np.ndarray, Theta0: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``minimize_in_box`` on 0.5 ||mu(theta) - s||^2 for every row of S, started at Theta0.

        Returns the end points (b, d) and a mask of the rows that diverged:
        those whose mean overflows, or whose projected gradient exceeds
        1e-5 max(1, ||s||).
        """
        S = np.atleast_2d(np.asarray(S, dtype=float))
        theta, finite, proj, *_ = minimize_in_box(*_least_squares_objective(self, S), Theta0)
        # at a box optimum the projected gradient vanishes even though the residual
        # may not; a large one fails, and so does an end point whose mean overflows
        proj[((theta >= PARAM_BOX - 1e-12) & (proj < 0))
             | ((theta <= -PARAM_BOX + 1e-12) & (proj > 0))] = 0.0
        tol = 1e-5 * np.maximum(1.0, _row_norms(S))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed row is nan: diverged
            return theta, ~(finite & (np.linalg.norm(proj, axis=1) <= tol))

    def with_design(self, design: np.ndarray) -> "_RegressionModel":
        """A copy of this model over the rows ``design`` as given: rows past B_X stay unclipped."""
        model = copy.copy(self)
        model.__dict__.pop("_design_outer", None)  # cached products of the old rows
        model.__dict__.pop("_max_row_norm", None)
        model.design = np.atleast_2d(np.asarray(design, dtype=float))
        return model

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
        """Rows past B_X rescaled onto it and labels clipped to [0, 1], so ||y x|| <= B_X."""
        return Dataset(self._clip_features(data.x), data.y.clip(0.0, 1.0))

    def _record_moments(self, Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # expit's formula 1 / (1 + exp(-eta)), in place on numpy's vectorised
        # exp, which is several times faster; an overflowing exp gives p = 0
        b, n = len(Theta), len(self.design)
        P = np.matmul(Theta, self.design.T, out=_workspace(0, b, n))
        np.negative(P, out=P)
        np.exp(P, out=P)
        P += 1.0
        np.reciprocal(P, out=P)
        W = np.subtract(1.0, P, out=_workspace(1, b, n))
        W *= P
        return P, W, np.ones(b, dtype=bool)

    @staticmethod
    def _third_cumulants(P: np.ndarray, W: np.ndarray) -> np.ndarray:
        w3 = np.multiply(P, 2.0, out=_workspace(2, *P.shape))
        np.subtract(1.0, w3, out=w3)
        w3 *= W
        return w3

    def sample(self, theta: np.ndarray, n: int, rng: np.random.Generator) -> Dataset:
        X = self._design_for_sampling(n, rng)
        p = np.negative(X @ np.asarray(theta, dtype=float))
        with np.errstate(over="ignore"):  # the kernel's 1 / (1 + exp(-eta)); overflow gives p = 0
            np.exp(p, out=p)
        p += 1.0
        np.reciprocal(p, out=p)
        y = (rng.random(n) < p).astype(float)
        return Dataset(X.copy(), y)


class PoissonModel(_RegressionModel):
    """Poisson regression with log link; counts capped at B_Y by clipping."""

    model_id = "poisson"

    def __init__(self, design: np.ndarray, B_X: float = 3.0, B_Y: float = 20.0):
        self.clip_bounds = ClipBounds(B=float(B_X) * float(B_Y), B_X=float(B_X), B_Y=float(B_Y))
        super().__init__(design)

    def clip(self, data: Dataset) -> Dataset:
        """Rows past B_X rescaled onto it and counts clipped to [0, B_Y], so ||y x|| <= B_X B_Y."""
        return Dataset(self._clip_features(data.x), data.y.clip(0.0, self.clip_bounds.B_Y))

    def _rates(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # an overflowed rate is inf, past the limit
            lam = np.exp(X @ np.asarray(theta, dtype=float))
        if np.max(lam) > POISSON_RATE_MAX:
            raise MeanOverflowError("mean_overflow")
        return lam

    def _record_moments(self, Theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        eta = np.matmul(Theta, self.design.T, out=_workspace(0, len(Theta), len(self.design)))
        finite = eta.max(axis=1) <= MAX_LOG_RATE
        # rows past the cap are masked out; capping keeps their exp finite
        lam = np.exp(np.minimum(eta, MAX_LOG_RATE, out=eta), out=eta)
        return lam, lam, finite

    @staticmethod
    def _third_cumulants(P: np.ndarray, W: np.ndarray) -> np.ndarray:
        return W  # every cumulant of a Poisson count is its rate

    def sample(self, theta: np.ndarray, n: int, rng: np.random.Generator) -> Dataset:
        X = self._design_for_sampling(n, rng)
        lam = self._rates(theta, X)
        return Dataset(X.copy(), rng.poisson(lam).astype(float))


MODEL_IDS = tuple(cls.model_id for cls in (GaussianMeanModel, LogisticModel, PoissonModel))


# ---------------------------------------------------------------------- #
# Config and CSV I/O
# ---------------------------------------------------------------------- #

def load_model_config(path: str | Path) -> ExpFamModel:
    """Build a model from a JSON config.

    Schema: {model_id, d, sigma0_sq?, clip: {B | B_X, B_Y}, design_csv?}.
    ``design_csv`` is resolved relative to the config file and holds
    headerless rows of d decimal floats; it is parsed once per content and
    then read from the cache of ``_read_design``.  A malformed config raises
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
    design = _read_design(path.parent / cfg["design_csv"])
    if design.shape[1] != d:
        raise ValueError("design column count disagrees with d")
    if len(design) == 0 or not np.isfinite(design).all():
        raise ValueError("design_csv must hold at least one row, all finite")
    if model_id == "logistic":
        return LogisticModel(design, B_X=_positive(clip, "B_X"))
    return PoissonModel(design, B_X=_positive(clip, "B_X"), B_Y=_positive(clip, "B_Y"))


def _read_design(path: Path) -> np.ndarray:
    """The public design CSV at path as np.loadtxt parses it, parsed once per content.

    The parsed array is kept at $XDG_CACHE_HOME/dpss/<sha256 of the CSV's
    bytes>.npy (~/.cache/dpss without that variable), so an edited CSV
    misses.  The bytes are read once, then hashed and, on a miss, parsed,
    so the file cannot change in between.  An entry is written to a
    unique temporary file and renamed into place, so a concurrent reader
    never sees half of one; threads read entries one at a time.  An entry
    that cannot be read or is not a 2-D float64 array, and a cache that
    cannot be written, fall back to the parse.  Only the public design is
    cached, never private records.
    """
    raw = path.read_bytes()
    if not _DATA_LINE.search(raw):
        raise ValueError("design_csv must hold at least one row, all finite")
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.expanduser("~/.cache")
    entry = Path(root, "dpss", hashlib.sha256(raw).hexdigest() + ".npy")
    try:
        with _CACHE_READ:
            design = np.load(entry, allow_pickle=False)
        if design.dtype == np.float64 and design.ndim == 2:
            return design
    except (OSError, ValueError, EOFError):
        pass
    design = _parse_csv(raw)
    with contextlib.suppress(OSError):
        entry.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, design)
            os.replace(tmp, entry)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    return design


# np.load parses a .npy header with ast.literal_eval, which on CPython 3.11 can
# raise SystemError when threads run it at once
_CACHE_READ = threading.Lock()

# a line, ended by \n, \r or both, whose first non-blank byte does not start a
# comment; checked before parsing, as np.loadtxt only warns of a file without one
_DATA_LINE = re.compile(rb"(?:^|[\r\n])[ \t\f\v]*[^#\s]")


def _parse_csv(raw: bytes) -> np.ndarray:
    """The CSV file of bytes raw as np.loadtxt(path, delimiter=",", ndmin=2) parses it.

    Decoded as open() decodes a path, a block at a time, so that no copy of
    the whole text is made.
    """
    return np.loadtxt(io.TextIOWrapper(io.BytesIO(raw)), delimiter=",", ndmin=2)


def _positive(obj: dict, key: str, default: float | None = None) -> float:
    """obj[key] (or the default) as a float; ValueError unless a finite positive number."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < np.inf:
        raise ValueError(f"{key} must be a positive number, got {value!r}")
    return float(value)


def dataset_from_csv(path: str | Path, model: ExpFamModel) -> Dataset:
    """Read a dataset CSV: one column x (gaussian) or d features then y.

    A file with no data line (empty, blank or only # comments) raises
    EmptyDatasetError.  A nan or inf entry, a logistic label other than 0
    or 1, or a negative Poisson count raises ValueError: clipping would hide
    each of them.  The records are private, so unlike the design they are
    parsed on every read and never cached.
    """
    raw = Path(path).read_bytes()
    if not _DATA_LINE.search(raw):
        raise EmptyDatasetError("empty_dataset")
    arr = _parse_csv(raw)
    if not np.isfinite(arr).all():
        raise ValueError("data must be finite; found nan or inf")
    if model.model_id == "gaussian_mean":
        if arr.shape[1] != 1:
            raise ValueError("gaussian data must have exactly one column")
        return Dataset(arr[:, 0])
    if arr.shape[1] != model.d + 1:
        raise ValueError(f"expected {model.d} feature columns plus y")
    y = arr[:, -1]
    if model.model_id == "logistic" and not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("logistic labels must be 0 or 1")
    if model.model_id == "poisson" and (y < 0.0).any():
        raise ValueError("poisson counts must be non-negative")
    return Dataset(arr[:, :-1], y)


def dataset_to_csv(data: Dataset, path: str | Path) -> None:
    """Write the CSV ``dataset_from_csv`` reads: the bytes of np.savetxt(fmt="%.17g").

    One %-format per block of 1024 rows, instead of savetxt's one per row;
    the blocks bound the text and the list of floats held at once.
    """
    if data.y is None:
        arr = data.x.reshape(-1, 1)
    else:
        arr = np.column_stack([data.x, data.y])
    row_fmt = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    with open(path, "w") as fh:
        for lo in range(0, len(arr), 1024):
            block = arr[lo:lo + 1024]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
