"""Sensitivity accounting and the one-shot Gaussian release.

``release`` takes the records: it clips each to the model's bound B, then
averages and counts them, so the sensitivity is D = 2B/n by construction.
sigma is the analytic Gaussian mechanism's (Balle and Wang, ICML 2018): the
smallest sigma such that

    Phi(D/(2 sigma) - eps sigma / D) - e^eps Phi(-D/(2 sigma) - eps sigma / D) <= delta,

found by one bisection on ``verify_agm_condition``, the achieved delta, which
keeps its accuracy at tiny eps where the two Phi nearly cancel; so the sigma
found meets the condition and is tight there too.  The classical bound sigma =
D sqrt(2 ln(1.25/delta)) / eps, valid only for eps <= 1, is the initial
bracket; where it overflows, at eps below about 5e-308, sigma is its eps -> 0
limit.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import erfcx, erfinv, log_ndtr, ndtr

from .expfam import MODEL_IDS, Dataset, ExpFamModel


class InvalidBudgetError(ValueError):
    """A budget, sensitivity or calibrated sigma that no release can use."""


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise InvalidBudgetError("invalid_budget: epsilon must be positive and finite")
        if not (0.0 < self.delta < 1.0):
            raise InvalidBudgetError("invalid_budget: delta must lie in (0, 1)")


@dataclass
class ReleasedStatistic:
    """The noisy statistic plus its public metadata.

    This is the only object that crosses the privacy wall; everything
    downstream is post-processing of it.
    """

    s_tilde: np.ndarray
    sigma: float
    n: int
    d: int
    B: float
    budget: PrivacyBudget | None  # None only for a noise-free (sigma = 0) sentinel
    model_id: str
    seed_tag: str | None = None

    def __post_init__(self):
        self.s_tilde = np.asarray(self.s_tilde, dtype=float)
        if self.s_tilde.ndim != 1 or len(self.s_tilde) != self.d:
            raise ValueError("s_tilde must be a vector of d entries")
        # per entry in Python: cheaper than np.isfinite(...).all() on a few entries,
        # and a release is made once per Monte Carlo replication
        if not all(map(math.isfinite, self.s_tilde.tolist())):
            raise ValueError("s_tilde must be finite")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and non-negative")
        if self.budget is None and self.sigma != 0:
            raise ValueError("a release with noise needs a privacy budget")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.n > sys.float_info.max:  # an int compares exactly, without a conversion
            raise ValueError("n must be within the float range")
        if not (math.isfinite(self.B) and self.B > 0):
            raise ValueError("B must be finite and positive")
        if self.model_id not in MODEL_IDS:
            raise ValueError(f"unknown model_id {self.model_id!r}")

    def to_json(self) -> str:
        """The artifact; a noise-free release writes null for epsilon and delta."""
        payload = {
            "model_id": self.model_id,
            "d": self.d,
            "n": self.n,
            "B": self.B,
            "epsilon": None if self.budget is None else self.budget.epsilon,
            "delta": None if self.budget is None else self.budget.delta,
            "sigma": self.sigma,
            "s_tilde": list(self.s_tilde),
        }
        if self.seed_tag is not None:
            payload["seed_tag"] = self.seed_tag
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ReleasedStatistic":
        """Parse a release artifact; any malformed or missing field raises ValueError."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("release must be a JSON object")
        missing = sorted(_RELEASE_FIELDS - obj.keys())
        if missing:
            raise ValueError(f"release is missing {', '.join(missing)}")
        for key, kind in _RELEASE_FIELDS.items():
            if isinstance(obj[key], bool) or not isinstance(obj[key], kind):
                raise ValueError(f"release field {key!r} has the wrong type")
        if (obj["epsilon"] is None) != (obj["delta"] is None):
            raise ValueError("release epsilon and delta must be null together")
        try:
            budget = None if obj["epsilon"] is None else PrivacyBudget(obj["epsilon"], obj["delta"])
            return cls(
                s_tilde=np.array(obj["s_tilde"], dtype=float),
                sigma=obj["sigma"],
                n=obj["n"],
                d=obj["d"],
                B=obj["B"],
                budget=budget,
                model_id=obj["model_id"],
                seed_tag=obj.get("seed_tag"),
            )
        except (TypeError, OverflowError) as exc:  # non-numeric entries, ints beyond float range
            raise ValueError(f"malformed release: {exc}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ReleasedStatistic":
        return cls.from_json(Path(path).read_text())


# required fields of a release artifact and their JSON types (no budget: both null)
_RELEASE_FIELDS = {
    "model_id": str,
    "d": int,
    "n": int,
    "B": (int, float),
    "epsilon": (int, float, type(None)),
    "delta": (int, float, type(None)),
    "sigma": (int, float),
    "s_tilde": list,
}


def l2_sensitivity(B: float, n: int) -> float:
    """L2 sensitivity of the mean statistic: changing one record moves it by at most 2B/n."""
    if B <= 0 or n < 1:
        raise ValueError("need B > 0 and n >= 1")
    return 2.0 * B / n


def verify_agm_condition(sigma: float, delta2: float, epsilon: float) -> float:
    """Achieved delta of the Gaussian mechanism at noise scale sigma.

    With h = delta2 / (2 sigma) and m = eps sigma / delta2 it is
    [Phi(h - m) - Phi(-h - m)] - expm1(eps) Phi(-h - m).  Where h max(1, m) < 0.01
    (which needs eps < 0.02) the two Phi nearly cancel: their difference, the normal
    mass of [m - h, m + h], is then 2 h phi(m) times its Taylor series about m (next
    term < 1e-14), and Phi(-h - m) = phi(m) sqrt(pi/2) erfcx((h + m)/sqrt(2)) e^(-h(m + h/2)),
    so the two terms are subtracted as multiples of phi(m).  Elsewhere it is
    Phi(h - m) - e^eps Phi(-h - m) as written.
    """
    h = delta2 / (2.0 * sigma)
    m = epsilon * sigma / delta2
    if h * max(1.0, m) >= 1e-2:
        # e^eps * Phi(-h - m) in log space to dodge overflow at large eps
        return float(ndtr(h - m) - math.exp(epsilon + log_ndtr(-h - m)))
    m2, h2 = m * m, h * h
    series = 1.0 + (m2 - 1.0) * h2 / 6.0 + (m2 * m2 - 6.0 * m2 + 3.0) * h2 * h2 / 120.0
    tail = math.sqrt(0.5 * math.pi) * float(erfcx((h + m) / math.sqrt(2.0)))
    tail *= math.exp(-h * (m + 0.5 * h))
    phi = math.exp(-0.5 * m2) / math.sqrt(2.0 * math.pi)
    return phi * (2.0 * h * series - math.expm1(epsilon) * tail)


def classical_gaussian_sigma(delta2: float, epsilon: float, delta: float) -> float:
    """The sqrt(2 ln(1.25/delta))/eps bound; valid for eps <= 1, used as a bracket."""
    return delta2 * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


@functools.lru_cache(maxsize=4096)
def _calibrate_unit(epsilon: float, delta: float) -> float:
    # sigma for unit sensitivity; the general answer scales linearly
    hi = classical_gaussian_sigma(1.0, epsilon, delta)
    if not math.isfinite(hi):  # eps below about 5e-308
        # sigma at eps = 0, where erf(1 / (2 sqrt(2) sigma)) = delta: an upper bound, larger
        # than sigma by a factor of about 1 + eps sigma, which no bisection could resolve
        return 1.0 / (2.0 * math.sqrt(2.0) * float(erfinv(delta)))
    while verify_agm_condition(hi, 1.0, epsilon) > delta:
        hi *= 2.0  # classical bound only covers eps <= 1
    # bisect to the least sigma that meets the condition, to a relative 1e-12
    lo = 1e-12
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if verify_agm_condition(mid, 1.0, epsilon) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def calibrate_agm(delta2: float, budget: PrivacyBudget) -> float:
    """Smallest sigma making the Gaussian mechanism (eps, delta)-DP at sensitivity delta2.

    Raises InvalidBudgetError unless the sensitivity and sigma are positive and finite.
    """
    if not (0 < delta2 < math.inf):  # nan fails both comparisons
        raise InvalidBudgetError("invalid_budget: sensitivity must be positive and finite")
    sigma = delta2 * _calibrate_unit(budget.epsilon, budget.delta)
    if not math.isfinite(sigma):
        raise InvalidBudgetError("invalid_budget: sigma is not finite")
    return sigma


def release(data: Dataset, model: ExpFamModel, budget: PrivacyBudget | None,
            rng: np.random.Generator, seed_tag: str | None = None) -> ReleasedStatistic:
    """One-shot Gaussian release of the clipped mean sufficient statistic of ``data``.

    Every record is clipped to the model's bound B and n is the number of
    records, so one record moves the mean by at most D = 2B/n; sigma is the
    AGM calibration of D for the budget.  ``budget=None`` is the noise-free
    sentinel (epsilon = infinity): sigma = 0, and the d normals are still
    drawn, so the rng advances as for a noisy release.
    """
    s_bar = model.mean_suff_stat(model.clip(data))
    B, n = model.clip_bounds.B, data.n
    sigma = 0.0 if budget is None else calibrate_agm(l2_sensitivity(B, n), budget)
    z = sigma * rng.standard_normal(model.d)
    return ReleasedStatistic(s_bar + z, sigma, n, model.d, B, budget, model.model_id, seed_tag)
