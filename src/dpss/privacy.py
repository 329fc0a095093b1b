"""Sensitivity accounting and the one-shot Gaussian release.

The noise scale is the exact analytic-Gaussian-mechanism calibration: the
smallest sigma such that

    Phi(D/(2 sigma) - eps sigma / D) - e^eps Phi(-D/(2 sigma) - eps sigma / D) <= delta

for sensitivity D, found by bisection.  This is tighter than the classical
sigma = D sqrt(2 ln(1.25/delta)) / eps bound, which is only valid for
eps <= 1 and serves here as the initial bracket.  Where it overflows, at
eps below about 5e-308, sigma is its eps -> 0 limit, an upper bound.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import erfinv, log_ndtr, ndtr

from .expfam import MODEL_IDS, ExpFamModel


class SensitivityViolatedError(ValueError):
    """The statistic handed to release exceeds the declared clip bound."""


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("invalid_budget: epsilon must be positive and finite")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("invalid_budget: delta must lie in (0, 1)")


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
        if not (math.isfinite(self.B) and self.B > 0):
            raise ValueError("B must be finite and positive")
        if self.model_id not in MODEL_IDS:
            raise ValueError(f"unknown model_id {self.model_id!r}")

    def to_json(self) -> str:
        payload = {
            "model_id": self.model_id,
            "d": self.d,
            "n": self.n,
            "B": self.B,
            "epsilon": self.budget.epsilon,
            "delta": self.budget.delta,
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
        try:
            return cls(
                s_tilde=np.array(obj["s_tilde"], dtype=float),
                sigma=obj["sigma"],
                n=obj["n"],
                d=obj["d"],
                B=obj["B"],
                budget=PrivacyBudget(obj["epsilon"], obj["delta"]),
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


# required fields of a release artifact and their JSON types
_RELEASE_FIELDS = {
    "model_id": str,
    "d": int,
    "n": int,
    "B": (int, float),
    "epsilon": (int, float),
    "delta": (int, float),
    "sigma": (int, float),
    "s_tilde": list,
}


def l2_sensitivity(B: float, n: int) -> float:
    """L2 sensitivity of the mean statistic: changing one record moves it by at most 2B/n."""
    if B <= 0 or n < 1:
        raise ValueError("need B > 0 and n >= 1")
    return 2.0 * B / n


def verify_agm_condition(sigma: float, delta2: float, epsilon: float) -> float:
    """Achieved delta of the Gaussian mechanism at noise scale sigma."""
    a = delta2 / (2.0 * sigma)
    b = epsilon * sigma / delta2
    # e^eps * Phi(-a - b) in log space to dodge overflow at large eps
    return float(ndtr(a - b) - math.exp(epsilon + log_ndtr(-a - b)))


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

    Raises ValueError unless the sensitivity and sigma are positive and finite.
    """
    if not (0 < delta2 < math.inf):  # nan fails both comparisons
        raise ValueError("sensitivity must be positive and finite")
    sigma = delta2 * _calibrate_unit(budget.epsilon, budget.delta)
    if not math.isfinite(sigma):
        raise ValueError("sigma is not finite")
    return sigma


def release(
    s_bar: np.ndarray,
    model: ExpFamModel,
    n: int,
    budget: PrivacyBudget | None,
    rng: np.random.Generator,
    seed_tag: str | None = None,
) -> ReleasedStatistic:
    """One-shot Gaussian release of the mean sufficient statistic.

    sigma is the AGM calibration for the budget.  ``budget=None`` is the
    noise-free sentinel (epsilon = infinity): sigma = 0, and the d normals
    are still drawn, so the rng advances as for a noisy release.
    """
    s_bar = np.asarray(s_bar, dtype=float)
    B = model.clip_bounds.B
    # the L2 norm, by np.linalg.norm's own formula without its call overhead
    if math.sqrt(np.vdot(s_bar, s_bar)) > B * (1.0 + 1e-12):
        raise SensitivityViolatedError("sensitivity_violated")
    sigma = 0.0 if budget is None else calibrate_agm(l2_sensitivity(B, n), budget)
    z = sigma * rng.standard_normal(model.d)
    return ReleasedStatistic(
        s_tilde=s_bar + z,
        sigma=sigma,
        n=n,
        d=model.d,
        B=B,
        budget=budget,
        model_id=model.model_id,
        seed_tag=seed_tag,
    )
