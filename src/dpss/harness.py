"""Deterministic Monte Carlo experiment runner.

Reproduces the simulation studies at configurable scale: variance
validation, coverage sweeps, the clipping study, the scaling law, the
power study, and the synthetic-data evaluation.

Every study is one entry of ``STUDIES``: the function that makes a cell's
rows, the grids whose product are its cells, and the model it is fixed to,
if any.  Each cell runs one replication pipeline, ``_replications``:
replication r of cell c draws the substream
(master_seed, experiment_id, c, r), makes the model and raw data, and
releases their clipped mean once, with noise.  Everything after the release is
post-processing: the estimators the studies compare come from one
registry, ``METHODS``, and each study only reduces their reports to its
rows.  Tables are bit-identical regardless of thread count;
DPSS_THREADS > 1 fans the cells out over processes, at most one per cell.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import numbers
import os
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import estimate, synthgen
from .expfam import (MODEL_IDS, POISSON_RATE_MAX, Dataset, ExpFamModel, GaussianMeanModel,
                     LogisticModel, PoissonModel)
from .privacy import PrivacyBudget, release
from .rng import substream

# True parameters and data scales for the simulation studies, chosen to
# keep means interior and Poisson counts almost always below the count cap.
GAUSS_THETA0 = np.array([1.0])
GAUSS_SIGMA0_SQ = 1.0
GAUSS_B = 5.0
GAUSS_MODEL = GaussianMeanModel(GAUSS_SIGMA0_SQ, B=GAUSS_B)
LOGISTIC_THETA0 = np.array([0.5, -0.5, 0.3, -0.3, 0.2])
# equal-magnitude coefficients for the clipping study: with a tiny
# coefficient, clipping bias never clears the CI half-width and the
# low-B coverage collapse cannot be observed
CLIPPING_THETA0 = np.array([0.5, -0.5, 0.5, -0.5, 0.5])
LOGISTIC_B_X = 3.0
POISSON_THETA0 = np.array([0.5])
POISSON_B_X = 3.0
POISSON_B_Y = 20.0
POISSON_X_RANGE = (0.2, 1.5)  # positive exposure-like covariate

DEFAULT_METHODS = ("nonprivate", "plugin_wald", "noise_aware_wald", "bootstrap", "naive_synth")
POWER_METHODS = ("plugin_wald", "nonprivate", "naive_synth")
# clipping-study row label -> method
CLIPPING_METHODS = {"plugin": "plugin_wald", "noise_aware": "noise_aware_wald"}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_positive(value) -> bool:
    return _is_finite(value) and value > 0


@dataclass
class ExperimentConfig:
    experiment_id: str
    model_id: str = "gaussian_mean"
    n_grid: list = field(default_factory=lambda: [100, 500, 1000, 5000])
    epsilon_grid: list = field(default_factory=lambda: [0.1, 0.5, 1.0, 5.0, 10.0])
    B_grid: list | None = None
    replications: int = 1000
    master_seed: int = 20240817
    theta0: list | None = None
    effect_grid: list | None = None
    ratios: list | None = None
    methods: list | None = None
    b_boot: int = 500
    alpha: float = 0.05

    def __post_init__(self):
        if self.experiment_id not in STUDIES:
            raise ValueError(f"unknown experiment_id {self.experiment_id!r}")
        if self.model_id not in MODEL_IDS:
            raise ValueError(f"unknown model_id {self.model_id!r}")
        study_model = STUDIES[self.experiment_id][2] or self.model_id
        if self.model_id != study_model:
            raise ValueError(f"{self.experiment_id} runs only model_id {study_model!r}")
        # None is the study's default; an empty list would silently run it too
        for name in ("methods", "B_grid", "effect_grid", "ratios"):
            if getattr(self, name) is not None and len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be nonempty, or null for the study's default")
        methods = list(self.methods or ())
        if any(m not in METHODS for m in methods) or len(set(methods)) < len(methods):
            raise ValueError(f"methods must be distinct names from {list(METHODS)}: {methods}")
        if not _is_int(self.replications) or self.replications < 2:
            raise ValueError("need at least 2 replications")
        if not self.n_grid or not self.epsilon_grid:
            raise ValueError("grids must be nonempty")
        if not all(_is_int(n) and n >= 1 for n in self.n_grid):
            raise ValueError(f"n_grid entries must be positive integers: {self.n_grid}")
        for name in ("epsilon_grid", "B_grid"):
            if not all(_is_positive(v) for v in getattr(self, name) or ()):
                raise ValueError(f"{name} entries must be finite positive numbers")
        # the synth study draws round(ratio * n) synthetic records
        if not all(_is_positive(r) and round(r * n) >= 1 for r in self.ratios or () for n in self.n_grid):
            raise ValueError("each entry of ratios must give round(ratio * n) >= 1 synthetic records")
        if not all(_is_finite(e) for e in self.effect_grid or ()):
            raise ValueError("effect_grid entries must be finite numbers")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ValueError("master_seed must be a non-negative integer")
        if self.theta0 is not None:
            if len(self.theta0) == 0 or not all(_is_finite(t) for t in self.theta0):
                raise ValueError("theta0 must be a nonempty list of finite numbers")
            if self.model_id == "gaussian_mean" and len(self.theta0) != 1:
                raise ValueError("theta0 of gaussian_mean must have one entry")
            if self.model_id == "poisson":
                # the largest log-rate x . theta0 over the covariate box POISSON_X_RANGE^d
                log_rate = sum(max(t * x for x in POISSON_X_RANGE) for t in self.theta0)
                with np.errstate(over="ignore"):
                    if np.exp(log_rate) > POISSON_RATE_MAX:
                        raise ValueError(f"theta0 of poisson gives rates up to exp({log_rate:g}), "
                                         f"past the sampler's limit {POISSON_RATE_MAX:.4g}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not _is_int(self.b_boot) or self.b_boot < 2:
            raise ValueError("b_boot must be at least 2")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json.loads(text))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class MetricsTable:
    experiment: str
    rows: list[dict]

    def to_csv(self, path: str | Path) -> None:
        cols = list(dict.fromkeys(key for row in self.rows for key in row))  # in first-seen order
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            writer.writerows(self.rows)

    def select(self, **conditions) -> list[dict]:
        return [row for row in self.rows if all(row.get(k) == v for k, v in conditions.items())]

    def value(self, column: str, **conditions) -> float:
        rows = self.select(**conditions)
        if len(rows) != 1:
            raise KeyError(f"expected one row for {conditions}, got {len(rows)}")
        return rows[0][column]


def delta_for(n: int) -> float:
    return 1.0 / n**2


def mc_se(p: float, trials: int) -> float:
    return float(np.sqrt(max(p * (1.0 - p), 0.0) / trials))


def default_theta0(model_id: str) -> np.ndarray:
    return {
        "gaussian_mean": GAUSS_THETA0,
        "logistic": LOGISTIC_THETA0,
        "poisson": POISSON_THETA0,
    }[model_id].copy()


def make_model_and_data(
    model_id: str,
    theta0: np.ndarray,
    n: int,
    rng: np.random.Generator,
    B: float | None = None,
) -> tuple[ExpFamModel, Dataset]:
    """Fresh raw data (and, for regressions, a fresh design) at theta0.

    ``B`` overrides the clip scale: the truncation half-width for the
    gaussian model, the feature-norm radius for logistic.  The model's own
    sampler draws the outcomes over the raw (unclipped) design rows, so they
    come from the raw covariates; the returned model holds the clipped
    design, and the DP pipeline clips the records.
    """
    if model_id == "gaussian_mean":
        # the model holds no data, so the default one serves every replication
        model = GaussianMeanModel(GAUSS_SIGMA0_SQ, B=B) if B is not None else GAUSS_MODEL
        return model, model.sample(theta0, n, rng)
    if model_id == "logistic":
        X = rng.standard_normal((n, len(theta0)))
        model = LogisticModel(X, B_X=B if B is not None else LOGISTIC_B_X)
    elif model_id == "poisson":
        X = rng.uniform(POISSON_X_RANGE[0], POISSON_X_RANGE[1], (n, len(theta0)))
        model = PoissonModel(X, B_X=POISSON_B_X, B_Y=POISSON_B_Y)
    else:
        raise ValueError(f"unknown model_id {model_id!r}")
    return model, model.with_design(X).sample(theta0, n, rng)


# ------------------------------------------------------------------ #
# The replication pipeline and the method registry
# ------------------------------------------------------------------ #

def _replications(cfg, idx, model_id, theta, n, eps, B=None):
    """Yield (model, raw, rel, rng) for each replication of cell ``idx``.

    ``rel`` is the release of the n unclipped records ``raw``.  ``eps=None``
    is the no-noise sentinel (epsilon = infinity): the release then adds zero
    noise and records no budget.  Lazy, so a cell holds one replication's
    data at a time.
    """
    budget = PrivacyBudget(eps, delta_for(n)) if eps is not None else None
    for r in range(cfg.replications):
        rng = substream(cfg.master_seed, cfg.experiment_id, idx, r)
        model, raw = make_model_and_data(model_id, theta, n, rng, B=B)
        yield model, raw, release(raw, model, budget, rng), rng


def _plugin_theta(model, rel, earlier) -> np.ndarray:
    """The plug-in estimate, reusing plugin_wald's if it ran on this replication."""
    plugin = earlier.get("plugin_wald")
    return plugin.theta_hat if plugin is not None else estimate.plugin_mle(model, rel)


def _naive_synth(model, raw, rel, rng, cfg, earlier):
    # synthetic data from the plug-in estimate
    plug = _plugin_theta(model, rel, earlier)
    syn = synthgen.generate_synthetic(model, plug, rel.n, rng)
    return synthgen.naive_analysis(model, syn, cfg.alpha)


# method name -> fn(model, raw, rel, rng, cfg, earlier) -> EstimateReport, where
# ``earlier`` holds the reports already made on the same replication
METHODS = {
    "nonprivate": lambda model, raw, rel, rng, cfg, earlier: estimate.nonprivate_mle(
        model, raw, cfg.alpha
    ),
    "plugin_wald": lambda model, raw, rel, rng, cfg, earlier: estimate.estimate_report(
        model, rel, "plugin", cfg.alpha
    ),
    "noise_aware_wald": lambda model, raw, rel, rng, cfg, earlier: estimate.estimate_report(
        model, rel, "noise_aware", cfg.alpha, theta_plug=_plugin_theta(model, rel, earlier)
    ),
    "bootstrap": lambda model, raw, rel, rng, cfg, earlier: estimate.parametric_bootstrap(
        model, rel, estimate.BootstrapConfig(cfg.b_boot, cfg.alpha), rng,
        theta_hat=_plugin_theta(model, rel, earlier),
    ),
    "naive_synth": _naive_synth,
}


def _run_methods(methods, model, raw, rel, rng, cfg) -> dict:
    """Each method's report on one replication, run in the given order."""
    reports: dict = {}
    for method in methods:
        reports[method] = METHODS[method](model, raw, rel, rng, cfg, reports)
    return reports


def _theta0(cfg, default) -> np.ndarray:
    return np.asarray(cfg.theta0 if cfg.theta0 is not None else default, dtype=float)


def _row(cfg, model_id, cols, se=None) -> dict:
    row = {"experiment": cfg.experiment_id, "model": model_id, **cols}
    row["replications"] = cfg.replications
    if se is not None:
        row["mc_se"] = se
    return row


def _accuracy(theta0, replications, cfg) -> dict:
    """Coverage, CI length, MSE and |bias| of each method over one cell.

    ``replications`` yields one {method: EstimateReport} per replication.
    """
    acc: dict = {}
    for reports in replications:
        for method, report in reports.items():
            a = acc.setdefault(method, [0.0, 0.0, 0.0, np.zeros(len(theta0))])
            lo, hi = np.array(report.cis).T
            err = np.asarray(report.theta_hat) - theta0
            a[0] += ((lo <= theta0) & (theta0 <= hi)).mean()
            a[1] += (hi - lo).mean()
            a[2] += float(err @ err)
            a[3] += err
    R = cfg.replications
    return {
        method: {
            "coverage": cover / R,
            "avg_ci_length": length / R,
            "mse": sqerr / R,
            "bias_abs": float(np.linalg.norm(err / R)),
        }
        for method, (cover, length, sqerr, err) in acc.items()
    }


def _gaussian_estimates(cfg, idx, n, eps):
    """(theta0, plug-in estimate per replication, sigma) of one Gaussian cell."""
    theta0 = _theta0(cfg, GAUSS_THETA0)
    estimates = np.empty(cfg.replications)
    for r, (model, _, rel, _) in enumerate(_replications(cfg, idx, cfg.model_id, theta0, n, eps)):
        estimates[r] = estimate.plugin_mle(model, rel)[0]
    return theta0, estimates, rel.sigma


def _run_cells(cfg, cell_fn, *grids) -> tuple[MetricsTable, int]:
    """Rows of cell_fn(cfg, idx, *cell) for the cells of the product of the grids,
    and the number of processes that ran them: DPSS_THREADS, but at most one per cell.

    A DPSS_THREADS that is not a positive integer raises ValueError.
    """
    cells = list(itertools.product(*grids))
    args = ([cfg] * len(cells), range(len(cells)), *zip(*cells))
    value = os.environ.get("DPSS_THREADS", "1")
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"DPSS_THREADS must be a positive integer, got {value!r}")
    threads = min(threads, len(cells))  # cells map in order, so the rows do not depend on it
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(cell_fn, *args))
    else:
        results = list(map(cell_fn, *args))
    return MetricsTable(cfg.experiment_id, [row for rows in results for row in rows]), threads


# ------------------------------------------------------------------ #
# Experiment 1: variance inflation validation
# ------------------------------------------------------------------ #

def _variance_cell(cfg, idx, n, eps):
    _, estimates, sigma = _gaussian_estimates(cfg, idx, n, eps)
    emp = float(np.var(estimates, ddof=1))
    i0 = GAUSS_SIGMA0_SQ
    theory = 1.0 / (i0 * n) + sigma**2 / i0**2
    cols = {
        "n": n,
        "epsilon": eps if eps is not None else float("inf"),
        "sigma": sigma,
        "emp_variance": emp,
        "theory_variance": theory,
        "rel_error": abs(emp - theory) / theory,
    }
    # variance of a sample variance of (approx) gaussians: var ~ 2 v^2/(R-1)
    return [_row(cfg, cfg.model_id, cols, float(theory * np.sqrt(2.0 / (cfg.replications - 1))))]


# ------------------------------------------------------------------ #
# Experiment 2: coverage across the privacy spectrum
# ------------------------------------------------------------------ #

def _coverage_cell(cfg, idx, n, eps):
    theta0 = _theta0(cfg, default_theta0(cfg.model_id))
    methods = cfg.methods or DEFAULT_METHODS
    acc = _accuracy(theta0, (
        _run_methods(methods, *rep, cfg)
        for rep in _replications(cfg, idx, cfg.model_id, theta0, n, eps)
    ), cfg)
    return [
        _row(cfg, cfg.model_id, {"method": m, "n": n, "epsilon": eps, **acc[m]},
             mc_se(acc[m]["coverage"], cfg.replications))
        for m in methods
    ]


# ------------------------------------------------------------------ #
# Experiment 3: plug-in vs noise-aware under clipping
# ------------------------------------------------------------------ #

def _clipping_cell(cfg, idx, B):
    theta0 = _theta0(cfg, CLIPPING_THETA0)
    n, eps = cfg.n_grid[0], cfg.epsilon_grid[0]
    acc = _accuracy(theta0, (
        _run_methods(CLIPPING_METHODS.values(), *rep, cfg)
        for rep in _replications(cfg, idx, cfg.model_id, theta0, n, eps, B)
    ), cfg)
    rows = []
    for label, method in CLIPPING_METHODS.items():
        a = acc[method]
        cols = {"method": label, "n": n, "epsilon": eps, "B": B,
                "bias_abs": a["bias_abs"], "mse": a["mse"], "coverage": a["coverage"]}
        rows.append(_row(cfg, cfg.model_id, cols, mc_se(a["coverage"], cfg.replications)))
    return rows


# ------------------------------------------------------------------ #
# Experiment 4: scaling law validation
# ------------------------------------------------------------------ #

def _scaling_cell(cfg, idx, n, eps):
    theta0, estimates, sigma = _gaussian_estimates(cfg, idx, n, eps)
    sqerr = np.add.accumulate((estimates - theta0[0]) ** 2)[-1]  # summed in replication order
    sampling_var = 1.0 / n
    privacy_var = sigma**2
    cols = {
        "n": n,
        "epsilon": eps,
        "mse": sqerr / cfg.replications,
        "theory_mse": sampling_var + privacy_var,
        "sampling_var": sampling_var,
        "privacy_var": privacy_var,
        "privacy_dominated": privacy_var > sampling_var,
    }
    return [_row(cfg, cfg.model_id, cols)]


def crossover_points(table: MetricsTable) -> dict:
    """First grid n per epsilon at which privacy variance <= sampling variance, or None."""
    by_eps: dict[float, list[dict]] = {}
    for row in table.rows:
        by_eps.setdefault(row["epsilon"], []).append(row)
    return {eps: next((row["n"] for row in sorted(rows, key=lambda r: r["n"])
                       if not row["privacy_dominated"]), None)
            for eps, rows in by_eps.items()}


def privacy_slope(table: MetricsTable, eps: float) -> float:
    """Log-log slope of the privacy component of the MSE against n.

    The sampling variance (known in closed form for this model) is
    subtracted before fitting, since even on the privacy-dominated
    segment it flattens the raw-MSE slope noticeably.
    """
    pts = [
        (row["n"], row["mse"] - row["sampling_var"])
        for row in table.select(epsilon=eps)
        if row["privacy_dominated"] and row["mse"] > row["sampling_var"]
    ]
    if len(pts) < 2:
        raise ValueError("privacy-dominated segment has fewer than 2 points")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


# ------------------------------------------------------------------ #
# Experiment 5: type-I error and power
# ------------------------------------------------------------------ #

def _power_cell(cfg, idx, eps, effect):
    theta0 = _theta0(cfg, default_theta0(cfg.model_id))
    n = cfg.n_grid[0]
    methods = cfg.methods or POWER_METHODS
    rejects = dict.fromkeys(methods, 0.0)
    for rep in _replications(cfg, idx, cfg.model_id, theta0 + effect, n, eps):
        for method, report in _run_methods(methods, *rep, cfg).items():
            tests = estimate.wald_test(report.theta_hat, report.variance, theta0, cfg.alpha)
            rejects[method] += np.mean([t["reject"] for t in tests])
    rows = []
    for method in methods:
        rate = rejects[method] / cfg.replications
        cols = {"method": method, "n": n, "epsilon": eps, "delta_effect": effect,
                "rejection_rate": rate, "is_type1": effect == 0.0}
        rows.append(_row(cfg, cfg.model_id, cols, mc_se(rate, cfg.replications)))
    return rows


# ------------------------------------------------------------------ #
# Experiment 7: synthetic-data inferential evaluation
# ------------------------------------------------------------------ #

def _synth_reports(model, raw, rel, rng, cfg, n_syn):
    direct = METHODS["plugin_wald"](model, raw, rel, rng, cfg, {})
    syn = synthgen.generate_synthetic(model, direct.theta_hat, n_syn, rng)
    return {
        "direct": direct,
        "noise_aware_synth": synthgen.noise_aware_synth_analysis(model, syn, rel, cfg.alpha),
        "naive_synth": synthgen.naive_analysis(model, syn, cfg.alpha),
    }


def _synth_cell(cfg, idx, ratio):
    theta0 = _theta0(cfg, default_theta0(cfg.model_id))
    n, eps = cfg.n_grid[0], cfg.epsilon_grid[0]
    n_syn = int(round(ratio * n))
    acc = _accuracy(theta0, (
        _synth_reports(*rep, cfg, n_syn)
        for rep in _replications(cfg, idx, cfg.model_id, theta0, n, eps)
    ), cfg)
    rows = []
    for mode, a in acc.items():
        cols = {"method": mode, "n": n, "epsilon": eps, "ratio": ratio, "n_syn": n_syn,
                "coverage": a["coverage"]}
        rows.append(_row(cfg, cfg.model_id, cols, mc_se(a["coverage"], cfg.replications)))
    return rows


# ------------------------------------------------------------------ #
# Dispatch and output
# ------------------------------------------------------------------ #

# experiment_id -> (cell function, cfg -> the grids whose product are the cells,
# the one model_id the study runs or None for any); a grid that a config leaves
# as None takes the default written here
STUDIES = {
    "variance_validation": (_variance_cell, lambda cfg: (cfg.n_grid, [*cfg.epsilon_grid, None]),
                            "gaussian_mean"),
    "coverage_sweep": (_coverage_cell, lambda cfg: (cfg.n_grid, cfg.epsilon_grid), None),
    "clipping_study": (_clipping_cell, lambda cfg: (cfg.B_grid or [0.5, 1.0, 2.0, 3.0, 5.0, 10.0],),
                       "logistic"),
    "scaling_study": (_scaling_cell, lambda cfg: (cfg.n_grid, cfg.epsilon_grid), "gaussian_mean"),
    "power_study": (_power_cell,
                    lambda cfg: (cfg.epsilon_grid, [0.0, *(cfg.effect_grid or [0.1, 0.2, 0.5, 1.0])]),
                    None),
    "synth_eval": (_synth_cell, lambda cfg: (cfg.ratios or [1, 5, 10, 50],), None),
}


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> MetricsTable:
    """Run the study cfg names and return its metrics table.

    With out_dir, also write <experiment_id>.csv and manifest.json there: the
    config and its SHA-256, the master seed, the dpss version, the number of
    processes that ran the cells (DPSS_THREADS, capped at one per cell) and
    the Python, numpy and scipy versions.  The table does not depend on the
    thread count.  An unknown experiment_id or a DPSS_THREADS that is not a
    positive integer raises ValueError.
    """
    try:
        cell, grids, _ = STUDIES[cfg.experiment_id]
    except KeyError:
        raise ValueError(f"unknown experiment_id {cfg.experiment_id!r}") from None
    if out_dir is not None:  # before any replication, so that an unwritable path fails at once
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    table, threads = _run_cells(cfg, cell, *grids(cfg))
    if out_dir is not None:
        table.to_csv(out_dir / f"{cfg.experiment_id}.csv")
        from . import __version__

        cfg_json = cfg.to_json()
        manifest = {
            "experiment_id": cfg.experiment_id,
            "config": json.loads(cfg_json),
            "config_sha256": hashlib.sha256(cfg_json.encode()).hexdigest(),
            "master_seed": cfg.master_seed,
            "version": __version__,
            "DPSS_THREADS": threads,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return table
