"""Acceptance suite: end-to-end reproduction targets at full scale.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (bypassing capture) so the run leaves an auditable one-line verdict
per criterion.  The heavy Monte Carlo fixtures are module-scoped and
shared; everything is deterministic given the master seed below.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from dpss import estimate
from dpss.expfam import Dataset, GaussianMeanModel, LogisticModel, PoissonModel
from dpss.harness import (
    ExperimentConfig,
    crossover_points,
    privacy_slope,
    run_experiment,
)
from dpss.privacy import PrivacyBudget, calibrate_agm, release, verify_agm_condition
from dpss.rng import substream

MASTER_SEED = 271828

os.environ.setdefault("DPSS_THREADS", str(min(8, os.cpu_count() or 1)))


def verdict(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def cfg_for(experiment_id, **kw):
    base = dict(experiment_id=experiment_id, master_seed=MASTER_SEED)
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------ fixtures

@pytest.fixture(scope="module")
def variance_table():
    return run_experiment(cfg_for(
        "variance_validation", n_grid=[100, 500, 1000, 5000],
        epsilon_grid=[0.1, 0.5, 1.0, 5.0, 10.0], replications=5000,
    ))


@pytest.fixture(scope="module")
def gaussian_sweep():
    return run_experiment(cfg_for(
        "coverage_sweep", model_id="gaussian_mean", n_grid=[1000],
        epsilon_grid=[0.1, 0.5, 1.0, 5.0, 10.0], replications=1000,
        methods=["plugin_wald", "naive_synth"],
    ))


@pytest.fixture(scope="module")
def bootstrap_sweep():
    return run_experiment(cfg_for(
        "coverage_sweep", model_id="gaussian_mean", n_grid=[1000],
        epsilon_grid=[0.5, 1.0], replications=1000, methods=["bootstrap"],
    ))


@pytest.fixture(scope="module")
def model_sweeps():
    tables = {}
    for model_id in ("gaussian_mean", "logistic", "poisson"):
        tables[model_id] = run_experiment(cfg_for(
            "coverage_sweep", model_id=model_id, n_grid=[1000],
            epsilon_grid=[0.1, 0.5, 1.0], replications=500,
            methods=["plugin_wald", "naive_synth"],
        ))
    return tables


@pytest.fixture(scope="module")
def clipping_table():
    return run_experiment(cfg_for(
        "clipping_study", model_id="logistic", n_grid=[1000], epsilon_grid=[1.0],
        B_grid=[0.5, 1.0, 2.0, 3.0, 5.0, 10.0], replications=500,
    ))


@pytest.fixture(scope="module")
def scaling_table():
    return run_experiment(cfg_for(
        "scaling_study", n_grid=[100, 500, 1000, 5000, 10000, 50000, 100000],
        epsilon_grid=[0.5, 1.0, 2.0, 5.0], replications=600,
    ))


@pytest.fixture(scope="module")
def power_table():
    return run_experiment(cfg_for(
        "power_study", n_grid=[1000], epsilon_grid=[1.0], effect_grid=[0.1, 0.2],
        replications=2000, methods=["plugin_wald", "nonprivate", "naive_synth"],
    ))


@pytest.fixture(scope="module")
def synth_table():
    return run_experiment(cfg_for(
        "synth_eval", n_grid=[1000], epsilon_grid=[1.0], ratios=[1, 5, 10, 50],
        replications=1000,
    ))


# ------------------------------------------------------------------ criteria

def test_criterion_01_variance_inflation(variance_table):
    rows = [r for r in variance_table.rows if np.isfinite(r["epsilon"])]
    assert len(rows) == 20
    emp = np.array([r["emp_variance"] for r in rows])
    theory = np.array([r["theory_variance"] for r in rows])
    corr = np.corrcoef(np.log(emp), np.log(theory))[0, 1]
    max_rel = float(np.max(np.abs(emp - theory) / theory))
    ok = corr >= 0.9999 and max_rel <= 0.05
    verdict(1, ok, f"20-cell variance agreement: corr={corr:.7f} (>=0.9999), "
                   f"max rel err={max_rel:.4f} (<=0.05), 5000 reps")


def test_criterion_02_table1_row(gaussian_sweep, bootstrap_sweep):
    eps_grid = [0.1, 0.5, 1.0, 5.0, 10.0]
    plugin_targets = [0.950, 0.947, 0.951, 0.950, 0.955]
    naive_targets = [0.146, 0.499, 0.679, 0.848, 0.831]
    plugin = [gaussian_sweep.value("coverage", epsilon=e, method="plugin_wald")
              for e in eps_grid]
    naive = [gaussian_sweep.value("coverage", epsilon=e, method="naive_synth")
             for e in eps_grid]
    boot = [bootstrap_sweep.value("coverage", epsilon=e, method="bootstrap")
            for e in (0.5, 1.0)]
    ok_plugin = all(abs(p - t) <= 0.02 for p, t in zip(plugin, plugin_targets))
    ok_naive = all(abs(p - t) <= 0.05 for p, t in zip(naive, naive_targets))
    ok_boot = all(abs(b - 0.945) <= 0.02 for b in boot)
    ok = ok_plugin and ok_naive and ok_boot
    verdict(2, ok, f"table-1 row: plugin={[round(p, 3) for p in plugin]} (+-0.02), "
                   f"naive={[round(p, 3) for p in naive]} (+-0.05), "
                   f"bootstrap={[round(b, 3) for b in boot]} (0.945+-0.02)")


def test_criterion_03_calibrated_vs_naive_separation(model_sweeps):
    gaps, plugin_mins = [], []
    ok = True
    for model_id, table in model_sweeps.items():
        for eps in (0.1, 0.5, 1.0):
            plug = table.value("coverage", epsilon=eps, method="plugin_wald")
            naive = table.value("coverage", epsilon=eps, method="naive_synth")
            gaps.append(plug - naive)
            if plug - naive < 0.10:
                ok = False
            if model_id in ("gaussian_mean", "logistic"):
                plugin_mins.append(plug)
                if plug < 0.90:
                    ok = False
    verdict(3, ok, f"separation: min gap={min(gaps):.3f} (>=0.10), "
                   f"min gaussian/logistic plugin coverage={min(plugin_mins):.3f} (>=0.90)")


def test_criterion_04_poisson_low_eps_undercoverage():
    table = run_experiment(cfg_for(
        "coverage_sweep", model_id="poisson", n_grid=[500], epsilon_grid=[0.1],
        replications=1000, methods=["plugin_wald"],
    ))
    cov = table.value("coverage", method="plugin_wald")
    ok = 0.70 <= cov <= 0.85
    verdict(4, ok, f"poisson (n=500, eps=0.1) plugin coverage={cov:.3f} in [0.70, 0.85]")


def test_criterion_05_clipping_u_shape(clipping_table):
    t = clipping_table
    bias_05 = t.value("bias_abs", B=0.5, method="plugin")
    bias_3 = t.value("bias_abs", B=3.0, method="plugin")
    cov_05 = t.value("coverage", B=0.5, method="plugin")
    cov_hi = min(t.value("coverage", B=5.0, method="plugin"),
                 t.value("coverage", B=10.0, method="plugin"))
    ratio = bias_05 / bias_3
    # noise-aware may not beat plug-in bias by more than Monte Carlo noise
    na_ok = True
    for B in (0.5, 1.0, 2.0, 3.0, 5.0, 10.0):
        plug = t.value("bias_abs", B=B, method="plugin")
        na = t.value("bias_abs", B=B, method="noise_aware")
        se = 2.0 * t.value("mc_se", B=B, method="plugin")
        if plug - na > max(se, 1e-6):
            na_ok = False
    ok = ratio >= 5 and cov_05 <= 0.2 and cov_hi >= 0.90 and na_ok
    verdict(5, ok, f"clipping: bias ratio B=0.5/B=3 = {ratio:.1f} (>=5), "
                   f"coverage(B=0.5)={cov_05:.3f} (<=0.2), min coverage(B in 5,10)={cov_hi:.3f} "
                   f"(>=0.90), noise-aware tracks plugin: {na_ok}")


def test_criterion_06_scaling_law(scaling_table):
    want = {5.0: 100, 2.0: 500, 1.0: 5000, 0.5: 10000}
    got = {e: crossover_points(scaling_table)[e] for e in want}
    slope = privacy_slope(scaling_table, 0.5)
    big_n_ok = True
    for eps in (1.0, 2.0, 5.0):
        mse = scaling_table.value("mse", n=100000, epsilon=eps)
        if abs(mse - 1e-5) > 0.2 * 1e-5:
            big_n_ok = False
    ok = got == want and -2.3 <= slope <= -1.7 and big_n_ok
    verdict(6, ok, f"scaling: crossovers={got} (want {want}), "
                   f"slope={slope:.3f} in [-2.3, -1.7], large-n within 20% of 1/n: {big_n_ok}")


def test_criterion_07_type1_and_power(power_table):
    t = power_table
    t1_plug = t.value("rejection_rate", method="plugin_wald", delta_effect=0.0)
    t1_naive = t.value("rejection_rate", method="naive_synth", delta_effect=0.0)
    p01 = t.value("rejection_rate", method="plugin_wald", delta_effect=0.1)
    p02 = t.value("rejection_rate", method="plugin_wald", delta_effect=0.2)
    ok = (abs(t1_plug - 0.0385) <= 0.015 and t1_naive >= 0.20
          and abs(p01 - 0.481) <= 0.05 and abs(p02 - 0.967) <= 0.03)
    verdict(7, ok, f"tests at eps=1: plugin type-I={t1_plug:.4f} (0.0385+-0.015), "
                   f"naive type-I={t1_naive:.3f} (>=0.20), power(0.1)={p01:.3f} "
                   f"(0.481+-0.05), power(0.2)={p02:.3f} (0.967+-0.03)")


def test_criterion_08_synthetic_data_eval(synth_table):
    ratios = [1, 5, 10, 50]
    naive_targets = [0.685, 0.391, 0.282, 0.136]
    direct = [synth_table.value("coverage", ratio=r, method="direct") for r in ratios]
    naive = [synth_table.value("coverage", ratio=r, method="naive_synth") for r in ratios]
    aware = [synth_table.value("coverage", ratio=r, method="noise_aware_synth")
             for r in ratios]
    ok = (all(abs(c - 0.952) <= 0.02 for c in direct)
          and all(abs(c - t) <= 0.05 for c, t in zip(naive, naive_targets))
          and all(naive[i + 1] < naive[i] for i in range(3))
          and all(0.92 <= c <= 0.98 for c in aware))
    verdict(8, ok, f"synth eval: direct={[round(c, 3) for c in direct]} (0.952+-0.02), "
                   f"naive={[round(c, 3) for c in naive]} (targets +-0.05, decreasing), "
                   f"noise-aware={[round(c, 3) for c in aware]} (in [0.92, 0.98])")


def test_criterion_09_property_suites():
    ok = True
    notes = []
    # AGM tightness and scale equivariance
    for eps in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for delta in (1e-4, 1e-6, 1e-8):
            budget = PrivacyBudget(eps, delta)
            for d2 in (1e-3, 1.0, 10.0):
                sigma = calibrate_agm(d2, budget)
                ach = verify_agm_condition(sigma, d2, eps)
                if not (delta * (1 - 1e-6) <= ach <= delta):
                    ok, _ = False, notes.append("agm tightness")
            unit = calibrate_agm(1.0, budget)
            if abs(calibrate_agm(7.0, budget) - 7.0 * unit) > 1e-9 * 7.0 * unit:
                ok, _ = False, notes.append("agm equivariance")
    # Fisher vs finite differences and inverse round trips
    rng = np.random.default_rng(5)
    models = [
        GaussianMeanModel(1.3),
        LogisticModel(rng.standard_normal((60, 3))),
        PoissonModel(rng.uniform(0.1, 1.0, (60, 2))),
    ]
    for model in models:
        for _ in range(20):
            th = rng.uniform(-1.5, 1.5, model.d)
            h, d = 1e-5, model.d
            fd = np.empty((d, d))
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[:, j] = (model.grad_log_partition(th + e)
                            - model.grad_log_partition(th - e)) / (2 * h)
            if not np.allclose(model.fisher_info(th), fd, rtol=1e-5, atol=1e-8):
                ok, _ = False, notes.append("fisher fd")
            back, _ = model.inverse_mean_map(model.grad_log_partition(th))
            if not np.allclose(back, th, atol=1e-6):
                ok, _ = False, notes.append("inverse round trip")
    # clipping idempotence and bounds
    lg = models[1]
    raw = Dataset(5 * rng.standard_normal((100, 3)), rng.integers(0, 2, 100).astype(float))
    once, twice = lg.clip(raw), lg.clip(lg.clip(raw))
    if not (np.array_equal(once.x, twice.x)
            and np.linalg.norm(lg.suff_stats(once), axis=1).max() <= lg.clip_bounds.B + 1e-12):
        ok, _ = False, notes.append("clipping")
    # sigma=0 triple equality
    model = GaussianMeanModel(1.0, B=6.0)
    data = model.clip(model.sample(np.array([0.8]), 500, substream(MASTER_SEED, "triple")))
    rel = release(data, model, None, substream(MASTER_SEED, "triple", 1))
    plug = estimate.plugin_mle(model, rel)[0]
    na = estimate.noise_aware_mle(model, rel)[0]
    clean = estimate.nonprivate_mle(model, data, 0.05).theta_hat
    if not (np.allclose(plug, na, atol=1e-6) and np.allclose(plug, clean, atol=1e-6)):
        ok, _ = False, notes.append("sigma=0 equality")
    # determinism across thread counts
    cfg = cfg_for("coverage_sweep", n_grid=[100, 200], epsilon_grid=[1.0],
                  replications=6, methods=["plugin_wald"])
    saved = os.environ["DPSS_THREADS"]
    try:
        os.environ["DPSS_THREADS"] = "1"
        serial = run_experiment(cfg)
        os.environ["DPSS_THREADS"] = "4"
        threaded = run_experiment(cfg)
    finally:
        os.environ["DPSS_THREADS"] = saved
    if serial.rows != threaded.rows:
        ok, _ = False, notes.append("thread determinism")
    verdict(9, ok, "property suites: agm grid, fisher FD, inverse round trips, "
                   "clipping, sigma=0 equality, thread determinism"
                   + (f"; failed: {sorted(set(notes))}" if notes else ""))


def test_criterion_10_bundled_csv_end_to_end():
    data_dir = Path(__file__).resolve().parents[1] / "src" / "dpss" / "data"
    meta = json.loads((data_dir / "logistic_10k.json").read_text())
    arr = np.loadtxt(data_dir / "logistic_10k.csv", delimiter=",")
    theta0 = np.array(meta["theta0"])
    n = 1000
    covers = []
    for r in range(200):
        rng = substream(MASTER_SEED, "bundled", r)
        idx = rng.choice(len(arr), size=n, replace=False)
        X, y = arr[idx, :-1], arr[idx, -1]
        model = LogisticModel(X, B_X=meta["B_X"])
        rel = release(Dataset(X, y), model, PrivacyBudget(1.0, 1.0 / n**2), rng)
        report = estimate.estimate_report(model, rel, "plugin", 0.05)
        covers.append(np.mean([lo <= t <= hi for (lo, hi), t in zip(report.cis, theta0)]))
    cov = float(np.mean(covers))
    ok = cov >= 0.90
    verdict(10, ok, f"bundled 10k logistic CSV, 200 subsample releases at eps=1: "
                    f"plugin coverage={cov:.3f} (>=0.90)")
