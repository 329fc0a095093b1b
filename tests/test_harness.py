import json
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dpss import harness
from dpss.harness import (
    ExperimentConfig,
    MetricsTable,
    crossover_points,
    default_theta0,
    delta_for,
    make_model_and_data,
    mc_se,
    privacy_slope,
    run_clipping_study,
    run_coverage_sweep,
    run_experiment,
    run_power_study,
    run_scaling_study,
    run_variance_validation,
)
from dpss.rng import substream


def tiny_sweep_config(**kw):
    base = dict(
        experiment_id="coverage_sweep",
        model_id="gaussian_mean",
        n_grid=[200],
        epsilon_grid=[1.0],
        replications=8,
        master_seed=99,
        methods=["plugin_wald", "naive_synth"],
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("coverage_sweep", delta_rule="fixed")
    with pytest.raises(ValueError):
        ExperimentConfig("coverage_sweep", replications=1)
    with pytest.raises(ValueError):
        ExperimentConfig("coverage_sweep", n_grid=[])
    for alpha in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig("coverage_sweep", alpha=alpha)
    with pytest.raises(ValueError, match="b_boot"):
        ExperimentConfig("coverage_sweep", b_boot=1)
    for field, value in [("n_grid", [0]), ("n_grid", [100.5]), ("n_grid", [True]),
                         ("epsilon_grid", [0.0]), ("epsilon_grid", [-1.0]),
                         ("epsilon_grid", [math.inf]), ("B_grid", [-1]), ("B_grid", [math.nan]),
                         ("effect_grid", [math.nan]), ("ratios", [0]), ("ratios", [0.004]),
                         ("master_seed", -1), ("master_seed", 1.5), ("replications", 2.5),
                         ("theta0", []), ("theta0", [math.nan]), ("theta0", [1, 2])]:
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{"experiment_id": "coverage_sweep", "n_grid": [100], field: value})
    # a regression model takes a theta0 of any width
    assert ExperimentConfig("coverage_sweep", model_id="logistic", theta0=[1, 2]).theta0 == [1, 2]
    # Poisson rates exp(x . theta0) past numpy's sampler, at x = 1.5 (or 0.2 for a negative entry)
    for theta0 in ([800], [30], [20, 10], [30, -1]):
        with pytest.raises(ValueError, match="theta0"):
            ExperimentConfig("coverage_sweep", model_id="poisson", theta0=theta0)
    for theta0 in ([29], [29, -100]):
        ExperimentConfig("coverage_sweep", model_id="poisson", theta0=theta0)


def test_poisson_theta0_limit_is_the_samplers():
    # the largest accepted theta0 samples; the smallest rejected one is past the sampler
    rng = np.random.default_rng(14)
    make_model_and_data("poisson", np.array([29.0]), 2000, rng)
    with pytest.raises(ValueError, match="lam value too large"):
        make_model_and_data("poisson", np.array([30.0]), 2000, rng)


@pytest.mark.parametrize("experiment_id, model_id", [
    ("variance_validation", "logistic"),
    ("scaling_study", "poisson"),
    ("clipping_study", "gaussian_mean"),  # the default model_id
])
def test_config_rejects_a_model_the_study_does_not_run(experiment_id, model_id):
    with pytest.raises(ValueError, match="runs only"):
        ExperimentConfig(experiment_id, model_id=model_id)


@pytest.mark.parametrize("experiment_id, grid", [
    ("power_study", {"effect_grid": [0.5]}),
    ("synth_eval", {"ratios": [1]}),
])
def test_theta0_defaults_to_the_configured_model(monkeypatch, experiment_id, grid):
    monkeypatch.setenv("DPSS_THREADS", "1")  # the spy sees only cells run in this process
    thetas = []
    make = harness.make_model_and_data
    monkeypatch.setattr(harness, "make_model_and_data",
                        lambda model_id, theta0, *a, **kw: thetas.append(theta0)
                        or make(model_id, theta0, *a, **kw))
    cfg = ExperimentConfig(experiment_id, model_id="logistic", n_grid=[200],
                           epsilon_grid=[1.0], replications=2, master_seed=3, **grid)
    rows = run_experiment(cfg).rows
    assert {row["model"] for row in rows} == {"logistic"}
    assert thetas and all(len(theta) == len(default_theta0("logistic")) for theta in thetas)


def test_config_rejects_unknown_names():
    with pytest.raises(ValueError, match="experiment_id"):
        ExperimentConfig("nonsense")
    with pytest.raises(ValueError, match="model_id"):
        ExperimentConfig("coverage_sweep", model_id="nonsense")
    with pytest.raises(ValueError, match="methods"):
        ExperimentConfig("coverage_sweep", methods=["plugin_wald", "magic"])
    with pytest.raises(ValueError, match="distinct"):  # a repeat would be counted twice
        ExperimentConfig("coverage_sweep", methods=["plugin_wald", "plugin_wald"])


def test_config_json_round_trip():
    cfg = tiny_sweep_config()
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_delta_rule():
    assert delta_for(1000) == 1e-6
    assert delta_for(500) == pytest.approx(4e-6)


def test_mc_se():
    assert mc_se(0.5, 100) == pytest.approx(0.05)
    assert mc_se(0.0, 100) == 0.0


def test_substreams_are_disjoint_and_order_free():
    a = substream(1, "exp", 0, 3).standard_normal(4)
    b = substream(1, "exp", 0, 4).standard_normal(4)
    a2 = substream(1, "exp", 0, 3).standard_normal(4)
    np.testing.assert_array_equal(a, a2)
    assert not np.allclose(a, b)


def test_sweep_deterministic_across_runs():
    cfg = tiny_sweep_config()
    t1 = run_coverage_sweep(cfg)
    t2 = run_coverage_sweep(cfg)
    assert t1.rows == t2.rows


def test_sweep_bit_identical_across_thread_counts():
    cfg = tiny_sweep_config(n_grid=[100, 200])
    with mock.patch.dict(os.environ, {"DPSS_THREADS": "1"}):
        serial = run_coverage_sweep(cfg)
    with mock.patch.dict(os.environ, {"DPSS_THREADS": "3"}):
        threaded = run_coverage_sweep(cfg)
    assert serial.rows == threaded.rows


def test_bootstrap_reuses_the_plugin_estimate(monkeypatch):
    calls = []
    plugin_mle = harness.estimate.plugin_mle
    monkeypatch.setattr(harness.estimate, "plugin_mle",
                        lambda model, rel: calls.append(1) or plugin_mle(model, rel))
    monkeypatch.setenv("DPSS_THREADS", "1")
    cfg = tiny_sweep_config(model_id="logistic", replications=3, b_boot=20,
                            methods=["plugin_wald", "bootstrap"])
    run_coverage_sweep(cfg)
    assert len(calls) == 3  # one plug-in solve per replication, not one per method


def test_noise_aware_reuses_the_plugin_estimate(monkeypatch):
    calls = []
    plugin_mle = harness.estimate.plugin_mle
    monkeypatch.setattr(harness.estimate, "plugin_mle",
                        lambda model, rel: calls.append(1) or plugin_mle(model, rel))
    monkeypatch.setenv("DPSS_THREADS", "1")
    cfg = tiny_sweep_config(model_id="logistic", replications=3,
                            methods=["plugin_wald", "noise_aware_wald"])
    reused = run_coverage_sweep(cfg)
    assert len(calls) == 3  # one plug-in solve per replication, not one per method
    # the same rows as a noise-aware solve that finds its own plug-in start
    monkeypatch.setitem(harness.METHODS, "noise_aware_wald",
                        lambda model, raw, rel, rng, cfg, earlier: harness.estimate.estimate_report(
                            model, rel, "noise_aware", cfg.alpha))
    assert run_coverage_sweep(cfg).rows == reused.rows
    assert len(calls) == 9


def test_every_cell_reports_mc_se_and_delta_rule():
    table = run_coverage_sweep(tiny_sweep_config())
    for row in table.rows:
        assert "mc_se" in row
        assert 0.0 <= row["coverage"] <= 1.0


def test_variance_validation_sentinel_column():
    cfg = ExperimentConfig(
        "variance_validation", n_grid=[200], epsilon_grid=[1.0],
        replications=400, master_seed=5,
    )
    table = run_variance_validation(cfg)
    sentinel = table.select(epsilon=float("inf"))
    assert len(sentinel) == 1
    row = sentinel[0]
    assert row["sigma"] == 0.0
    # emp variance of the clean mean should sit near 1/n
    assert abs(row["emp_variance"] - 1.0 / 200) <= 3 * row["mc_se"]


def test_crossover_and_slope_on_synthetic_rows():
    # hand-built table with mse exactly c/n^2: slope must come out at -2
    rows = []
    for n in (100, 1000, 10000):
        priv = 1e4 / n**2
        rows.append({
            "n": n, "epsilon": 1.0, "mse": priv + 1.0 / n,
            "sampling_var": 1.0 / n, "privacy_var": priv,
            "privacy_dominated": priv > 1.0 / n,
        })
    table = MetricsTable("scaling_study", rows)
    assert crossover_points(table) == {1.0: 10000}
    assert privacy_slope(table, 1.0) == pytest.approx(-2.0, abs=1e-9)


def test_scaling_study_small():
    cfg = ExperimentConfig(
        "scaling_study", n_grid=[100, 1000], epsilon_grid=[5.0],
        replications=50, master_seed=6,
    )
    table = run_scaling_study(cfg)
    assert crossover_points(table)[5.0] == 100
    for row in table.rows:
        assert row["mse"] >= 0.0


def test_desk_scale_ordering_naive_below_plugin():
    cfg = tiny_sweep_config(n_grid=[1000], epsilon_grid=[0.5], replications=200)
    table = run_coverage_sweep(cfg)
    naive = table.value("coverage", method="naive_synth")
    plugin = table.value("coverage", method="plugin_wald")
    assert naive < plugin - 0.10


def test_clipping_study_noise_aware_tracks_plugin():
    cfg = ExperimentConfig(
        "clipping_study", model_id="logistic", n_grid=[1000],
        epsilon_grid=[1.0], B_grid=[3.0], replications=20, master_seed=7,
    )
    table = run_clipping_study(cfg)
    plug = table.value("bias_abs", method="plugin")
    na = table.value("bias_abs", method="noise_aware")
    assert na == pytest.approx(plug, abs=1e-6)


def test_power_study_includes_null_cell():
    cfg = ExperimentConfig(
        "power_study", n_grid=[500], epsilon_grid=[1.0],
        effect_grid=[0.5], replications=40, master_seed=8,
        methods=["plugin_wald", "nonprivate"],
    )
    table = run_power_study(cfg)
    effects = sorted({row["delta_effect"] for row in table.rows})
    assert effects == [0.0, 0.5]
    # a half-sigma shift at n=500 is essentially always detected
    assert table.value("rejection_rate", method="nonprivate", delta_effect=0.5) > 0.9


def test_run_experiment_writes_outputs(tmp_path):
    cfg = tiny_sweep_config()
    run_experiment(cfg, tmp_path)
    assert (tmp_path / "coverage_sweep.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["master_seed"] == 99
    import hashlib

    assert manifest["config_sha256"] == hashlib.sha256(cfg.to_json().encode()).hexdigest()


def test_run_experiment_unknown_id():
    cfg = tiny_sweep_config()
    cfg.experiment_id = "nonsense"
    with pytest.raises(ValueError):
        run_experiment(cfg)


# rows recorded from the harness before it became one replication pipeline:
# one small config per experiment id
GOLDEN = json.loads(Path(__file__).with_name("golden_rows.json").read_text())
# same tolerances as the benchmark's reference check
ESTIMATE_RTOL = 1e-5
ESTIMATE_COLUMNS = {"emp_variance", "avg_ci_length", "mse", "bias_abs"}
RATE_COLUMNS = {"coverage", "rejection_rate"}


@pytest.mark.parametrize("case", GOLDEN, ids=[c["config"]["experiment_id"] for c in GOLDEN])
def test_golden_rows(case):
    cfg = ExperimentConfig(**case["config"])
    rows, want = run_experiment(cfg).rows, case["rows"]
    assert [list(row) for row in rows] == [list(row) for row in want]  # key order too
    if cfg.model_id == "gaussian_mean":
        # bit for bit, so the experiment CSVs are byte-identical
        assert json.dumps(rows) == json.dumps(want)
        return
    for got, ref in zip(rows, want):
        for col, b in ref.items():
            a = got[col]
            if col in RATE_COLUMNS:
                assert abs(a - b) <= 1.0 / cfg.replications + 1e-12, col
            elif col in ESTIMATE_COLUMNS:
                assert abs(a - b) <= ESTIMATE_RTOL * abs(b), col
            elif col == "mc_se":
                assert a == pytest.approx(math.sqrt(got["coverage"] * (1 - got["coverage"])
                                                    / cfg.replications), abs=1e-12)
            else:
                assert a == b, col
