import json
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.special import expit

from dpss import harness
from dpss.expfam import Dataset, LogisticModel, MeanOverflowError, PoissonModel
from dpss.harness import (
    ExperimentConfig,
    MetricsTable,
    crossover_points,
    default_theta0,
    delta_for,
    make_model_and_data,
    mc_se,
    privacy_slope,
    run_experiment,
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
    with pytest.raises(TypeError, match="delta_rule"):  # delta is always 1/n^2
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
                         ("theta0", []), ("theta0", [math.nan]), ("theta0", [1, 2]),
                         # None runs the study's default; an empty list is an error
                         ("methods", []), ("B_grid", []), ("effect_grid", []), ("ratios", [])]:
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
    with pytest.raises(MeanOverflowError, match="mean_overflow"):
        make_model_and_data("poisson", np.array([30.0]), 2000, rng)


def _inline_draws(model_id, theta0, n, rng, B=None):
    """The regression draws as make_model_and_data wrote them out before sampling through the models."""
    if model_id == "logistic":
        X = rng.standard_normal((n, len(theta0)))
        model = LogisticModel(X, B_X=B if B is not None else harness.LOGISTIC_B_X)
        y = (rng.random(n) < expit(X @ theta0)).astype(float)
    else:
        X = rng.uniform(harness.POISSON_X_RANGE[0], harness.POISSON_X_RANGE[1], (n, len(theta0)))
        model = PoissonModel(X, B_X=harness.POISSON_B_X, B_Y=harness.POISSON_B_Y)
        y = rng.poisson(np.exp(X @ theta0)).astype(float)
    return model, Dataset(X, y)


@pytest.mark.parametrize("n", [7, 100, 1000])
@pytest.mark.parametrize("model_id, theta0, B", [
    ("logistic", harness.LOGISTIC_THETA0, None),
    ("logistic", harness.CLIPPING_THETA0, 0.5),
    ("poisson", harness.POISSON_THETA0, None),
    ("poisson", np.array([0.5, -0.3, 0.2]), None),
], ids=["logistic", "logistic-B", "poisson-d1", "poisson-d3"])
def test_make_model_and_data_matches_the_inline_draws(model_id, theta0, B, n):
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    model, raw = make_model_and_data(model_id, theta0, n, rng, B=B)
    ref_model, ref = _inline_draws(model_id, theta0, n, ref_rng, B)
    # bit for bit: the outcomes come from the raw rows, and the model holds the clipped ones
    for got, want in [(raw.x, ref.x), (raw.y, ref.y), (model.design, ref_model.design)]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert model.clip_bounds == ref_model.clip_bounds
    assert rng.random(4).tobytes() == ref_rng.random(4).tobytes()  # the same generator state


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


def test_substream_rejects_a_negative_key():
    with pytest.raises(ValueError, match="non-negative"):
        substream(0, -1)


def test_sweep_deterministic_across_runs():
    cfg = tiny_sweep_config()
    t1 = run_experiment(cfg)
    t2 = run_experiment(cfg)
    assert t1.rows == t2.rows


def test_sweep_bit_identical_across_thread_counts():
    cfg = tiny_sweep_config(n_grid=[100, 200])
    with mock.patch.dict(os.environ, {"DPSS_THREADS": "1"}):
        serial = run_experiment(cfg)
    with mock.patch.dict(os.environ, {"DPSS_THREADS": "3"}):
        threaded = run_experiment(cfg)
    assert serial.rows == threaded.rows


def test_bootstrap_reuses_the_plugin_estimate(monkeypatch):
    calls = []
    plugin_mle = harness.estimate.plugin_mle
    monkeypatch.setattr(harness.estimate, "plugin_mle",
                        lambda model, rel: calls.append(1) or plugin_mle(model, rel))
    monkeypatch.setenv("DPSS_THREADS", "1")
    cfg = tiny_sweep_config(model_id="logistic", replications=3, b_boot=20,
                            methods=["plugin_wald", "bootstrap"])
    run_experiment(cfg)
    assert len(calls) == 3  # one plug-in solve per replication, not one per method


def test_noise_aware_reuses_the_plugin_estimate(monkeypatch):
    calls = []
    plugin_mle = harness.estimate.plugin_mle
    monkeypatch.setattr(harness.estimate, "plugin_mle",
                        lambda model, rel: calls.append(1) or plugin_mle(model, rel))
    monkeypatch.setenv("DPSS_THREADS", "1")
    cfg = tiny_sweep_config(model_id="logistic", replications=3,
                            methods=["plugin_wald", "noise_aware_wald"])
    reused = run_experiment(cfg)
    assert len(calls) == 3  # one plug-in solve per replication, not one per method
    # the same rows as a noise-aware solve that finds its own plug-in start
    monkeypatch.setitem(harness.METHODS, "noise_aware_wald",
                        lambda model, raw, rel, rng, cfg, earlier: harness.estimate.estimate_report(
                            model, rel, "noise_aware", cfg.alpha))
    assert run_experiment(cfg).rows == reused.rows
    assert len(calls) == 9


def test_every_cell_reports_mc_se():
    table = run_experiment(tiny_sweep_config())
    for row in table.rows:
        assert "mc_se" in row
        assert 0.0 <= row["coverage"] <= 1.0


def test_nonprivate_oracle_covers_on_records_past_the_clip_bound():
    # about 10.7% of the logistic rows exceed B_X = 3; the oracle is the classical MLE of
    # the raw records over their own rows, so it covers at the nominal level (an oracle
    # that re-clipped the rows covered 0.822 here)
    cfg = ExperimentConfig("coverage_sweep", model_id="logistic", n_grid=[10000],
                           epsilon_grid=[1.0], replications=200, master_seed=31,
                           methods=["nonprivate"])
    (row,) = run_experiment(cfg).rows
    assert row["coverage"] >= 0.95 - 3 * row["mc_se"]


def test_variance_validation_sentinel_column():
    cfg = ExperimentConfig(
        "variance_validation", n_grid=[200], epsilon_grid=[1.0],
        replications=400, master_seed=5,
    )
    table = run_experiment(cfg)
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
    table = run_experiment(cfg)
    assert crossover_points(table)[5.0] == 100
    for row in table.rows:
        assert row["mse"] >= 0.0


def test_desk_scale_ordering_naive_below_plugin():
    cfg = tiny_sweep_config(n_grid=[1000], epsilon_grid=[0.5], replications=200)
    table = run_experiment(cfg)
    naive = table.value("coverage", method="naive_synth")
    plugin = table.value("coverage", method="plugin_wald")
    assert naive < plugin - 0.10


def test_clipping_study_noise_aware_tracks_plugin():
    cfg = ExperimentConfig(
        "clipping_study", model_id="logistic", n_grid=[1000],
        epsilon_grid=[1.0], B_grid=[3.0], replications=20, master_seed=7,
    )
    table = run_experiment(cfg)
    plug = table.value("bias_abs", method="plugin")
    na = table.value("bias_abs", method="noise_aware")
    assert na == pytest.approx(plug, abs=1e-6)


def test_power_study_includes_null_cell():
    cfg = ExperimentConfig(
        "power_study", n_grid=[500], epsilon_grid=[1.0],
        effect_grid=[0.5], replications=40, master_seed=8,
        methods=["plugin_wald", "nonprivate"],
    )
    table = run_experiment(cfg)
    effects = sorted({row["delta_effect"] for row in table.rows})
    assert effects == [0.0, 0.5]
    # a half-sigma shift at n=500 is essentially always detected
    assert table.value("rejection_rate", method="nonprivate", delta_effect=0.5) > 0.9


def test_run_experiment_writes_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("DPSS_THREADS", "4")
    cfg = tiny_sweep_config()
    run_experiment(cfg, tmp_path)
    assert (tmp_path / "coverage_sweep.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["master_seed"] == 99
    import hashlib
    import platform

    import scipy

    assert manifest["config_sha256"] == hashlib.sha256(cfg.to_json().encode()).hexdigest()
    # the software and the pool that made the table; one cell runs in this process
    assert manifest["DPSS_THREADS"] == 1
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that maps in this process and records its size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_the_pool_never_outgrows_its_cells(tmp_path, monkeypatch):
    # a huge thread count, but the recording stand-in starts no process
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setenv("DPSS_THREADS", str(10**6))
    cfg = tiny_sweep_config(n_grid=[100, 200], epsilon_grid=[1.0], replications=3)
    pooled = run_experiment(cfg, tmp_path)
    assert RecordingPool.sizes == [2]  # one worker per cell
    assert json.loads((tmp_path / "manifest.json").read_text())["DPSS_THREADS"] == 2
    monkeypatch.setenv("DPSS_THREADS", "1")
    assert run_experiment(cfg).rows == pooled.rows
    assert RecordingPool.sizes == [2]  # one thread needs no pool


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_threads_that_are_not_a_positive_integer_raise(monkeypatch, value):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setenv("DPSS_THREADS", value)
    with pytest.raises(ValueError, match="DPSS_THREADS must be a positive integer"):
        run_experiment(tiny_sweep_config())
    assert RecordingPool.sizes == []


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
