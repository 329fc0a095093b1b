import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dpss
from dpss import estimate, harness, synthgen
from dpss.cli import main
from dpss.estimate import BootstrapUnstableError, FisherSingularError
from dpss.expfam import MeanOverflowError, NumericalError, SolverDivergedError
from dpss.privacy import PrivacyBudget, ReleasedStatistic, calibrate_agm
from test_estimate import near_duplicate_design

runner = CliRunner()


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "model.json").write_text(
        '{"model_id": "gaussian_mean", "d": 1, "sigma0_sq": 1.0, "clip": {"B": 5.0}}\n'
    )
    (tmp_path / "data.csv").write_text("0.2\n-0.2\n")
    return tmp_path


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args])


def test_cli_start_up_imports_no_scipy_optimizer():
    # scipy.optimize, and the linalg and sparse it pulls in, cost every fresh process ~0.2 s
    env = dict(os.environ, PYTHONPATH=str(Path(dpss.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, dpss.cli; print(*sys.modules, sep='\\n')"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    loaded = set(out.stdout.split())
    assert "dpss.cli" in loaded
    assert not loaded & {"scipy.optimize", "scipy.linalg", "scipy.sparse"}


# --------------------------------------------------------------- calibrate

def test_calibrate_matches_library():
    res = invoke("calibrate", "--sensitivity", 1.0, "--epsilon", 1.0, "--delta", 1e-6)
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["sigma"] == pytest.approx(calibrate_agm(1.0, PrivacyBudget(1.0, 1e-6)))
    assert out["achieved_delta"] <= 1e-6


def test_calibrate_scale_equivariant():
    unit = json.loads(invoke("calibrate", "--sensitivity", 1, "--epsilon", 1,
                             "--delta", 1e-6).output)["sigma"]
    small = json.loads(invoke("calibrate", "--sensitivity", 0.006, "--epsilon", 1,
                              "--delta", 1e-6).output)["sigma"]
    assert small == pytest.approx(0.006 * unit, rel=1e-9)


def test_calibrate_invalid_budget_exits_2():
    res = invoke("calibrate", "--sensitivity", 1, "--epsilon", -1, "--delta", 1e-6)
    assert res.exit_code == 2
    assert "invalid_budget" in res.output


@pytest.mark.parametrize("sensitivity", ["inf", "nan", "-inf"])
def test_calibrate_non_finite_sensitivity_exits_2(sensitivity):
    # it used to print {"sigma": Infinity, ...} or NaN, which is not JSON, and exit 0
    res = invoke("calibrate", "--sensitivity", sensitivity, "--epsilon", 1, "--delta", 1e-6)
    assert res.exit_code == 2
    assert res.output.strip() == "invalid_budget"


def test_calibrate_sigma_past_the_float_range_exits_2():
    # sigma is about 4e5 times the sensitivity here; it used to print {"sigma": Infinity}
    # and exit 0
    res = invoke("calibrate", "--sensitivity", 1e308, "--epsilon", 1e-300, "--delta", 1e-6)
    assert res.exit_code == 2
    assert res.output.strip() == "invalid_budget"


def test_calibrate_where_the_classical_bound_overflows_is_finite():
    # the classical bound, the bisection's first bracket, is inf below eps of about 5e-308,
    # while the AGM sigma tends to a finite limit as eps -> 0
    res = invoke("calibrate", "--sensitivity", 1, "--epsilon", 1e-308, "--delta", 1e-6)
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["sigma"] == pytest.approx(calibrate_agm(1.0, PrivacyBudget(1e-300, 1e-6)), rel=1e-9)
    assert out["achieved_delta"] <= 1e-6


def huge_bound_release(workdir, B, *extra):
    (workdir / "huge.json").write_text(json.dumps(
        {"model_id": "gaussian_mean", "d": 1, "sigma0_sq": 1.0, "clip": {"B": B}}))
    return invoke("release", "--data", workdir / "data.csv", "--model", workdir / "huge.json",
                  "--epsilon", 1e-310, "--delta", 1e-6, "--out", workdir / "rel.json", *extra)


def test_release_at_an_epsilon_whose_classical_bound_overflows(workdir):
    # it used to end in "ValueError: s_tilde must be finite" with exit 1
    res = huge_bound_release(workdir, 1e300)
    assert res.exit_code == 0
    rel = ReleasedStatistic.load(workdir / "rel.json")
    assert rel.sigma == pytest.approx(1e300 * calibrate_agm(1.0, PrivacyBudget(1e-300, 1e-6)),
                                      rel=1e-9)


def test_release_whose_sigma_is_not_finite_exits_2(workdir):
    res = huge_bound_release(workdir, 1e305)
    assert res.exit_code == 2
    assert "invalid_budget" in res.output
    assert not (workdir / "rel.json").exists()


def test_release_whose_noisy_statistic_is_not_finite_exits_3(workdir):
    # sigma is finite, near the largest float; the seed-1 draw of 2.1 takes the noise past it
    res = huge_bound_release(workdir, 4.5e302, "--seed", 1)
    assert res.exit_code == 3
    assert "error: cannot release: s_tilde must be finite" in res.output
    assert not (workdir / "rel.json").exists()


# ----------------------------------------------------------------- release

def test_release_takes_no_sigma_override(workdir):
    # an artifact with a budget but no noise would be a false privacy claim
    res = invoke("release", "--data", workdir / "data.csv", "--model", workdir / "model.json",
                 "--epsilon", 1.0, "--seed", 3, "--out", workdir / "rel.json",
                 "--sigma-override", 0.0)
    assert res.exit_code == 2
    assert "--sigma-override" in res.output
    assert not (workdir / "rel.json").exists()


def test_release_negative_seed_exits_2(workdir):
    res = invoke("release", "--data", workdir / "data.csv", "--model", workdir / "model.json",
                 "--epsilon", 1.0, "--seed", -1, "--out", workdir / "rel.json")
    assert res.exit_code == 2
    assert "--seed" in res.output
    assert not (workdir / "rel.json").exists()


def test_release_delta_that_is_not_a_number_exits_2(workdir):
    res = invoke("release", "--data", workdir / "data.csv", "--model", workdir / "model.json",
                 "--epsilon", 1.0, "--delta", "abc", "--out", workdir / "rel.json")
    assert res.exit_code == 2
    assert "delta must be a number or 'auto'" in res.output
    assert not (workdir / "rel.json").exists()


def test_release_auto_delta_is_one_over_n_sq(workdir):
    rows = "\n".join(["0.1"] * 1000)
    (workdir / "big.csv").write_text(rows + "\n")
    res = invoke("release", "--data", workdir / "big.csv", "--model", workdir / "model.json",
                 "--epsilon", 1.0, "--seed", 1, "--out", workdir / "rel.json")
    assert res.exit_code == 0
    rel = json.loads((workdir / "rel.json").read_text())
    assert rel["delta"] == 1e-6
    assert rel["n"] == 1000


def test_release_byte_identical_given_seed(workdir):
    args = ("release", "--data", workdir / "data.csv", "--model", workdir / "model.json",
            "--epsilon", 1.0, "--seed", 42)
    invoke(*args, "--out", workdir / "a.json")
    invoke(*args, "--out", workdir / "b.json")
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()


def test_release_missing_data_exits_3(workdir):
    res = invoke("release", "--data", workdir / "nope.csv", "--model", workdir / "model.json",
                 "--epsilon", 1.0, "--out", workdir / "rel.json")
    assert res.exit_code == 3


def test_release_to_a_missing_directory_exits_3(workdir):
    res = invoke("release", "--data", workdir / "data.csv", "--model", workdir / "model.json",
                 "--epsilon", 1.0, "--out", workdir / "nodir" / "rel.json")
    assert res.exit_code == 3
    assert "error: cannot write" in res.output


def test_malformed_model_config_exits_3(workdir):
    write_release(workdir)
    (workdir / "bad_model.json").write_text('{"model_id": "gaussian_mean", "d": 1, "clip": 5}')
    res = invoke("estimate", "--release", workdir / "rel.json",
                 "--model", workdir / "bad_model.json")
    assert res.exit_code == 3
    assert "cannot load model config" in res.output


def test_release_schema_mismatch_exits_3(workdir):
    (workdir / "bad.csv").write_text("1.0,2.0,3.0\n")
    res = invoke("release", "--data", workdir / "bad.csv", "--model", workdir / "model.json",
                 "--epsilon", 1.0, "--out", workdir / "rel.json")
    assert res.exit_code == 3


def test_release_data_of_the_wrong_width_exits_3(workdir):
    np.savetxt(workdir / "design.csv", np.eye(5), delimiter=",")
    (workdir / "m.json").write_text(json.dumps(
        {"model_id": "logistic", "d": 5, "clip": {"B_X": 3.0}, "design_csv": "design.csv"}))
    (workdir / "bad.csv").write_text("1.0,0.0,0.0,0.0,1\n0.0,1.0,0.0,0.0,0\n")  # 4 features plus y
    res = invoke("release", "--data", workdir / "bad.csv", "--model", workdir / "m.json",
                 "--epsilon", 1.0, "--out", workdir / "rel.json")
    assert res.exit_code == 3
    assert "error: cannot read data: expected 5 feature columns plus y" in res.output
    assert not (workdir / "rel.json").exists()


# a model config and a two-row data CSV with one {bad} entry, per model
NON_FINITE_DATA = {
    "gaussian_mean": ({"model_id": "gaussian_mean", "d": 1, "clip": {"B": 5.0}},
                      "0.2\n{bad}\n"),
    "logistic": ({"model_id": "logistic", "d": 2, "clip": {"B_X": 3.0},
                  "design_csv": "design.csv"}, "1.0,0.0,1\n-0.5,0.0,{bad}\n"),
    "poisson": ({"model_id": "poisson", "d": 2, "clip": {"B_X": 3.0, "B_Y": 20.0},
                 "design_csv": "design.csv"}, "1.0,{bad},2\n-0.5,0.0,0\n"),
}


# data CSVs whose outcome lies outside the support, with the error each gives
OUT_OF_SUPPORT_DATA = {
    "logistic": [("1.0,0.0,1\n-0.5,0.0,1000\n", "logistic labels must be 0 or 1"),
                 ("1.0,0.0,0.5\n-0.5,0.0,0\n", "logistic labels must be 0 or 1")],
    "poisson": [("1.0,0.0,-1e6\n-0.5,0.0,0\n", "poisson counts must be non-negative")],
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("model_id", list(NON_FINITE_DATA))
def test_release_non_finite_data_exits_3(workdir, model_id, bad):
    config, rows = NON_FINITE_DATA[model_id]
    (workdir / "design.csv").write_text("1.0,0.0\n-0.5,0.0\n")
    (workdir / "m.json").write_text(json.dumps(config))
    (workdir / "bad.csv").write_text(rows.format(bad=bad))
    res = invoke("release", "--data", workdir / "bad.csv", "--model", workdir / "m.json",
                 "--epsilon", 1.0, "--out", workdir / "rel.json")
    assert res.exit_code == 3
    assert "error: cannot read data: data must be finite" in res.output
    assert not (workdir / "rel.json").exists()  # an inf is not clipped into a release
    # nor is an outcome outside the model's support
    for rows, message in OUT_OF_SUPPORT_DATA.get(model_id, []):
        (workdir / "bad.csv").write_text(rows)
        res = invoke("release", "--data", workdir / "bad.csv", "--model", workdir / "m.json",
                     "--epsilon", 1.0, "--out", workdir / "rel.json")
        assert res.exit_code == 3
        assert f"error: cannot read data: {message}" in res.output
        assert not (workdir / "rel.json").exists()


# ---------------------------------------------------------------- estimate

def write_release(workdir, s=0.3, sigma=0.1, n=1000):
    rel = ReleasedStatistic(np.array([s]), sigma, n, 1, 5.0,
                            PrivacyBudget(1.0, 1.0 / n**2), "gaussian_mean")
    rel.save(workdir / "rel.json")
    return rel


def test_estimate_plugin_arithmetic(workdir):
    write_release(workdir)
    res = invoke("estimate", "--release", workdir / "rel.json",
                 "--model", workdir / "model.json", "--method", "plugin")
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["theta_hat"][0] == pytest.approx(0.3)
    lo, hi = report["cis"][0]
    half = 1.959964 * np.sqrt(report["variance"][0][0])
    assert lo == pytest.approx(0.3 - half, abs=1e-6)
    assert hi == pytest.approx(0.3 + half, abs=1e-6)
    assert report["variance"][0][0] == pytest.approx(0.011, abs=1e-4)


def test_estimate_noise_aware_same_theta(workdir):
    write_release(workdir)
    plug = json.loads(invoke("estimate", "--release", workdir / "rel.json",
                             "--model", workdir / "model.json", "--method", "plugin").output)
    na = json.loads(invoke("estimate", "--release", workdir / "rel.json",
                           "--model", workdir / "model.json", "--method", "noise_aware").output)
    assert na["theta_hat"][0] == pytest.approx(plug["theta_hat"][0], abs=1e-6)


def test_estimate_corrupted_json_exits_3(workdir):
    (workdir / "rel.json").write_text("{not json")
    res = invoke("estimate", "--release", workdir / "rel.json",
                 "--model", workdir / "model.json")
    assert res.exit_code == 3


def test_bootstrap_command(workdir):
    write_release(workdir)
    res = invoke("bootstrap", "--release", workdir / "rel.json",
                 "--model", workdir / "model.json", "--b-boot", 50, "--seed", 2)
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["method"] == "bootstrap"
    assert len(report["cis"]) == 1
    assert report["diagnostics"]["draws_at_box"] == 0


def test_bootstrap_negative_seed_exits_2(workdir):
    write_release(workdir)
    res = invoke("bootstrap", "--release", workdir / "rel.json",
                 "--model", workdir / "model.json", "--seed", -1)
    assert res.exit_code == 2
    assert "--seed" in res.output


@pytest.mark.parametrize("alpha", [1.5, 0.0])
def test_estimate_alpha_outside_unit_interval_exits_2(workdir, alpha):
    write_release(workdir)
    res = invoke("estimate", "--release", workdir / "rel.json",
                 "--model", workdir / "model.json", "--alpha", alpha)
    assert res.exit_code == 2
    assert "--alpha" in res.output


@pytest.mark.parametrize("b_boot", [1, 0])
def test_bootstrap_b_boot_below_two_exits_2(workdir, b_boot):
    write_release(workdir)
    res = invoke("bootstrap", "--release", workdir / "rel.json",
                 "--model", workdir / "model.json", "--b-boot", b_boot)
    assert res.exit_code == 2
    assert "--b-boot" in res.output


def raising(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def every_draw_failed(model, s_star, theta_hat, mu, fisher):
    return s_star.copy(), len(s_star), len(s_star), "zero"


@pytest.mark.parametrize("command, module, attr, replacement, code", [
    (["estimate", "--method", "plugin"], estimate, "plugin_mle",
     raising(SolverDivergedError("solver_diverged", [0.0])), "solver_diverged"),
    (["estimate", "--method", "noise_aware"], estimate, "noise_aware_mle",
     raising(SolverDivergedError("na_diverged", [0.0])), "na_diverged"),
    (["estimate"], estimate, "dp_variance",
     raising(FisherSingularError("fisher_singular")), "fisher_singular"),
    (["bootstrap", "--b-boot", "20"], estimate, "_solve_draws",
     every_draw_failed, "bootstrap_unstable"),
    (["synth", "--n-syn", "10"], estimate, "plugin_mle",
     raising(SolverDivergedError("solver_diverged", [0.0])), "solver_diverged"),
    (["analyze", "--mode", "noise_aware"], synthgen, "noise_aware_synth_analysis",
     raising(FisherSingularError("fisher_singular")), "fisher_singular"),
    (["estimate", "--method", "noise_aware"], estimate, "noise_aware_mle",
     raising(MeanOverflowError("mean_overflow")), "mean_overflow"),
])
def test_solver_failures_exit_3(workdir, monkeypatch, command, module, attr, replacement, code):
    write_release(workdir)
    (workdir / "syn.csv").write_text("0.1\n0.2\n")
    paths = {"estimate": ["--release", "rel.json"], "bootstrap": ["--release", "rel.json"],
             "synth": ["--release", "rel.json", "--out", "out.csv"],
             "analyze": ["--data", "syn.csv", "--release", "rel.json"]}[command[0]]
    args = [workdir / a if a.endswith((".json", ".csv")) else a for a in paths]
    monkeypatch.setattr(module, attr, replacement)
    res = invoke(*command, *args, "--model", workdir / "model.json")
    assert res.exit_code == 3
    assert f"error: {code}" in res.output


@pytest.mark.parametrize("attr, exc, code", [
    ("noise_aware_mle", SolverDivergedError("na_diverged", [0.0]), "na_diverged"),
    ("parametric_bootstrap", BootstrapUnstableError("bootstrap_unstable"), "bootstrap_unstable"),
])
def test_experiment_run_solver_failure_exits_3(workdir, monkeypatch, attr, exc, code):
    monkeypatch.setenv("DPSS_THREADS", "1")  # the patch holds only in this process
    monkeypatch.setattr(estimate, attr, raising(exc))
    cfg = {"experiment_id": "coverage_sweep", "model_id": "logistic", "n_grid": [200],
           "epsilon_grid": [1.0], "replications": 2,
           "methods": ["plugin_wald", "noise_aware_wald", "bootstrap"]}
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    res = invoke("experiment", "run", "--config", workdir / "cfg.json",
                 "--out", workdir / "out")
    assert res.exit_code == 3
    assert f"error: {code}" in res.output


def numerical_error_classes(cls=NumericalError):
    """Every class of the NumericalError family, found by walking its subclasses."""
    for sub in cls.__subclasses__():
        yield sub
        yield from numerical_error_classes(sub)


# each command, with a call it makes: (module, attribute) the test makes raise
COMMAND_CALLS = {
    "estimate": (["estimate", "--release", "rel.json"], estimate, "dp_variance"),
    "bootstrap": (["bootstrap", "--release", "rel.json", "--b-boot", "20"], estimate, "plugin_mle"),
    "synth": (["synth", "--release", "rel.json", "--n-syn", "10", "--out", "out.csv"],
              synthgen, "generate_synthetic"),
    "analyze": (["analyze", "--data", "syn.csv"], synthgen, "nonprivate_mle"),
    "experiment run": (["experiment", "run", "--config", "cfg.json", "--out", "out"],
                       estimate, "plugin_mle"),
}


@pytest.mark.parametrize("cls", list(numerical_error_classes()), ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("command", COMMAND_CALLS)
def test_every_numerical_error_exits_3_from_every_command(workdir, monkeypatch, command, cls):
    write_release(workdir)
    (workdir / "syn.csv").write_text("0.1\n0.2\n")
    (workdir / "cfg.json").write_text(json.dumps(
        {"experiment_id": "coverage_sweep", "n_grid": [50], "epsilon_grid": [1.0],
         "replications": 2, "methods": ["plugin_wald"]}))
    monkeypatch.setenv("DPSS_THREADS", "1")  # the patch holds only in this process
    args, module, attr = COMMAND_CALLS[command]
    code = f"code_of_{cls.__name__}"
    exc = cls(code, [0.0]) if issubclass(cls, SolverDivergedError) else cls(code)
    monkeypatch.setattr(module, attr, raising(exc))
    args = [workdir / a if a.endswith((".json", ".csv")) or a == "out" else a for a in args]
    model = [] if command == "experiment run" else ["--model", workdir / "model.json"]
    res = invoke(*args, *model)
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert res.output == f"error: {code}\n"



# 10**15 records or draws need petabytes, past the address space, so numpy
# raises MemoryError before it touches any memory
@pytest.mark.parametrize("command", ["bootstrap", "synth", "experiment run"])
def test_a_size_that_cannot_be_allocated_exits_3_as_out_of_memory(workdir, monkeypatch, command):
    write_release(workdir)
    (workdir / "cfg.json").write_text(json.dumps(
        {"experiment_id": "variance_validation", "model_id": "gaussian_mean", "n_grid": [10**15],
         "epsilon_grid": [1.0], "replications": 2}))
    monkeypatch.setenv("DPSS_THREADS", "1")
    release = ["--release", workdir / "rel.json", "--model", workdir / "model.json"]
    args = {"bootstrap": ["bootstrap", *release, "--b-boot", 10**15],
            "synth": ["synth", *release, "--n-syn", 10**15, "--out", workdir / "syn.csv"],
            "experiment run": ["experiment", "run", "--config", workdir / "cfg.json",
                               "--out", workdir / "out"]}[command]
    res = invoke(*args)
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert res.output.splitlines()[-1] == "error: out_of_memory"
    assert not (workdir / "syn.csv").exists()


@pytest.mark.parametrize("command", ["estimate", "bootstrap"])
def test_a_release_whose_n_is_past_the_float_range_exits_3(workdir, command):
    artifact = json.loads(write_release(workdir).to_json())
    artifact["n"] = 10**400  # an int JSON allows; as a float it overflows
    (workdir / "rel.json").write_text(json.dumps(artifact))
    res = invoke(command, "--release", workdir / "rel.json", "--model", workdir / "model.json")
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert res.output.startswith("error: cannot load release")

def test_synth_past_the_poisson_samplers_limit_exits_3(workdir):
    # the plug-in is theta = 10, where rates exp(10 x) up to e^60 exceed what numpy samples
    np.savetxt(workdir / "design.csv", np.linspace(5.0, 6.0, 40)[:, None])
    (workdir / "poisson.json").write_text(json.dumps(
        {"model_id": "poisson", "d": 1, "clip": {"B_X": 10.0, "B_Y": 1e30},
         "design_csv": "design.csv"}))
    model = dpss.load_model_config(workdir / "poisson.json")
    s = model.grad_log_partition(np.array([10.0]))  # a noise-free release at theta = 10
    rel = ReleasedStatistic(s, 0.0, 40, 1, model.clip_bounds.B, None, "poisson")
    rel.save(workdir / "rel.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = invoke("synth", "--release", workdir / "rel.json", "--model", workdir / "poisson.json",
                     "--n-syn", 100, "--out", workdir / "syn.csv")
    assert res.exit_code == 3
    assert res.output == "error: mean_overflow\n"
    assert not (workdir / "syn.csv").exists() and not (workdir / "syn.csv.json").exists()


@pytest.mark.parametrize("method", ["plugin", "noise_aware"])
def test_estimate_of_a_statistic_past_1e154_exits_3(workdir, method):
    # the norm of 1e290 overflowed, so theta = 0 passed for its solution; the
    # overflows the solvers reject must not print numpy warnings either
    np.savetxt(workdir / "design.csv", np.linspace(50.0, 100.0, 40)[:, None])
    (workdir / "poisson.json").write_text(json.dumps(
        {"model_id": "poisson", "d": 1, "clip": {"B_X": 200.0, "B_Y": 1e6},
         "design_csv": "design.csv"}))
    ReleasedStatistic(np.array([1e290]), 0.1, 1000, 1, 2e8, PrivacyBudget(1.0, 1e-6),
                      "poisson").save(workdir / "rel.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = invoke("estimate", "--release", workdir / "rel.json",
                     "--model", workdir / "poisson.json", "--method", method)
    assert res.exit_code == 3
    assert "error: solver_diverged" in res.output
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_estimate_whose_fallback_decrease_is_nan_exits_3_without_a_warning(workdir):
    # a noise-free release of mu(2.72, 4.35), whose largest x.theta is 400: the
    # solver's predicted decrease is nan on the way, and numpy printed a
    # RuntimeWarning before error: solver_diverged; a fresh process shows it
    design = np.random.default_rng(1).uniform(20.0, 60.0, (200, 2))
    np.savetxt(workdir / "design.csv", design, delimiter=",")
    (workdir / "poisson.json").write_text(json.dumps(
        {"model_id": "poisson", "d": 2, "clip": {"B_X": 100.0, "B_Y": 1e300},
         "design_csv": "design.csv"}))
    model = dpss.load_model_config(workdir / "poisson.json")
    s = model.grad_log_partition(np.array([2.72, 4.35]))
    ReleasedStatistic(s, 0.0, 200, 2, model.clip_bounds.B, None, "poisson").save(
        workdir / "rel.json")
    env = dict(os.environ, PYTHONPATH=str(Path(dpss.__file__).parent.parent))
    env.pop("PYTHONWARNINGS", None)
    res = subprocess.run(
        [sys.executable, "-m", "dpss.cli", "estimate", "--release", str(workdir / "rel.json"),
         "--model", str(workdir / "poisson.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 3
    assert res.stderr.splitlines()[-1] == "error: solver_diverged"
    assert "Warning" not in res.stderr


def test_bootstrap_whose_covariance_is_not_positive_definite_exits_3(workdir):
    # two design columns equal to 8 digits: estimate exits 0, but the bootstrap's
    # covariance is not positive definite to working precision, and its Cholesky
    # raised a LinAlgError that left the CLI with a traceback and exit 1
    np.savetxt(workdir / "design.csv", near_duplicate_design(), delimiter=",")
    (workdir / "poisson.json").write_text(json.dumps(
        {"model_id": "poisson", "d": 2, "clip": {"B_X": 100.0, "B_Y": 1e30},
         "design_csv": "design.csv"}))
    model = dpss.load_model_config(workdir / "poisson.json")
    s = model.grad_log_partition(np.full(2, 3.0))
    ReleasedStatistic(s, 0.0, 60, 2, model.clip_bounds.B, None, "poisson").save(
        workdir / "rel.json")
    env = dict(os.environ, PYTHONPATH=str(Path(dpss.__file__).parent.parent))
    args = ["--release", str(workdir / "rel.json"), "--model", str(workdir / "poisson.json")]
    runs = [subprocess.run([sys.executable, "-m", "dpss.cli", command, *args], env=env,
                           capture_output=True, text=True, timeout=120)
            for command in ("estimate", "bootstrap")]
    assert runs[0].returncode == 0
    assert runs[1].returncode == 3
    assert runs[1].stderr.splitlines()[-1] == "error: fisher_singular"
    assert "Traceback" not in runs[1].stderr


def identical_columns_csv():
    """400 logistic records over the columns (x, x, z), one row per line."""
    rng = np.random.default_rng(3)
    x, z = rng.standard_normal((2, 400))
    y = rng.random(400) < 0.5
    return "".join(f"{a:.17g},{a:.17g},{c:.17g},{int(b)}\n" for a, c, b in zip(x, z, y))


@pytest.mark.parametrize("d, syn", [
    # the second feature is zero on every record: inv raises
    (2, "1.0,0.0,1\n-0.5,0.0,0\n0.7,0.0,0\n-1.2,0.0,1\n"),
    # two identical features: without the condition bound, rounding gives
    # these records variances of 9.0e13 and exit 0
    (3, identical_columns_csv()),
], ids=["zero_column", "identical_columns"])
def test_analyze_singular_fisher_exits_3(workdir, d, syn):
    # the classical Fisher information of the naive analysis cannot be inverted
    (workdir / "design.csv").write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                                for line in syn.splitlines()))
    (workdir / "logit.json").write_text(json.dumps(
        {"model_id": "logistic", "d": d, "clip": {"B_X": 10.0}, "design_csv": "design.csv"}))
    (workdir / "syn.csv").write_text(syn)
    res = invoke("analyze", "--data", workdir / "syn.csv", "--model", workdir / "logit.json",
                 "--mode", "naive")
    assert res.exit_code == 3
    assert res.output.strip().splitlines()[-1] == "error: fisher_singular"


def test_bootstrap_on_a_singular_fisher_reports_draws_at_box(workdir):
    # the two identical columns leave the Fisher singular; the bootstrap passes its
    # failure gate, and its intervals on those columns reach the box, which
    # draws_at_box makes visible
    syn = identical_columns_csv()
    (workdir / "design.csv").write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                                for line in syn.splitlines()))
    (workdir / "logit.json").write_text(json.dumps(
        {"model_id": "logistic", "d": 3, "clip": {"B_X": 10.0}, "design_csv": "design.csv"}))
    (workdir / "data.csv").write_text(syn)
    model = ("--model", workdir / "logit.json")
    assert invoke("release", "--data", workdir / "data.csv", *model, "--epsilon", 5,
                  "--seed", 7, "--out", workdir / "rel.json").exit_code == 0
    res = invoke("bootstrap", "--release", workdir / "rel.json", *model,
                 "--b-boot", 200, "--seed", 7)
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["diagnostics"]["draws_at_box"] > 0
    assert max(hi for _, hi in report["cis"][:2]) == 10.0


def test_synth_dimension_mismatch_exits_3(workdir):
    ReleasedStatistic(np.array([0.1, 0.2]), 0.1, 1000, 2, 5.0, PrivacyBudget(1.0, 1e-6),
                      "gaussian_mean").save(workdir / "rel.json")
    res = invoke("synth", "--release", workdir / "rel.json", "--model", workdir / "model.json",
                 "--n-syn", 10, "--out", workdir / "syn.csv")
    assert res.exit_code == 3


def mismatched_release(workdir, kind):
    """A release the Gaussian model of ``workdir`` must reject."""
    if kind == "model_id":  # one-dimensional, as the model, but Poisson
        rel = ReleasedStatistic(np.array([2.0]), 0.1, 1000, 1, 60.0,
                                PrivacyBudget(1.0, 1e-6), "poisson")
    else:
        rel = ReleasedStatistic(np.array([0.1, 0.2]), 0.1, 1000, 2, 60.0,
                                PrivacyBudget(1.0, 1e-6), "poisson")
    rel.save(workdir / "rel.json")


MISMATCH_COMMANDS = {
    "estimate": ("estimate",),
    "bootstrap": ("bootstrap", "--b-boot", 20),
    "synth": ("synth", "--n-syn", 10, "--out", "syn.csv"),
    "analyze": ("analyze", "--data", "data.csv", "--mode", "noise_aware"),
}


@pytest.mark.parametrize("kind", ["model_id", "d"])
@pytest.mark.parametrize("command", list(MISMATCH_COMMANDS))
def test_release_model_mismatch_exits_3(workdir, command, kind):
    mismatched_release(workdir, kind)
    args = [workdir / a if str(a).endswith((".csv", ".json")) else a
            for a in MISMATCH_COMMANDS[command]]
    res = invoke(*args, "--release", workdir / "rel.json", "--model", workdir / "model.json")
    assert res.exit_code == 3
    assert "does not match model" in res.output


def clip_bound_configs(workdir):
    """Logistic data with a release made under B_X = 1, and configs with B_X = 1 and 5."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((200, 2))
    y = (rng.random(200) < 1.0 / (1.0 + np.exp(-(X @ [1.0, -1.0])))).astype(float)
    np.savetxt(workdir / "design.csv", X, delimiter=",")
    np.savetxt(workdir / "data.csv", np.column_stack([X, y]), delimiter=",")
    for B_X in (1, 5):
        (workdir / f"logit{B_X}.json").write_text(json.dumps(
            {"model_id": "logistic", "d": 2, "clip": {"B_X": B_X}, "design_csv": "design.csv"}))
    assert invoke("release", "--data", workdir / "data.csv", "--model", workdir / "logit1.json",
                  "--epsilon", 1.0, "--out", workdir / "rel.json").exit_code == 0


@pytest.mark.parametrize("command", list(MISMATCH_COMMANDS))
def test_release_under_another_clip_bound_exits_3(workdir, command):
    # a release made with B_X = 1 used to be estimated under B_X = 5 as if its noise
    # and its clipped statistic belonged to that bound
    clip_bound_configs(workdir)
    args = [workdir / a if str(a).endswith((".csv", ".json")) else a
            for a in MISMATCH_COMMANDS[command]]
    own = invoke(*args, "--release", workdir / "rel.json", "--model", workdir / "logit1.json")
    assert own.exit_code == 0
    res = invoke(*args, "--release", workdir / "rel.json", "--model", workdir / "logit5.json")
    assert res.exit_code == 3
    assert "B=1.0) does not match model (logistic, d=2, B=5.0)" in res.output


def test_noise_free_release_artifact(workdir):
    rel = ReleasedStatistic(np.array([0.3]), 0.0, 1000, 1, 5.0, None, "gaussian_mean")
    rel.save(workdir / "rel.json")
    res = invoke("estimate", "--release", workdir / "rel.json", "--model", workdir / "model.json")
    assert res.exit_code == 0
    assert json.loads(res.output)["theta_hat"] == [0.3]
    # noise without a budget is a false privacy claim
    obj = dict(json.loads(rel.to_json()), sigma=0.1)
    (workdir / "rel.json").write_text(json.dumps(obj))
    res = invoke("estimate", "--release", workdir / "rel.json", "--model", workdir / "model.json")
    assert res.exit_code == 3
    assert "a release with noise needs a privacy budget" in res.output


# -------------------------------------------------------------------- synth

def test_synth_zero_rows_exits_2(workdir):
    write_release(workdir)
    res = invoke("synth", "--release", workdir / "rel.json", "--model", workdir / "model.json",
                 "--n-syn", 0, "--out", workdir / "syn.csv")
    assert res.exit_code == 2


def test_synth_negative_seed_exits_2(workdir):
    write_release(workdir)
    res = invoke("synth", "--release", workdir / "rel.json", "--model", workdir / "model.json",
                 "--n-syn", 5, "--seed", -1, "--out", workdir / "syn.csv")
    assert res.exit_code == 2
    assert "--seed" in res.output
    assert not (workdir / "syn.csv").exists()


def test_synth_to_a_missing_directory_exits_3(workdir):
    write_release(workdir)
    res = invoke("synth", "--release", workdir / "rel.json", "--model", workdir / "model.json",
                 "--n-syn", 5, "--out", workdir / "nodir" / "s.csv")
    assert res.exit_code == 3
    assert "error: cannot write" in res.output


def test_synth_reproducible_and_sidecar(workdir):
    write_release(workdir)
    args = ("synth", "--release", workdir / "rel.json", "--model", workdir / "model.json",
            "--n-syn", 20, "--seed", 11)
    invoke(*args, "--out", workdir / "a.csv")
    invoke(*args, "--out", workdir / "b.csv")
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()
    sidecar = json.loads((workdir / "a.csv.json").read_text())
    assert sidecar["n_syn"] == 20
    assert sidecar["model_id"] == "gaussian_mean"
    assert sidecar["source_theta"][0] == pytest.approx(0.3)


def test_synth_lln(workdir):
    write_release(workdir, s=0.3, sigma=0.0)
    invoke("synth", "--release", workdir / "rel.json", "--model", workdir / "model.json",
           "--n-syn", 10**6, "--seed", 4, "--out", workdir / "syn.csv")
    vals = np.loadtxt(workdir / "syn.csv", delimiter=",")
    assert vals.mean() == pytest.approx(0.3, abs=0.005)


# ------------------------------------------------------------------ analyze

def test_analyze_naive_never_reads_release(workdir):
    write_release(workdir)
    invoke("synth", "--release", workdir / "rel.json", "--model", workdir / "model.json",
           "--n-syn", 100, "--seed", 5, "--out", workdir / "syn.csv")
    # privacy wall: naive mode succeeds with the release and raw data gone
    (workdir / "rel.json").unlink()
    (workdir / "data.csv").unlink()
    res = invoke("analyze", "--data", workdir / "syn.csv", "--model", workdir / "model.json",
                 "--mode", "naive")
    assert res.exit_code == 0
    assert json.loads(res.output)["method"] == "naive_synth"


def test_analyze_noise_aware_requires_release(workdir):
    invoke("synth", "--release", str(workdir / "missing.json"), "--model",
           workdir / "model.json", "--n-syn", 10, "--out", workdir / "syn.csv")
    (workdir / "syn.csv").write_text("0.1\n0.2\n")
    res = invoke("analyze", "--data", workdir / "syn.csv", "--model", workdir / "model.json",
                 "--mode", "noise_aware")
    assert res.exit_code == 2


def test_analyze_noise_aware_three_term(workdir):
    rel = write_release(workdir, s=0.3, sigma=0.1, n=1000)
    invoke("synth", "--release", workdir / "rel.json", "--model", workdir / "model.json",
           "--n-syn", 1000, "--seed", 6, "--out", workdir / "syn.csv")
    res = invoke("analyze", "--data", workdir / "syn.csv", "--model", workdir / "model.json",
                 "--mode", "noise_aware", "--release", workdir / "rel.json")
    assert res.exit_code == 0
    report = json.loads(res.output)
    lam = max(1e-6, 0.01 * rel.sigma**2)
    ihat = 1.0 + lam
    want = 1.0 / (ihat * 1000) + rel.sigma**2 / ihat**2 + 1.0 / (ihat * 1000)
    assert report["variance"][0][0] == pytest.approx(want, rel=1e-9)


def test_analyze_missing_data_exits_3(workdir):
    res = invoke("analyze", "--data", workdir / "nope.csv", "--model", workdir / "model.json")
    assert res.exit_code == 3


LOGISTIC_CONFIG = {"model_id": "logistic", "d": 2, "clip": {"B_X": 3.0},
                   "design_csv": "design.csv"}


@pytest.mark.parametrize("command, empty, message", [
    ("release", "design.csv", "cannot load model config: design_csv must hold at least one row"),
    ("release", "data.csv", "cannot read data: empty_dataset"),
    ("analyze", "data.csv", "cannot read data: empty_dataset"),
])
def test_an_empty_csv_exits_3_without_a_warning(workdir, command, empty, message):
    (workdir / "m.json").write_text(json.dumps(LOGISTIC_CONFIG))
    (workdir / "design.csv").write_text("1.0,0.0\n-0.5,0.5\n")
    (workdir / "data.csv").write_text("1.0,0.0,1\n-0.5,0.5,0\n")
    (workdir / empty).write_text("")
    args = {"release": ["--epsilon", 1.0, "--out", workdir / "rel.json"],
            "analyze": ["--mode", "naive"]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns of a file with no data
        res = invoke(command, "--data", workdir / "data.csv", "--model", workdir / "m.json", *args)
    assert res.exit_code == 3
    assert f"error: {message}" in res.output


@pytest.mark.parametrize("raw", [b"# a header line\n", b"# a\n# b\r\n", b"  # a\n\n", b"#a\r#b\r",
                                 b" \n\n"])
@pytest.mark.parametrize("command, empty, message", [
    ("release", "design.csv",
     "cannot load model config: design_csv must hold at least one row, all finite"),
    ("release", "data.csv", "cannot read data: empty_dataset"),
    ("analyze", "data.csv", "cannot read data: empty_dataset"),
])
def test_a_comment_only_csv_exits_3_with_nothing_else_on_stderr(workdir, command, empty, message,
                                                                 raw):
    (workdir / "m.json").write_text(json.dumps(LOGISTIC_CONFIG))
    (workdir / "design.csv").write_text("1.0,0.0\n-0.5,0.5\n")
    (workdir / "data.csv").write_text("1.0,0.0,1\n-0.5,0.5,0\n")
    (workdir / empty).write_bytes(raw)
    args = {"release": ["--epsilon", 1.0, "--out", workdir / "rel.json"],
            "analyze": ["--mode", "naive"]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns of a file with no data
        res = invoke(command, "--data", workdir / "data.csv", "--model", workdir / "m.json", *args)
    assert res.exit_code == 3
    assert res.output == f"error: {message}\n"


def test_release_caches_the_design_but_never_the_data(workdir, design_cache_home):
    (workdir / "m.json").write_text(json.dumps(LOGISTIC_CONFIG))
    (workdir / "design.csv").write_text("1.0,0.0\n-0.5,0.5\n")
    (workdir / "data.csv").write_text("1.0,0.0,1\n-0.5,0.5,0\n")
    res = invoke("release", "--data", workdir / "data.csv", "--model", workdir / "m.json",
                 "--epsilon", 1.0, "--seed", 3, "--out", workdir / "rel.json")
    assert res.exit_code == 0
    entries = sorted((design_cache_home / "dpss").iterdir())
    digest = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
              for name in ("design.csv", "data.csv")}
    # privacy wall: the one entry is the public design; no copy of the records is kept
    assert [e.name for e in entries] == [digest["design.csv"] + ".npy"]
    data = np.loadtxt(workdir / "data.csv", delimiter=",")
    for entry in entries:
        assert hashlib.sha256(entry.read_bytes()).hexdigest() != digest["data.csv"]
        assert np.load(entry, allow_pickle=False).shape != data.shape


# --------------------------------------------------------------- experiment

def test_experiment_run_end_to_end(workdir):
    cfg = {
        "experiment_id": "coverage_sweep",
        "model_id": "gaussian_mean",
        "n_grid": [100],
        "epsilon_grid": [1.0],
        "replications": 5,
        "master_seed": 12,
        "methods": ["plugin_wald"],
    }
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    res = invoke("experiment", "run", "--config", workdir / "cfg.json",
                 "--out", workdir / "out")
    assert res.exit_code == 0
    assert (workdir / "out" / "coverage_sweep.csv").exists()
    assert (workdir / "out" / "manifest.json").exists()


def test_experiment_run_under_a_regular_file_exits_3(workdir, monkeypatch):
    cfg = {"experiment_id": "coverage_sweep", "model_id": "gaussian_mean", "n_grid": [100],
           "epsilon_grid": [1.0], "replications": 2, "methods": ["plugin_wald"]}
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    replications = []
    real = harness._replications
    monkeypatch.setattr(harness, "_replications",
                        lambda *a, **k: replications.append(a) or real(*a, **k))
    res = invoke("experiment", "run", "--config", workdir / "cfg.json",
                 "--out", workdir / "data.csv" / "sub")
    assert res.exit_code == 3
    assert "error: cannot write" in res.output
    assert replications == []  # the path failed before any compute
    # the spy sees the replications of a writable run
    assert invoke("experiment", "run", "--config", workdir / "cfg.json",
                  "--out", workdir / "out").exit_code == 0
    assert replications


@pytest.mark.parametrize("threads", ["abc", "0", "-1"])
def test_experiment_run_with_bad_threads_exits_3(workdir, monkeypatch, threads):
    cfg = {"experiment_id": "coverage_sweep", "model_id": "gaussian_mean", "n_grid": [100],
           "epsilon_grid": [1.0], "replications": 2, "methods": ["plugin_wald"]}
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    monkeypatch.setenv("DPSS_THREADS", threads)
    res = invoke("experiment", "run", "--config", workdir / "cfg.json", "--out", workdir / "out")
    assert res.exit_code == 3
    assert f"error: DPSS_THREADS must be a positive integer, got {threads!r}" in res.output
    assert not (workdir / "out" / "coverage_sweep.csv").exists()


@pytest.mark.parametrize("field,value", [("experiment_id", "nonsense"),
                                         ("methods", ["plugin_wald", "magic"]),
                                         ("model_id", "nonsense"),
                                         ("alpha", 2),
                                         ("b_boot", 1),
                                         ("n_grid", [0]),
                                         ("n_grid", [100.5]),
                                         ("epsilon_grid", [0.0]),
                                         ("epsilon_grid", [-1.0]),
                                         ("B_grid", [-1]),
                                         ("ratios", [0]),
                                         ("master_seed", -1),
                                         ("theta0", [1, 2]),
                                         # rates past numpy's Poisson sampler
                                         (("model_id", "theta0"), ("poisson", [800])),
                                         # delta is always 1/n^2: the field is gone
                                         ("delta_rule", "one_over_n_sq"),
                                         # None runs the study's default; [] is an error
                                         ("methods", []),
                                         ("B_grid", []),
                                         ("effect_grid", []),
                                         ("ratios", [])])
def test_experiment_run_unknown_name_exits_3(workdir, field, value):
    cfg = {"experiment_id": "coverage_sweep", "n_grid": [100], "epsilon_grid": [1.0],
           "replications": 2, "methods": ["plugin_wald", "bootstrap"]}
    cfg.update(zip(field, value) if isinstance(field, tuple) else [(field, value)])
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    res = invoke("experiment", "run", "--config", workdir / "cfg.json",
                 "--out", workdir / "out")
    assert res.exit_code == 3
    assert "cannot load experiment config" in res.output
    assert not (workdir / "out").exists()
