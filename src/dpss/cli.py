"""Command-line surface for the release-then-infer pipeline.

Exit codes: 0 success, 2 usage/validation error, 3 data or I/O error, a
numerical failure (an ``expfam.NumericalError``, reported as ``error: <code>``)
or a size that cannot be allocated (``error: out_of_memory``).
Only ``release`` reads raw data together with a privacy budget; every
other subcommand operates on released artifacts.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import estimate, harness, synthgen
from .expfam import NumericalError, dataset_from_csv, dataset_to_csv, load_model_config
from .privacy import (
    InvalidBudgetError,
    PrivacyBudget,
    ReleasedStatistic,
    calibrate_agm,
    release,
    verify_agm_condition,
)
from .rng import substream


def _data_error(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(3)


# significance level, open interval (0, 1)
ALPHA = click.FloatRange(0.0, 1.0, min_open=True, max_open=True)
# numpy seeds its generators from non-negative integers only
SEED = click.IntRange(min=0)


@contextlib.contextmanager
def _writing(path):
    try:
        yield
    except OSError as exc:  # a missing directory, a file where one is wanted, no permission
        _data_error(f"cannot write {path}: {exc}")


def _load_model(path):
    try:
        return load_model_config(path)
    except (OSError, ValueError) as exc:  # a malformed config, JSON included, is a ValueError
        _data_error(f"cannot load model config: {exc}")


def _load_release(path, model):
    """The release at ``path``, which must have been made for ``model`` and its clip bound."""
    try:
        rel = ReleasedStatistic.load(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _data_error(f"cannot load release: {exc}")
    B = model.clip_bounds.B
    if (rel.model_id, rel.d, rel.B) != (model.model_id, model.d, B):
        _data_error(
            f"release ({rel.model_id}, d={rel.d}, B={rel.B}) does not match "
            f"model ({model.model_id}, d={model.d}, B={B})"
        )
    return rel


class _Main(click.Group):
    """The command group: a numerical failure in any command exits 3 as ``error: <code>``.

    So does a size that cannot be allocated, such as ``--b-boot`` or
    ``--n-syn`` past the address space, as ``error: out_of_memory``.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NumericalError as exc:
            _data_error(str(exc))
        except MemoryError:
            _data_error("out_of_memory")


@click.group(cls=_Main)
def main():
    """DP sufficient-statistic release and noise-calibrated inference."""


@main.command()
@click.option("--sensitivity", type=float, required=True, help="L2 sensitivity of the statistic.")
@click.option("--epsilon", type=float, required=True)
@click.option("--delta", type=float, required=True)
def calibrate(sensitivity, epsilon, delta):
    """Print the calibrated noise scale and the delta it achieves."""
    try:
        sigma = calibrate_agm(sensitivity, PrivacyBudget(epsilon, delta))
    except InvalidBudgetError:
        click.echo("invalid_budget", err=True)
        sys.exit(2)
    achieved = verify_agm_condition(sigma, sensitivity, epsilon)
    click.echo(json.dumps({"sigma": sigma, "achieved_delta": achieved}))


@main.command("release")
@click.option("--data", "data_path", type=click.Path(), required=True)
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--epsilon", type=float, required=True)
@click.option("--delta", default="auto", help="Numeric delta, or 'auto' for 1/n^2.")
@click.option("--seed", type=SEED, default=0)
@click.option("--out", "out_path", type=click.Path(), required=True)
def release_cmd(data_path, model_path, epsilon, delta, seed, out_path):
    """Clip, aggregate, and release the noisy sufficient statistic."""
    model = _load_model(model_path)
    try:
        data = dataset_from_csv(data_path, model)
    except (OSError, ValueError) as exc:
        _data_error(f"cannot read data: {exc}")
    if delta == "auto":
        delta_val = harness.delta_for(data.n)
    else:
        try:
            delta_val = float(delta)
        except ValueError:
            raise click.UsageError("delta must be a number or 'auto'")
    try:
        budget = PrivacyBudget(epsilon, delta_val)
        with np.errstate(over="ignore"):  # noise past the float range is reported below
            rel = release(data, model, budget, substream(seed, "release"), seed_tag=str(seed))
    except InvalidBudgetError:  # the budget, or a sigma that is not finite
        click.echo("invalid_budget", err=True)
        sys.exit(2)
    except ValueError as exc:  # the noisy statistic is not finite
        _data_error(f"cannot release: {exc}")
    with _writing(out_path):
        rel.save(out_path)
    click.echo(f"n={rel.n} d={rel.d} B={rel.B} sigma={rel.sigma}", err=True)


@main.command("estimate")
@click.option("--release", "release_path", type=click.Path(), required=True)
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--method", type=click.Choice(["plugin", "noise_aware"]), default="plugin")
@click.option("--alpha", type=ALPHA, default=0.05)
def estimate_cmd(release_path, model_path, method, alpha):
    """Estimate from a released statistic; report JSON on stdout."""
    model = _load_model(model_path)
    rel = _load_release(release_path, model)
    report = estimate.estimate_report(model, rel, method, alpha)
    click.echo(report.to_json())


@main.command()
@click.option("--release", "release_path", type=click.Path(), required=True)
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--b-boot", type=click.IntRange(min=2), default=500)
@click.option("--alpha", type=ALPHA, default=0.05)
@click.option("--seed", type=SEED, default=0)
def bootstrap(release_path, model_path, b_boot, alpha, seed):
    """Parametric bootstrap intervals from a released statistic."""
    model = _load_model(model_path)
    rel = _load_release(release_path, model)
    cfg = estimate.BootstrapConfig(b_boot, alpha)
    report = estimate.parametric_bootstrap(model, rel, cfg, substream(seed, "bootstrap"))
    click.echo(report.to_json())


@main.command()
@click.option("--release", "release_path", type=click.Path(), required=True)
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--n-syn", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=SEED, default=0)
@click.option("--out", "out_path", type=click.Path(), required=True)
def synth(release_path, model_path, n_syn, seed, out_path):
    """Generate parametric synthetic data from the plug-in estimate."""
    model = _load_model(model_path)
    rel = _load_release(release_path, model)
    theta, _ = estimate.plugin_mle(model, rel)
    data = synthgen.generate_synthetic(model, theta, n_syn, substream(seed, "synth"))
    sidecar = {
        "source_theta": [float(t) for t in theta],
        "n_syn": n_syn,
        "seed": seed,
        "model_id": model.model_id,
    }
    with _writing(out_path):
        dataset_to_csv(data, out_path)
        Path(str(out_path) + ".json").write_text(json.dumps(sidecar) + "\n")


@main.command()
@click.option("--data", "data_path", type=click.Path(), required=True)
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--mode", type=click.Choice(["naive", "noise_aware"]), default="naive")
@click.option("--release", "release_path", type=click.Path(), default=None)
@click.option("--alpha", type=ALPHA, default=0.05)
def analyze(data_path, model_path, mode, release_path, alpha):
    """Analyze a (synthetic) dataset naively or with noise-aware correction."""
    if mode == "noise_aware" and release_path is None:
        raise click.UsageError("--mode noise_aware requires --release")
    model = _load_model(model_path)
    try:
        data = dataset_from_csv(data_path, model)
    except (OSError, ValueError) as exc:
        _data_error(f"cannot read data: {exc}")
    rel = _load_release(release_path, model) if mode == "noise_aware" else None
    if rel is None:
        report = synthgen.naive_analysis(model, data, alpha)
    else:
        report = synthgen.noise_aware_synth_analysis(model, data, rel, alpha)
    click.echo(report.to_json())


@main.group()
def experiment():
    """Monte Carlo experiment harness."""


@experiment.command("run")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def experiment_run(config_path, out_dir):
    """Run an experiment config and write its metrics table."""
    try:
        cfg = harness.ExperimentConfig.from_json(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        _data_error(f"cannot load experiment config: {exc}")
    with _writing(out_dir):
        try:
            harness.run_experiment(cfg, out_dir)
        except ValueError as exc:  # a DPSS_THREADS that is not a positive integer
            _data_error(str(exc))
    click.echo(f"wrote {out_dir}/{cfg.experiment_id}.csv", err=True)


if __name__ == "__main__":
    main()
