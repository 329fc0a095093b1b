"""The four benchmark workloads and the checks on their outputs.

A workload runs in passes, a fixed unit of work.  Pass ``i`` of a run
uses input variant ``(seed + i) % N_VARIANTS``; ``reference/<name>.json``
holds the outputs of every variant as recorded by ``record_reference.py``
from the first version of dpss the benchmark measured.  Every pass is
checked against its variant's reference.

An operation is one CLI command or one harness cell.  A pass returns the
outputs of its operations; an operation that exited non-zero, raised, is
missing because its sweep raised, or disagrees with the reference counts
as failed.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

N_VARIANTS = 16
CLI_SEED0 = 7000  # CLI --seed of variant v is CLI_SEED0 + v
MC_SEED0 = 20260000  # master_seed of variant v is MC_SEED0 + v

# θ̂, variances and CIs must agree with the reference to this relative
# tolerance, measured against the largest entry of the array (noise-aware
# L-BFGS-B stops at gtol 1e-8; the Newton inverse at 1e-8 |s|)
SOLVER_RTOL = 1e-5

# harness columns holding estimates or quantities computed from them;
# every other column must match exactly
ESTIMATE_COLUMNS = {"emp_variance", "avg_ci_length", "mse", "bias_abs"}
RATE_COLUMNS = {"coverage", "rejection_rate"}
CELL_KEYS = {
    "variance_validation": ("n", "epsilon"),
    "coverage_sweep": ("n", "epsilon"),
    "clipping_study": ("B",),
    "power_study": ("epsilon", "delta_effect"),
}

REPORT_TOLERANCE_KEYS = {"theta_hat", "variance", "cis", "source_theta"}


@dataclass
class PassResult:
    seconds: float
    reps: int
    ops: dict  # op id -> output (JSON-like), or an Exception when it failed


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int  # DPSS_THREADS for the untraced runs
    run_pass: Callable  # (ctx, variant, span) -> PassResult


# ------------------------------------------------------------------ #
# CLI pipeline on the bundled 10k logistic CSV
# ------------------------------------------------------------------ #

class CliContext:
    """Model config, design CSV and scratch files for the CLI workload."""

    def __init__(self, dpss_dir: Path, workdir: Path):
        from click.testing import CliRunner

        from dpss.cli import main

        self.main = main
        self.runner = CliRunner()
        self.data = dpss_dir / "data" / "logistic_10k.csv"
        meta = json.loads((dpss_dir / "data" / "logistic_10k.json").read_text())
        d = meta["d"]
        # the public design is the feature columns of the bundled file,
        # copied as text so every digit survives
        lines = self.data.read_text().splitlines()
        design = "\n".join(",".join(line.split(",")[:d]) for line in lines) + "\n"
        (workdir / "design.csv").write_text(design)
        self.model = workdir / "model.json"
        self.model.write_text(json.dumps(
            {"model_id": "logistic", "d": d, "clip": {"B_X": meta["B_X"]},
             "design_csv": "design.csv"}
        ))
        self.release = workdir / "rel.json"
        self.syn = workdir / "syn.csv"

    def commands(self, seed: str) -> list[tuple[str, str, list[str]]]:
        """(op id, span name, argv) for the seven commands of one pass."""
        rel, model, syn = str(self.release), str(self.model), str(self.syn)
        return [
            ("release", "cli.release",
             ["release", "--data", str(self.data), "--model", model, "--epsilon", "1",
              "--delta", "auto", "--seed", seed, "--out", rel]),
            ("estimate_plugin", "cli.estimate",
             ["estimate", "--release", rel, "--model", model, "--method", "plugin"]),
            ("estimate_noise_aware", "cli.estimate",
             ["estimate", "--release", rel, "--model", model, "--method", "noise_aware"]),
            ("bootstrap", "cli.bootstrap",
             ["bootstrap", "--release", rel, "--model", model, "--b-boot", "500",
              "--seed", seed]),
            ("synth", "cli.synth",
             ["synth", "--release", rel, "--model", model, "--n-syn", "10000",
              "--seed", seed, "--out", syn]),
            ("analyze_naive", "cli.analyze",
             ["analyze", "--data", syn, "--model", model, "--mode", "naive"]),
            ("analyze_noise_aware", "cli.analyze",
             ["analyze", "--data", syn, "--model", model, "--mode", "noise_aware",
              "--release", rel]),
        ]


def cli_pass(ctx: CliContext, variant: int, span) -> PassResult:
    results = []
    release_text = sidecar_text = None
    t0 = time.perf_counter()
    for op, span_name, argv in ctx.commands(str(CLI_SEED0 + variant)):
        with span(span_name):
            res = ctx.runner.invoke(ctx.main, argv)
        results.append((op, res))
        if op == "release" and res.exit_code == 0:
            release_text = ctx.release.read_text()
        if op == "synth" and res.exit_code == 0:
            sidecar_text = Path(str(ctx.syn) + ".json").read_text()
    seconds = time.perf_counter() - t0
    ops = {}
    for op, res in results:
        if res.exit_code != 0:
            detail = res.output.strip()[-200:] or repr(res.exception)
            ops[op] = RuntimeError(f"exit code {res.exit_code}: {detail}")
        elif op == "release":
            ops[op] = json.loads(release_text)
        elif op == "synth":
            ops[op] = json.loads(sidecar_text)
        else:
            ops[op] = json.loads(res.stdout)
    return PassResult(seconds, 1, ops)


# ------------------------------------------------------------------ #
# Monte Carlo harness sweeps
# ------------------------------------------------------------------ #

def mc_pass_fn(sweeps: list[tuple[str, dict]]):
    """A pass runs each (label, ExperimentConfig fields) sweep at the variant's master seed."""

    def run_pass(ctx, variant: int, span) -> PassResult:
        from dpss.harness import ExperimentConfig, run_experiment

        tables = []
        t0 = time.perf_counter()
        for label, config in sweeps:
            cfg = ExperimentConfig(master_seed=MC_SEED0 + variant, **config)
            try:
                tables.append(run_experiment(cfg).rows)
            except Exception as exc:  # the sweep's cells are then missing as well
                tables.append(exc)
        seconds = time.perf_counter() - t0
        ops, reps = {}, 0
        for (label, config), rows in zip(sweeps, tables):
            if isinstance(rows, Exception):
                ops[f"{label}[sweep]"] = rows
                continue
            for key, cell_rows in group_cells(config["experiment_id"], rows).items():
                ops[f"{label}[{key}]"] = cell_rows
                reps += cell_rows[0]["replications"]
        return PassResult(seconds, reps, ops)

    return run_pass


def group_cells(experiment_id: str, rows: list[dict]) -> dict[str, list[dict]]:
    keys = CELL_KEYS[experiment_id]
    cells: dict[str, list[dict]] = {}
    for row in rows:
        key = ",".join(f"{k}={row[k]!r}" for k in keys)
        cells.setdefault(key, []).append(dict(row))
    return cells


CLIPPING = [("clipping", {
    "experiment_id": "clipping_study", "model_id": "logistic", "n_grid": [1000],
    "epsilon_grid": [1.0], "B_grid": [0.5, 1.0, 2.0, 3.0, 5.0, 10.0], "replications": 25,
})]

GAUSSIAN = [
    ("variance", {
        "experiment_id": "variance_validation", "model_id": "gaussian_mean",
        "n_grid": [100, 500, 1000, 5000], "epsilon_grid": [0.1, 0.5, 1.0, 2.0, 5.0, 10.0],
        "replications": 150,
    }),
    ("coverage", {
        "experiment_id": "coverage_sweep", "model_id": "gaussian_mean",
        "n_grid": [100, 1000], "epsilon_grid": [0.1, 1.0, 10.0], "replications": 150,
        "methods": ["nonprivate", "plugin_wald", "naive_synth"],
    }),
    ("power", {
        "experiment_id": "power_study", "model_id": "gaussian_mean", "n_grid": [500],
        "epsilon_grid": [0.5, 2.0], "effect_grid": [0.1, 0.3], "replications": 150,
    }),
]

LOWEPS_BOOTSTRAP = [
    ("logistic", {
        "experiment_id": "coverage_sweep", "model_id": "logistic", "n_grid": [1000],
        "epsilon_grid": [0.1], "replications": 2, "b_boot": 200,
        "methods": ["plugin_wald", "bootstrap"],
    }),
    ("poisson", {
        "experiment_id": "coverage_sweep", "model_id": "poisson", "n_grid": [500],
        "epsilon_grid": [0.1], "replications": 2, "b_boot": 200,
        "methods": ["plugin_wald", "bootstrap"],
    }),
]

# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in [
        Workload("cli_logistic10k", 1, cli_pass),
        Workload("mc_clipping", 2, mc_pass_fn(CLIPPING)),
        Workload("mc_gaussian", 1, mc_pass_fn(GAUSSIAN)),
        Workload("mc_loweps_bootstrap", 1, mc_pass_fn(LOWEPS_BOOTSTRAP)),
    ]
}


def no_span(name):
    return contextlib.nullcontext()


# ------------------------------------------------------------------ #
# Output checks
# ------------------------------------------------------------------ #

def to_jsonable(ops: dict) -> dict:
    """Pass outputs as they are stored in a reference file."""
    return json.loads(json.dumps(ops))


def check_op(op: str, got, ref) -> str | None:
    """Return why ``got`` disagrees with the reference output, or None."""
    if isinstance(got, Exception):
        return f"{type(got).__name__}: {got}"
    got = to_jsonable(got)  # compare as they would be stored
    if isinstance(ref, list):
        return _check_cell(got, ref)
    if op == "release":
        return _check_exact(got, ref, "release")  # the privacy wall: bit for bit
    return _check_report(got, ref, op)


def _check_exact(got, ref, path):
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object"
        for key, val in ref.items():
            if key not in got:
                return f"{path}.{key}: missing"
            why = _check_exact(got[key], val, f"{path}.{key}")
            if why:
                return why
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: expected a list of {len(ref)}"
        for i, (g, r) in enumerate(zip(got, ref)):
            why = _check_exact(g, r, f"{path}[{i}]")
            if why:
                return why
        return None
    if got != ref or type(got) is not type(ref):
        return f"{path}: {got!r} != {ref!r}"
    return None


def _flatten(value) -> list[float]:
    if isinstance(value, list):
        return [x for v in value for x in _flatten(v)]
    return [float(value)]


def _check_close(got, ref, path):
    g, r = _flatten(got), _flatten(ref)
    if len(g) != len(r):
        return f"{path}: shape differs"
    scale = max((abs(x) for x in r), default=0.0)
    for i, (a, b) in enumerate(zip(g, r)):
        if not abs(a - b) <= SOLVER_RTOL * max(abs(b), scale):
            return f"{path}[{i}]: {a!r} vs reference {b!r}"
    return None


def _check_report(got, ref, path):
    for key, val in ref.items():
        if key not in got:
            return f"{path}.{key}: missing"
        check = _check_close if key in REPORT_TOLERANCE_KEYS else _check_exact
        why = check(got[key], val, f"{path}.{key}")
        if why:
            return why
    return None


def _check_cell(got: list[dict], ref: list[dict]):
    if len(got) != len(ref):
        return f"{len(got)} rows, reference has {len(ref)}"
    for g, r in zip(got, ref):
        label = r.get("method", "row")
        reps = r["replications"]
        for col, b in r.items():
            if col not in g:
                return f"{label}.{col}: missing"
            a = g[col]
            if col in RATE_COLUMNS:
                # a CI endpoint moving by solver tolerance may flip one replication
                ok = abs(a - b) <= 1.0 / reps + 1e-12
            elif col in ESTIMATE_COLUMNS:
                ok = abs(a - b) <= SOLVER_RTOL * abs(b)
            elif col == "rel_error":
                ok = abs(a - b) <= SOLVER_RTOL * (1.0 + abs(b))
            elif col == "mc_se" and ("coverage" in r or "rejection_rate" in r):
                rate = g.get("coverage", g.get("rejection_rate"))
                ok = abs(a - math.sqrt(max(rate * (1.0 - rate), 0.0) / reps)) <= 1e-12
            else:
                ok = a == b and type(a) is type(b)
            if not ok:
                return f"{label}.{col}: {a!r} vs reference {b!r}"
    return None
