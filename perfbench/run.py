"""The dpss benchmark: one workload per process.

Usage, from the root of a dpss checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` runs passes of the workload until ``--seconds`` have gone by
and reports the end-to-end metrics.  ``--trace 1`` reports the per-layer
metrics instead: it times the workload untraced, then again with spans
around dpss's public functions (see tracing.py), single-process.  Every
pass is checked against the recorded reference outputs.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy loads: DPSS_THREADS
# processes must not each start a BLAS pool on the same cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference"
MIN_PASSES = 3
SETUP_PROBES = 5

# a fresh interpreter: import the CLI and run its first command, then
# time the yardstick in the same process for the host-speed correction
SETUP_PROBE = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dpss.cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    dpss.cli.main.main(["calibrate", "--sensitivity", "1", "--epsilon", "1",
                        "--delta", "1e-6"], standalone_mode=False)
elapsed = time.perf_counter() - t0
if not json.loads(buf.getvalue())["sigma"] > 0:
    sys.exit("calibrate returned no noise scale")
sys.path.insert(0, sys.argv[2])
import hostspeed
print(elapsed * hostspeed.scale(hostspeed.yardstick()))
"""

UNITS = {
    "pipeline_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_dpss():
    if not (SRC / "dpss" / "__init__.py").is_file():
        fail(f"no dpss sources under {SRC}; run from the root of a dpss checkout")
    sys.path.insert(0, str(SRC))
    import dpss

    if Path(dpss.__file__).resolve().parent != (SRC / "dpss").resolve():
        fail(f"imported dpss from {dpss.__file__}, not from {SRC}")
    return dpss


def set_threads(threads: int) -> int:
    threads = max(1, min(threads, len(os.sched_getaffinity(0))))
    os.environ["DPSS_THREADS"] = str(threads)
    return threads


def environment(dpss) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "dpss": dpss.__version__,
        "DPSS_THREADS": os.environ["DPSS_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Runner:
    """Runs and checks passes of one workload, counting operations."""

    def __init__(self, workload, ctx, reference: dict):
        self.workload = workload
        self.ctx = ctx
        self.variants = reference["variants"]
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, variant: int, span):
        result = self.workload.run_pass(self.ctx, variant, span)
        ref = self.variants[variant]
        for op in sorted(set(ref) | set(result.ops)):
            self.attempted += 1
            if op not in result.ops:
                why = "missing from the output"
            elif op in ref or isinstance(result.ops[op], Exception):
                why = workloads.check_op(op, result.ops[op], ref.get(op))
            else:
                why = "no reference output"
            if why:
                self.failures.append(f"variant {variant} {op}: {why}")
                print(f"FAILED variant {variant} {op}: {why}", file=sys.stderr)
        return result

    def run_passes(self, variants, span, seconds=None, min_passes=0) -> list:
        """Run passes over ``variants``; returns (variant, result, scale) per pass.

        With ``seconds``, stop once ``min_passes`` ran and another pass of
        average length would not fit.  ``scale`` converts the pass's wall
        seconds to seconds at the reference host speed, from the yardsticks
        timed around the pass.
        """
        results = []
        busy = 0.0
        before = hostspeed.yardstick()
        for i, variant in enumerate(variants):
            if seconds is not None and i >= min_passes and busy * (1 + 1 / i) > seconds:
                break
            result = self.run(variant, span)
            after = hostspeed.yardstick()
            busy += result.seconds
            results.append((variant, result, hostspeed.scale(before, after)))
            before = after
        return results


def cycle_variants(seed: int):
    """Variants seed, seed+1, ... modulo the number of variants, without end."""
    return ((seed + i) % workloads.N_VARIANTS for i in itertools.count())


def setup_seconds() -> float:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(Path(__file__).resolve().parent)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb(threads: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # pool workers run side by side, so count the largest one per worker
    return (own + (threads * child if threads > 1 else 0)) / 1024.0


def untraced(runner: Runner, seed: int, seconds: float, threads: int) -> tuple[dict, list]:
    results = runner.run_passes(cycle_variants(seed), workloads.no_span, seconds, MIN_PASSES)
    rss = peak_rss_mb(threads)  # before the set-up probes add children
    # totals over the whole window, in seconds at the reference host speed
    busy = sum(r.seconds * scale for _, r, scale in results)
    return {
        "pipeline_s": busy / len(results),
        "reps_per_s": sum(r.reps for _, r, _ in results) / busy,
        "peak_rss_mb": rss,
        "setup_s": setup_seconds(),
    }, results


def traced(runner: Runner, seed: int, seconds: float, threads: int) -> tuple[dict, list, dict]:
    """Untraced, then traced passes over the same variants, single-process for the spans."""
    first = runner.run_passes(cycle_variants(seed), workloads.no_span, seconds / 3.0, 2)
    variants = [v for v, _, _ in first]
    single = first
    if threads > 1:
        set_threads(1)
        single = runner.run_passes(variants, workloads.no_span)
    tracer = tracing.Tracer()
    missing = tracer.install()
    spans = runner.run_passes(variants, tracer.span)

    def wall(results):  # seconds at the reference host speed
        return sum(r.seconds * scale for _, r, scale in results)

    passes = len(spans)
    metrics = tracing.layer_metrics(tracer, passes, sum(r.reps for _, r, _ in spans))
    is_harness = runner.workload.name.startswith("mc_")
    if threads > 1:
        metrics["harness.pool_efficiency"] = wall(single) / (threads * wall(first))
    else:
        metrics["harness.pool_efficiency"] = 1.0 if is_harness else 0.0
    metrics["trace.overhead_frac"] = wall(spans) / wall(single) - 1.0
    metrics = {name: metrics[name] for name in tracing.PER_LAYER}

    tracer.save(OUT / f"spans-{runner.workload.name}-seed{seed}.npz")
    stress = stress_checks(runner.workload.name, metrics,
                           sum(r.seconds for _, r, _ in spans) / passes)
    info = {"missing_trace_targets": missing, "stress_checks": stress,
            "spans": len(tracer.start), "passes_per_phase": passes}
    return metrics, spans, info


def stress_checks(name: str, m: dict, pass_s: float):
    """Does the workload still load the layer it was chosen for?  ``pass_s``: traced pass."""
    checks = {
        "cli_logistic10k": [
            ("bootstrap share of a pass >= 0.7",
             m["estimate.parametric_bootstrap_s"] / pass_s, lambda x: x >= 0.7),
            ("expfam.fallback_ratio == 0", m["expfam.fallback_ratio"], lambda x: x == 0),
        ],
        "mc_clipping": [
            ("noise-aware share of a pass >= 0.75",
             m["estimate.noise_aware_mle_s"] / pass_s, lambda x: x >= 0.75),
        ],
        "mc_loweps_bootstrap": [
            ("expfam.fallback_ratio > 0.25", m["expfam.fallback_ratio"], lambda x: x > 0.25),
        ],
        "mc_gaussian": [
            ("no bootstrap or noise-aware calls (seconds in them == 0)",
             m["estimate.parametric_bootstrap_s"] + m["estimate.noise_aware_mle_s"],
             lambda x: x == 0),
        ],
    }[name]
    return [{"check": c, "value": v, "ok": bool(ok(v))} for c, v, ok in checks]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    dpss = import_dpss()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads((REFERENCE / f"{workload.name}.json").read_text())
    if reference["n_variants"] != workloads.N_VARIANTS:
        fail("reference outputs were recorded for another number of variants")
    threads = set_threads(workload.threads)
    env = environment(dpss)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        ctx = workloads.CliContext(SRC / "dpss", workdir) if workload.name.startswith("cli") else None
        runner = Runner(workload, ctx, reference)
        if args.trace:
            metrics, results, info = traced(runner, args.seed, args.seconds, threads)
            units = tracing.UNITS
        else:
            metrics, results = untraced(runner, args.seed, args.seconds, threads)
            units, info = UNITS, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "attempted": runner.attempted,
        "failed": failed, "failures": runner.failures[:50],
        "pass_seconds": [r.seconds for _, r, _ in results],
        "host_scale": [scale for _, _, scale in results],
        "variants": [v for v, _, _ in results], "metrics": metrics, **info,
    }
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(json.dumps({"environment": env}))
    for target in info.get("missing_trace_targets", []):
        print(f"trace target missing, its metrics read 0: {target}")
    for check in info.get("stress_checks", []):
        print(f"stress check {'ok  ' if check['ok'] else 'MISS'} {check['check']}: {check['value']:.4g}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(f"error_rate {failed / runner.attempted:.4g} of ops_attempted {runner.attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
