"""Record the reference outputs that every benchmark pass is checked against.

Usage, from the root of a dpss checkout:

    python3 perfbench/record_reference.py [workload ...]

Runs every input variant of each workload once and writes
``perfbench/reference/<workload>.json``.  Re-record only on purpose: the
benchmark's output check exists to catch a change in these numbers.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

dpss = run.import_dpss()


def record(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    run.set_threads(workload.threads)
    variants = []
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        ctx = workloads.CliContext(run.SRC / "dpss", Path(tmp)) if name.startswith("cli") else None
        for v in range(workloads.N_VARIANTS):
            result = workload.run_pass(ctx, v, workloads.no_span)
            failed = [op for op, out in result.ops.items() if isinstance(out, Exception)]
            if failed:
                raise SystemExit(f"{name} variant {v}: operations failed: {failed}")
            variants.append(workloads.to_jsonable(result.ops))
            print(f"{name} variant {v}: {len(result.ops)} ops, {result.seconds:.2f} s", flush=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    payload = {
        "workload": name,
        "n_variants": workloads.N_VARIANTS,
        "recorded_with": {"dpss": dpss.__version__, "git_commit": commit or "unknown"},
        "variants": variants,
    }
    run.REFERENCE.mkdir(exist_ok=True)
    (run.REFERENCE / f"{name}.json").write_text(json.dumps(payload, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        record(name)
