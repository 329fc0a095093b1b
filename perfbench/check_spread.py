"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a dpss checkout:

    python3 perfbench/check_spread.py [--seeds 1,2,...] [--trace 0|1] [workload ...]

For every workload and end-to-end metric this prints the median and the
spread: the distance between the first and third quartiles of the runs
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
spread should stay below a third of the metric's bound in BENCHMARK.json.
Each run's result line is appended to ``.bench_out/spread.jsonl`` and the
summary, with the environment, is written to ``.bench_out/spread-summary.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    log = ROOT / ".bench_out" / "spread.jsonl"
    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace, "seeds": seeds,
               "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result = run_once(name, seed, bench["run_seconds"], args.trace)
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            runs.append(result)
        walls = [r["wall_s"] for r in runs]
        failed = sum(r["failed"] for r in runs)
        print(f"{name}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed ops {failed}, all correct {all(r['correct'] for r in runs)}")
        record = ROOT / ".bench_out" / f"result-{name}-seed{seeds[-1]}-trace{args.trace}.json"
        stats = {}
        summary["environment"] = json.loads(record.read_text())["environment"]
        summary["workloads"][name] = {"attempted": sum(r["attempted"] for r in runs),
                                      "failed": failed, "metrics": stats}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            stats[metric] = {"unit": runs[0]["metrics"][metric]["unit"], "median": med,
                             "q1": q1, "q3": q3, "spread": spread, "values": values}
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"  {metric:45s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound if bound is not None else '-':>5}  {flag}")
    (ROOT / ".bench_out" / "spread-summary.json").write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
