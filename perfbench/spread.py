"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):
    python3 perfbench/spread.py --workloads verify-claims,certify,graph-io \
        --seeds 1..10 [--trace-seed 1] [--out perfbench/baseline.json]

Runs are sequential.  For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to the bound in BENCHMARK.json.  With --trace-seed it also makes
two traced runs on that seed per workload and checks that their counts agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py invocation: (result line, env line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    env = json.loads(next(line[5:] for line in lines if line.startswith("env: ")))
    return json.loads(lines[-1]), env


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1..10", help="LO..HI")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lo, hi = map(int, args.seeds.split(".."))
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(lo, hi + 1):
            result, env = bench_run(workload, seed, bench["run_seconds"], 0)
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "env": env,
            "seeds": [lo, hi],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {
                name: dict(spread([r["metrics"][name]["value"] for r in runs]),
                           unit=runs[0]["metrics"][name]["unit"], bound=bounds[name])
                for name in bounds
            },
        }
        for name, s in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name}: median {s['median']:.6g} spread {s['spread']:.3%} "
                  f"(bound {s['bound']:.0%}){flag}")
        if args.trace_seed is not None:
            traced = [bench_run(workload, args.trace_seed, bench["run_seconds"], 1)[0]
                      for _ in range(2)]
            layers = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
            counts = [{k: v for k, v in lay.items() if not k.endswith("_s")} for lay in layers]
            entry["trace_seed"] = args.trace_seed
            entry["per_layer"] = layers[0]
            entry["trace_counts_repeat"] = counts[0] == counts[1]
            print(f"  traced counts repeat exactly: {entry['trace_counts_repeat']}")
        summary[workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(e["correct"] for e in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
