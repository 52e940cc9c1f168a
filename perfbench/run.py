"""Benchmark runner: runs each pass of a workload in a fresh interpreter.

Usage (from the repository root):
    python3 perfbench/run.py --workload {verify-claims,certify,graph-io}
        --seed N --seconds S --trace {0,1}

Every pass is a new child process, started one at a time, so each pays the
import and the library's lazy caches as a CLI invocation does.  With
--trace 0 it runs set-up probes and enough passes to fill about S seconds
at the seed commit's speed (a fixed count for a given S, so both sides of a
comparison do the same work), then prints the end-to-end metrics.  With
--trace 1 it runs one untraced and one traced pass and prints the per-layer
metrics.  The last stdout line is the JSON result; the exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import speed
from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("verify-claims", "certify", "graph-io")
# Typical seconds per pass at the seed commit (shared 2-core x86-64,
# Python 3.11); only sets how many passes fit in --seconds.
NOMINAL_PASS_S = {"verify-claims": 7.5, "certify": 4.5, "graph-io": 2.0}
MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 2
DEADLINE_S = 170.0

# Every timing here is read at the reference speed (see speed.py): raw time,
# less the sampler's own, times the machine's measured speed relative to the
# reference -- sampled through the timed region for the norm_ metrics, and
# just before the spawn for setup_s.  Raw figures are printed alongside.
END_TO_END = (
    ("norm_wall_s", "s"),
    ("norm_items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("norm_request_p50_us", "us"),
    ("norm_request_p99_us", "us"),
)


class ChildFailed(RuntimeError):
    pass


def plan_passes(workload: str, seconds: int) -> int:
    """Passes per run: fixed by the workload and --seconds alone."""
    return max(MIN_PASSES, int(seconds / NOMINAL_PASS_S[workload]))


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def tail_percentile(samples: list[float]) -> tuple[str, float]:
    """The 99th percentile when ten or more samples lie beyond it, else the
    highest nearest-rank percentile that has ten beyond; the maximum when
    there are ten samples or fewer.  Returns (label, value)."""
    xs = sorted(samples)
    n = len(xs)
    rank = min(math.ceil(0.99 * n), n - 10)  # 1-based nearest rank
    if rank < 1:
        return f"max of {n}", xs[-1]
    return f"p{100 * rank / n:.4g} of {n}", xs[rank - 1]


def run_child(workload: str, seed: int, deadline: float, *, trace=False, probe=False) -> dict:
    argv = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    if trace:
        argv.append("--trace")
    if probe:
        argv.append("--probe")
    # Bytecode caches go to the ignored build directory and are always used,
    # as for an installed CLI, whatever the caller's environment says.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(ROOT, ".bench_build", "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("time budget exhausted")
    # The machine's speed just before the spawn reads set-up time at the
    # reference speed, as the child's sampler does for its timed region.
    speed_at_spawn = speed.speed_now()
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            argv + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} pass exceeded the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["raw_setup_s"] = report["setup_s"]
    report["setup_s"] *= speed_at_spawn
    return report


def end_to_end(reports: list[dict], setups: list[float]) -> tuple[dict, str]:
    """End-to-end metrics from the untraced passes; also the tail's label."""
    requests_us = [ns / 1000 for r in reports for ns in r["norm_request_ns"]]
    tail_label, tail = tail_percentile(requests_us)
    values = {
        "norm_wall_s": statistics.median(r["norm_wall_s"] for r in reports),
        "norm_items_per_s": statistics.median(r["items"] / r["norm_wall_s"] for r in reports),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reports),
        "norm_request_p50_us": statistics.median(requests_us),
        "norm_request_p99_us": tail,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}, tail_label


def raw_figures(reports: list[dict], probes: list[dict]) -> str:
    """The unnormalised timings and the speed they were read at."""
    requests_us = [ns / 1000 for r in reports for ns in r["request_ns"]]
    return (f"raw wall_s {statistics.median(r['timed_s'] for r in reports):.6g}; "
            f"raw setup_s {statistics.median(r['raw_setup_s'] for r in probes + reports):.6g}; "
            f"raw request_p50_us {statistics.median(requests_us):.6g}; "
            f"relative speed {statistics.median(r['speed'] for r in reports):.4g} "
            f"({sum(r['speed_samples'] for r in reports)} samples)")


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced["wall_s"]
    return {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}


def outcome(reports: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed}


def environment(args) -> dict:
    """What a result must carry so runs from different boxes are not mixed."""
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hyperzagreb", "cli.py")):
        print(f"error: no src/hyperzagreb under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = environment(args)
    print("env: " + json.dumps(env, sort_keys=True))
    try:
        run_child(args.workload, args.seed, deadline, probe=True)  # writes bytecode caches
        if args.trace:
            untraced = run_child(args.workload, pass_seed(args.seed, 0), deadline)
            traced = run_child(args.workload, pass_seed(args.seed, 0), deadline, trace=True)
            reports = [untraced, traced]
            metrics = per_layer(untraced, traced)
            if traced["missing_entry_points"]:
                print("missing entry points: " + ", ".join(traced["missing_entry_points"]))
        else:
            # Set-up probes sit between the passes, so their median spans the
            # whole run rather than one stretch of it.
            reports, probes = [], []
            for i in range(plan_passes(args.workload, args.seconds)):
                for _ in range(SETUP_PROBES_PER_PASS):
                    probes.append(run_child(args.workload, args.seed, deadline, probe=True))
                # Each pass draws its inputs from its own seed, so a run's pooled
                # requests cover several corpora and the tail does not hang on one.
                reports.append(run_child(args.workload, pass_seed(args.seed, i), deadline))
            setups = [r["setup_s"] for r in probes + reports]
            metrics, tail_label = end_to_end(reports, setups)
            print(f"passes: {len(reports)}; setup samples: {len(setups)}; "
                  f"request samples: {sum(len(r['request_ns']) for r in reports)}; "
                  f"norm_request_p99_us is the {tail_label}")
            print(raw_figures(reports, probes))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = outcome(reports)
    for r in reports:
        for msg in r["failures"]:
            print(f"check failed: {msg}")
    print(f"fail_ratio: {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
