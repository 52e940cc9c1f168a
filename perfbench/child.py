"""One pass of one workload in a fresh interpreter; started by run.py.

Usage: python3 perfbench/child.py --spawned-at T --workload W --seed N
       [--trace] [--probe]

T is the parent's CLOCK_MONOTONIC reading just before it started this
process, so set-up time covers interpreter start plus importing
``hyperzagreb.cli``, which is what a CLI user pays on every invocation.
Prints one JSON report line on stdout; the CLI's own output is captured.
"""

import os
import sys
import time

SPAWNED_AT = float(sys.argv[sys.argv.index("--spawned-at") + 1])
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import hyperzagreb.cli  # noqa: E402,F401

SETUP_S = time.monotonic() - SPAWNED_AT

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true", help="report set-up only")
    args = parser.parse_args()
    report = {"setup_s": SETUP_S}
    if args.probe:
        report["peak_rss_mib"] = _rss_mib()
        print(json.dumps(report))
        return

    api = workloads.library_api()
    failures = workloads.formula_mismatches()
    tracer = root = sampler = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(api)
        root = tracer.open(tracing.ROOT_SPAN)
    else:
        # Traced passes report raw self times; untraced ones sample the
        # machine's speed for the end-to-end metrics.
        sampler = speed.SpeedSampler()
        sampler.start()
    t0 = time.perf_counter_ns()
    result = workloads.WORKLOADS[args.workload](api, args.seed)
    t1 = time.perf_counter_ns()
    if sampler is not None:
        sampler.stop()
    wall_s = (t1 - t0) / 1e9
    failures += result.failures
    if tracer is not None:
        tracer.close(root)
        selfs = tracer.self_times()
        layers = tracing.layer_metrics(tracer, selfs, result.counts)
        self_sum = sum(selfs.values())
        if abs(self_sum - layers["trace.wall_s"]) > 1e-6 * max(1.0, self_sum):
            failures.append(f"self times sum to {self_sum}, traced wall {layers['trace.wall_s']}")
        report["layers"] = layers
        report["missing_entry_points"] = tracer.missing
    if sampler is not None:
        wall_s -= sampler.sampler_ns() / 1e9
        # The timed region runs from the first request's start to the last
        # one's end; input generation and output checks lie outside it.
        first = result.request_start_ns[0]
        last = result.request_start_ns[-1] + result.request_ns[-1]
        report.update(
            timed_s=(last - first - sampler.sampler_ns_within(first, last)) / 1e9,
            norm_wall_s=sampler.normalise_ns(first, last) / 1e9,
            norm_request_ns=[sampler.normalise_ns(a, a + d)
                             for a, d in zip(result.request_start_ns, result.request_ns)],
            speed=sampler.mean_speed(),
            speed_samples=len(sampler.starts),
        )
    report.update(
        wall_s=wall_s,
        items=result.items,
        attempted=result.attempted,
        failed=min(len(failures), result.attempted),
        failures=failures[:20],
        request_ns=result.request_ns,
        peak_rss_mib=_rss_mib(),
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
