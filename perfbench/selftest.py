"""Checks for the benchmark's own helpers.

Usage (from the repository root): python3 perfbench/selftest.py
"""

import contextlib
import io
import json
import os
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class ManualClock:
    """A clock that only moves when the test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = ManualClock()
        t = tracing.Tracer(clock)

        def leaf(cost):
            clock.now += cost

        c = t.wrap_call("c", leaf)
        d = t.wrap_call("d", leaf)

        def b_body():
            clock.now += 1
            c(4)

        b = t.wrap_call("b", b_body)

        def a_body():
            clock.now += 2
            b()
            d(3)
            clock.now += 5

        a = t.wrap_call("a", a_body)
        root = t.open("root")
        a()
        t.close(root)
        self.assertEqual(t.self_times(), {"root": 0, "a": 7, "b": 1, "c": 4, "d": 3})
        self.assertEqual(sum(t.self_times().values()), clock.now)
        self.assertEqual(t.counts["c.calls"], 1)

    def test_generator_spans_cover_each_next(self):
        clock = ManualClock()
        t = tracing.Tracer(clock)

        def leaf():
            clock.now += 5

        wleaf = t.wrap_call("leaf", leaf)

        def gen():
            for i in range(2):
                clock.now += 2
                wleaf()
                yield i

        wgen = t.wrap_gen("gen", gen)

        def consumer():
            for _ in wgen():
                clock.now += 1  # consumer work between next() calls

        root = t.open("root")
        t.wrap_call("consumer", consumer)()
        t.close(root)
        selfs = t.self_times()
        self.assertEqual(selfs, {"root": 0, "consumer": 2, "gen": 4, "leaf": 10})
        self.assertEqual(sum(selfs.values()), clock.now)
        self.assertEqual(t.counts["gen.yielded"], 2)
        self.assertEqual(t.counts["gen.calls"], 1)

    def test_raised_exceptions_close_spans_and_count(self):
        t = tracing.Tracer()

        def bad():
            raise ValueError("no")

        wbad = t.wrap_call("bad", bad)
        with self.assertRaises(ValueError):
            wbad()
        self.assertEqual(t.counts["bad.raised"], 1)
        self.assertEqual(t._open, [-1])


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_the_code(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]], list(tracing.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


class TailPercentileTest(unittest.TestCase):
    def test_p99_when_ten_lie_beyond(self):
        label, value = run.tail_percentile(list(range(1, 4001)))
        self.assertEqual((label, value), ("p99 of 4000", 3960))

    def test_lower_percentile_keeps_ten_beyond(self):
        for n in range(11, 1200):
            samples = list(range(n))
            _, value = run.tail_percentile(samples)
            self.assertGreaterEqual(sum(1 for x in samples if x > value), 10, n)
        self.assertEqual(run.tail_percentile(list(range(100))), ("p90 of 100", 89))

    def test_maximum_when_ten_or_fewer(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), ("max of 3", 3.0))


class SpeedTest(unittest.TestCase):
    REF = speed.REFERENCE_NS

    def half_speed_sampler(self, count: int) -> speed.SpeedSampler:
        """Samples every 50 ms from t=0, each taking twice the reference."""
        sampler = speed.SpeedSampler()
        for k in range(count):
            sampler.record(k * 50_000_000, k * 50_000_000 + 2 * self.REF)
        return sampler

    def test_sampler_time_removed_and_speed_applied(self):
        sampler = self.half_speed_sampler(40)
        # [0, 1 s) holds samples 0..19; 1 s of wall less their time, at half speed.
        want = (1_000_000_000 - 20 * 2 * self.REF) * 0.5
        self.assertAlmostEqual(sampler.normalise_ns(0, 1_000_000_000), want)
        self.assertEqual(sampler.sampler_ns_within(0, 1_000_000_000), 20 * 2 * self.REF)

    def test_short_span_reads_the_window_around_it(self):
        sampler = self.half_speed_sampler(40)
        # A fast sample right next to the span is averaged with its neighbours.
        sampler.starts[10] += 1
        sampler.ends[10] = sampler.starts[10] + self.REF // 2
        start = 10 * 50_000_000 + 10_000_000
        mean_speed = (9 * 0.5 + 2.0) / 10  # samples 6..15 start within 0.25 s
        self.assertAlmostEqual(sampler.normalise_ns(start, start + 100_000),
                               100_000 * mean_speed)

    def test_nearest_sample_when_none_is_near(self):
        sampler = self.half_speed_sampler(3)
        far = 10_000_000_000
        self.assertAlmostEqual(sampler.normalise_ns(far, far + 1000), 500.0)

    def test_timer_takes_samples(self):
        sampler = speed.SpeedSampler(interval_s=0.01)
        sampler.start()
        try:
            end = speed.time.perf_counter() + 0.2
            while speed.time.perf_counter() < end:
                pass
        finally:
            sampler.stop()
        self.assertGreaterEqual(len(sampler.starts), 3)
        self.assertTrue(all(e > s for s, e in zip(sampler.starts, sampler.ends)))
        self.assertGreater(sampler.mean_speed(), 0)


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        a = workloads.graphio_corpus(7)
        b = workloads.graphio_corpus(7)
        self.assertEqual(repr(a).encode(), repr(b).encode())
        self.assertNotEqual(a, workloads.graphio_corpus(8))

    def test_shape(self):
        corpus = workloads.graphio_corpus(3)
        self.assertEqual(len(corpus), 2 * workloads.GRAPHIO_PAIRS + workloads.GRAPHIO_MALFORMED)
        self.assertTrue(all(len(r.text.encode("ascii")) == len(r.text) for r in corpus))
        pairs = [r.pair for r in corpus if r.op != "malformed"]
        self.assertTrue(all(pairs.count(p) == 2 for p in set(pairs[:50])))


class FormulaTest(unittest.TestCase):
    def test_small_orders(self):
        self.assertEqual([workloads.free_tree_count(n) for n in range(1, 9)],
                         [1, 1, 1, 2, 3, 6, 11, 23])
        self.assertEqual([workloads.unicyclic_count(n) for n in range(3, 11)],
                         [1, 2, 5, 13, 33, 89, 240, 657])

    def test_pinned_counts_match(self):
        self.assertEqual(workloads.formula_mismatches(), [])


class PlantedFailureTest(unittest.TestCase):
    OUT = '{"verdict": "fail"}\n'

    def check(self, **overrides):
        args = dict(code=1, out=self.OUT, classes=10, want_code=1, want_verdict="fail",
                    want_sha=workloads._sha256(self.OUT), want_classes=10)
        args.update(overrides)
        return workloads.check_verify_claim(["verify", "unicyclic", "15"], **args)

    def test_pinned_outcome_passes(self):
        self.assertEqual(self.check(), [])

    def test_wrong_digest_count_or_exit_fails(self):
        self.assertTrue(self.check(want_sha="0" * 64))
        self.assertTrue(self.check(classes=9))
        self.assertTrue(self.check(code=0))

    def test_wrong_index_fails_graphio_check(self):
        req = next(r for r in workloads.graphio_corpus(1) if r.op == "compute")
        reply = workloads.serve(workloads.library_api(), req)
        self.assertIsNone(workloads.check_reply(req, reply))
        planted = workloads.Request(req.pair, req.op, req.fmt, req.text, req.n, req.m, req.hm + 1)
        self.assertIsNotNone(workloads.check_reply(planted, reply))

    def test_failed_pass_fails_the_run(self):
        report = {"setup_s": 0.1, "raw_setup_s": 0.1, "wall_s": 1.0, "timed_s": 1.0,
                  "norm_wall_s": 1.0, "items": 5, "attempted": 2, "failed": 1,
                  "failures": ["planted"], "request_ns": [1000, 2000],
                  "norm_request_ns": [1000.0, 2000.0], "speed": 1.0, "speed_samples": 20,
                  "peak_rss_mib": 20.0}
        out = io.StringIO()
        with mock.patch.object(run, "run_child", return_value=report), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", "certify", "--seed", "1", "--seconds", "1"])
        self.assertEqual(code, 1)
        self.assertIn('"correct": false', out.getvalue().splitlines()[-1])


if __name__ == "__main__":
    unittest.main()
