"""Self-tests of the benchmark's own machinery (no server is started).

    python3 -m unittest discover -s e2ebench
"""

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import loadgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import streams  # noqa: E402


class RequestStreams(unittest.TestCase):
    def _wire(self, workload, seed):
        warm, open_reqs, arrivals, closed, _wrap = run.http_streams(
            workload, seed, 6.0)
        encoded = [streams.encode(k, p) for k, p in warm + open_reqs + closed]
        return b"\n".join(encoded), repr(arrivals).encode()

    def test_same_seed_gives_byte_identical_stream(self):
        for workload in run.RATES:
            with self.subTest(workload=workload):
                self.assertEqual(self._wire(workload, 7), self._wire(workload, 7))
                self.assertNotEqual(self._wire(workload, 7),
                                    self._wire(workload, 8))

    def test_cold_requests_never_repeat(self):
        _warm, open_reqs, _arr, closed, wrap = run.http_streams(
            "cold_scalar", 1, 12.0)
        keys = [streams.request_key(k, p) for k, p in open_reqs + closed]
        self.assertEqual(len(keys), len(set(keys)))
        self.assertFalse(wrap)

    def test_cluster_pool_outgrows_the_shards_caches(self):
        pool = streams.cluster_pool()
        keys = {streams.request_key(k, p) for k, p in pool}
        self.assertEqual(len(keys), len(pool))
        self.assertGreaterEqual(len(pool), 16 * 2 * 256)


class PoissonSchedule(unittest.TestCase):
    def test_mean_rate_within_tolerance(self):
        for seed in range(5):
            arrivals = loadgen.poisson_schedule(200.0, 100.0,
                                                random.Random(seed))
            self.assertAlmostEqual(len(arrivals) / 100.0, 200.0, delta=6.0)
            self.assertEqual(arrivals, sorted(arrivals))
            self.assertLess(arrivals[-1], 100.0)


class Percentiles(unittest.TestCase):
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(loadgen.TooFewSamples):
            loadgen.percentile(range(999), 0.99)
        with self.assertRaises(loadgen.TooFewSamples):
            loadgen.percentile(range(19), 0.5)

    def test_reports_with_ten_beyond(self):
        values = list(range(1, 1001))
        random.Random(0).shuffle(values)
        self.assertEqual(loadgen.samples_beyond(1000, 0.99), 10)
        self.assertEqual(loadgen.percentile(values, 0.99), 990)
        self.assertEqual(loadgen.percentile(values, 0.5), 500)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_counts_overlapping_children_once(self):
        children = [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]
        self.assertAlmostEqual(spans.self_time(0.0, 10.0, children), 5.0)

    def test_children_are_clipped_to_the_parent(self):
        children = [(-2.0, 1.0), (9.0, 12.0), (20.0, 30.0)]
        self.assertAlmostEqual(spans.self_time(0.0, 10.0, children), 8.0)

    def test_nested_and_identical_children(self):
        children = [(2.0, 6.0), (3.0, 4.0), (2.0, 6.0)]
        self.assertAlmostEqual(spans.covered(0.0, 10.0, children), 4.0)
        self.assertAlmostEqual(spans.self_time(0.0, 10.0, []), 10.0)

    def test_wrapped_calls_record_parent_and_request(self):
        before = len(spans.SPANS)

        @spans.traced("inner")
        def inner():
            return 1

        @spans.traced("outer")
        def outer():
            return inner() + inner()

        outer()
        outer()
        recorded = spans.SPANS[before:]
        self.assertEqual([s[3] for s in recorded],
                         ["inner", "inner", "outer"] * 2)
        first, second = recorded[:3], recorded[3:]
        self.assertEqual({s[1] for s in first[:2]}, {first[2][0]})
        self.assertEqual(first[2][1], 0)
        self.assertEqual(len({s[2] for s in first}), 1)
        self.assertNotEqual(first[0][2], second[0][2])


if __name__ == "__main__":
    unittest.main()
