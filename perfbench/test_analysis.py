"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import struct
import unittest

import analysis


class TailPercentileTest(unittest.TestCase):
    def test_p99_with_enough_samples(self):
        value, q, n = analysis.tail_percentile(range(1, 1001), 0.99)
        self.assertEqual((value, q, n), (990, 0.99, 1000))

    def test_lowered_until_ten_samples_lie_beyond(self):
        value, q, n = analysis.tail_percentile(range(1, 101), 0.99)
        self.assertEqual((value, n), (90, 100))
        self.assertAlmostEqual(q, 0.90)

    def test_rule_holds_for_every_size(self):
        for n in range(11, 2500):
            xs = list(range(n))
            value, q, _ = analysis.tail_percentile(xs, 0.99)
            beyond = sum(1 for x in xs if x > value)
            self.assertGreaterEqual(beyond, 10, n)
            # Either the true p99, or the highest one ten samples support.
            self.assertTrue(value == math.ceil(0.99 * n) - 1 or beyond == 10,
                            n)
            self.assertAlmostEqual(q, (value + 1) / n)

    def test_small_and_empty_samples(self):
        self.assertEqual(analysis.tail_percentile([5, 3, 4], 0.99)[0], 3)
        self.assertEqual(analysis.tail_percentile([], 0.99), (0.0, 0.0, 0))

    def test_unsorted_input_and_infinite_failures(self):
        xs = [math.inf] * 20 + list(range(980, 0, -1))
        self.assertEqual(analysis.tail_percentile(xs, 0.99)[0], math.inf)
        self.assertEqual(analysis.tail_percentile(xs, 0.5)[0], 500)


def record(latencies_ms, spacing_ns=1_000_000, passes=None):
    items = [{"ok": True, "pass": -1 if passes is None else i * passes //
              len(latencies_ms), "start_ns": i * spacing_ns,
              "done_ns": i * spacing_ns + int(lat * 1e6)}
             for i, lat in enumerate(latencies_ms)]
    return {"items": items, "setup_s": [0.5], "peak_rss_kb": 2048}


class WindowTest(unittest.TestCase):
    def test_time_windows_are_equal_spans(self):
        groups = analysis.windows(record([1.0] * 5000)["items"])
        self.assertEqual([len(g) for g in groups], [1000] * 5)

    def test_passes_stay_whole(self):
        items = record([1.0] * 42, passes=6)["items"]
        groups = analysis.windows(items)
        self.assertEqual(len(groups), 5)
        for g in groups:
            passes = {it["pass"] for it in g}
            whole = [it for it in items if it["pass"] in passes]
            self.assertEqual(len(g), len(whole))
        self.assertEqual(len(analysis.windows(items[:14])), 2)

    def test_stall_in_one_window_moves_no_figure(self):
        steady = [1.0 + (i % 7) for i in range(5000)]
        stalled = list(steady)
        stalled[1000:1100] = [200.0] * 100  # one stall, in the second fifth
        clean, _ = analysis.end_to_end(record(steady))
        hit, notes = analysis.end_to_end(record(stalled))
        self.assertEqual(clean, hit)
        self.assertAlmostEqual(clean["jobs_per_s"], 1000, delta=6)
        self.assertEqual(clean["job_p99_ms"], 7.0)
        self.assertEqual(clean["setup_s"], 0.5)
        self.assertEqual(clean["peak_rss_mb"], 2.0)
        self.assertIn("5 windows of 1000-1000 items", notes[1])
        self.assertIn("median over 5 windows", notes[2])

    def test_short_runs_take_the_tail_over_fewer_windows(self):
        metrics, notes = analysis.end_to_end(record(
            [float(i % 100) for i in range(250)]))
        self.assertIn("median over 2 windows of 125-125 items", notes[2])
        self.assertEqual(metrics["job_p99_ms"], 89.0)
        metrics, notes = analysis.end_to_end(record([1.0] * 99))
        self.assertIn("median over 1 windows of 99-99 items", notes[2])

    def test_failed_items_count_as_late(self):
        rec = record([1.0] * 5000)
        for it in rec["items"][::50]:
            it["ok"] = False
        metrics, _ = analysis.end_to_end(rec)
        self.assertEqual(metrics["job_p99_ms"], math.inf)
        self.assertAlmostEqual(metrics["jobs_per_s"], 980, delta=2)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_charge_each_level_once(self):
        spans = [("job", 0, 100, -1), ("exec", 10, 60, 0),
                 ("launch", 20, 30, 1)]
        self.assertEqual(analysis.self_times(spans), [50, 40, 10])

    def test_overlapping_children_count_their_union(self):
        spans = [("job", 0, 100, -1), ("submit", 10, 50, 0),
                 ("queue", 40, 70, 0)]
        self.assertEqual(analysis.self_times(spans)[0], 40)

    def test_disjoint_and_contained_children(self):
        spans = [("job", 0, 100, -1), ("a", 0, 10, 0), ("b", 20, 30, 0),
                 ("c", 22, 28, 0)]
        self.assertEqual(analysis.self_times(spans)[0], 80)

    def test_children_are_clipped_to_the_parent(self):
        spans = [("job", 0, 100, -1), ("late", 90, 150, 0),
                 ("early", -50, 5, 0)]
        self.assertEqual(analysis.self_times(spans)[0], 85)

    def test_empty_and_inverted_spans(self):
        spans = [("job", 0, 100, -1), ("inverted", 60, 40, 0),
                 ("empty", 50, 50, 0)]
        self.assertEqual(analysis.self_times(spans), [100, 0, 0])

    def test_span_table_groups_by_name(self):
        items = [{"spans": [["job", 0, 10, -1], ["executor", 2, 6, 0]]},
                 {"spans": [["job", 0, 20, -1], ["executor", 0, 20, 0]]}]
        table = analysis.span_table(items)
        self.assertEqual(table["job"], [6, 0])
        self.assertEqual(table["executor"], [4, 20])


def double_bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


class DigestTest(unittest.TestCase):
    def setUp(self):
        self.item = {"key": "openuh/gang/+/int/r256",
                     "model": [0, 1, 0x9E3779B97F4A7C15, 2, 1,
                               double_bits(12345.678), 6144, 31]}
        self.table = {self.item["key"]: analysis.item_digest(self.item)}

    def test_fnv1a_matches_the_reference_vector(self):
        # FNV-1a 64 of the single byte 0x61 ("a").
        h = analysis.FNV_OFFSET
        h = ((h ^ 0x61) * analysis.FNV_PRIME) & analysis.MASK64
        self.assertEqual(h, 0xAF63DC4C8601EC8C)
        self.assertNotEqual(analysis.fnv1a64([0]), analysis.fnv1a64([1]))

    def test_recorded_digest_passes(self):
        self.assertEqual(analysis.digest_mismatches([self.item], self.table),
                         [])

    def test_one_bit_change_in_any_modeled_word_is_caught(self):
        for word in range(len(self.item["model"])):
            for bit in (0, 31, 63):
                changed = dict(self.item)
                changed["model"] = list(self.item["model"])
                changed["model"][word] ^= 1 << bit
                bad = analysis.digest_mismatches([self.item, changed],
                                                 self.table)
                self.assertEqual([i for i, _ in bad], [1], (word, bit))

    def test_one_ulp_change_in_device_time_is_caught(self):
        changed = dict(self.item)
        changed["model"] = list(self.item["model"])
        changed["model"][5] = double_bits(math.nextafter(12345.678, math.inf))
        self.assertEqual(len(analysis.digest_mismatches([changed],
                                                        self.table)), 1)

    def test_unrecorded_key_is_a_mismatch(self):
        other = dict(self.item, key="openuh/gang/+/int/r1024")
        bad = analysis.digest_mismatches([other], self.table)
        self.assertIn("no recorded digest", bad[0][1])


if __name__ == "__main__":
    unittest.main()
