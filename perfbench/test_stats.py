"""Self-tests of the benchmark's own arithmetic.

Run with ``python3 -m unittest discover perfbench`` (or ``pytest perfbench``).
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402


def span(id, name, start, end, parent=None, req=None, served=None, attrs=None):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent,
            "req": req, "served": served, "attrs": attrs, "call": ""}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([3.0], 95), 3.0)

    def test_ten_samples_beyond(self):
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertTrue(stats.supported(100, 90))
        self.assertFalse(stats.supported(99, 90))
        self.assertTrue(stats.supported(200, 95))
        self.assertFalse(stats.supported(199, 95))
        self.assertTrue(stats.supported(21, 50))
        self.assertFalse(stats.supported(19, 50))

    def test_tail_percentile_picks_highest_supported(self):
        self.assertEqual(stats.tail_percentile(1000, (99, 95, 90)), 99)
        self.assertEqual(stats.tail_percentile(250, (99, 95, 90)), 95)
        self.assertEqual(stats.tail_percentile(120, (99, 95, 90)), 90)
        self.assertIsNone(stats.tail_percentile(60, (99, 95, 90)))

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)


class SelfTimes(unittest.TestCase):
    def tree(self):
        # Request "a" (thread 1): http 0-10 > service wait 1-9.
        # Request "b" (thread 2): http 2-11 > service wait 3-10.
        # Batcher thread: batch 4-8 served both waits > model 5-7.
        # The batch also waits on two overlapping pool calls, 7.55-7.9.
        return [
            span(1, "serve.http", 0.0, 10.0, req="a"),
            span(2, "serve.service", 1.0, 9.0, parent=1, req="a"),
            span(3, "serve.http", 2.0, 11.0, req="b"),
            span(4, "serve.service", 3.0, 10.0, parent=3, req="b"),
            span(5, "serve.service", 4.0, 8.0, served=[2, 4]),
            span(6, "(core.pipeline)", 5.0, 7.5, parent=5),
            span(7, "ml.predict", 5.0, 7.0, parent=6),
            span(8, "serve.supervisor", 7.6, 7.9, parent=5),
            span(9, "serve.supervisor", 7.55, 7.7, parent=5),
        ]

    def test_self_time_subtracts_same_and_cross_thread_children(self):
        selfs = stats.self_times(self.tree())
        self.assertAlmostEqual(selfs[1], 10.0 - 8.0)
        self.assertAlmostEqual(selfs[2], 8.0 - 4.0)  # batch 4-8 is its child
        self.assertAlmostEqual(selfs[4], 7.0 - 4.0)
        self.assertAlmostEqual(selfs[5], 4.0 - 2.5 - 0.35)
        self.assertAlmostEqual(selfs[6], 0.5)
        self.assertAlmostEqual(selfs[7], 2.0)

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [
            span(1, "x", 0.0, 10.0),
            span(2, "y", 2.0, 6.0, parent=1),
            span(3, "y", 4.0, 8.0, parent=1),
            span(4, "z", 9.0, 12.0, served=[1]),
        ]
        self.assertAlmostEqual(stats.self_times(spans)[1], 10.0 - 6.0 - 1.0)

    def test_requests_of_a_batch(self):
        reqs = stats.span_requests(self.tree())
        self.assertEqual(reqs[5], ["a", "b"])
        self.assertEqual(reqs[7], ["a", "b"])
        self.assertEqual(reqs[8], ["a", "b"])

    def test_request_layers_add_up_to_wall_time(self):
        table = stats.request_layers(self.tree())
        self.assertAlmostEqual(sum(table["a"].values()), 10.0)
        self.assertAlmostEqual(table["a"]["unattributed_s"], 0.5)  # container glue
        self.assertAlmostEqual(table["a"]["ml.predict"], 2.0)
        self.assertAlmostEqual(table["a"]["serve.service"], 4.0 + 4.0 - 2.5 - 0.35)
        # Overlapping pool waits count once, for every request of the batch.
        self.assertAlmostEqual(table["a"]["serve.supervisor"], 0.35)
        self.assertAlmostEqual(table["b"]["serve.supervisor"], 0.35)
        self.assertAlmostEqual(sum(table["b"].values()), 9.0)

    def test_layer_totals(self):
        spans = [span(1, "(root)", 0.0, 5.0), span(2, "ml.fit", 1.0, 4.0, parent=1)]
        self.assertEqual(stats.layer_totals(spans), {"unattributed_s": 2.0, "ml.fit": 3.0})


class ErrorRate(unittest.TestCase):
    def test_accounting(self):
        ledger = stats.Ledger()
        for op in ("1", "2", "3", "4"):
            ledger.attempt(op)
        ledger.fail("2", "HTTP 500")
        ledger.fail("2", "wrong answer")  # one operation fails once
        ledger.fail("4", "wrong answer")
        self.assertEqual((ledger.attempted, ledger.failed), (4, 2))
        self.assertAlmostEqual(ledger.error_rate, 0.5)
        self.assertEqual(ledger.reasons(), ["2: HTTP 500", "4: wrong answer"])

    def test_unattempted_failure_is_an_error(self):
        with self.assertRaises(KeyError):
            stats.Ledger().fail("x", "never sent")

    def test_nothing_attempted_is_not_a_success(self):
        self.assertEqual(stats.Ledger().error_rate, 1.0)


if __name__ == "__main__":
    unittest.main()
