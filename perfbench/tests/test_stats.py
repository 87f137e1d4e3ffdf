"""The benchmark's own statistics: tail rule, self time, failure counting."""

import statistics

import pytest

from perfbench import stats
from perfbench.stats import Span


def test_tail_is_p90_from_a_hundred_samples():
    values = [float(v) for v in range(1, 101)]
    tail = stats.tail(values)
    assert tail.value == 90.0
    assert sum(1 for v in values if v > tail.value) == 10
    assert tail.percentile == pytest.approx(90.0)
    assert tail.samples == 100


def test_tail_climbs_a_nine_per_decade():
    assert stats.tail([float(v) for v in range(999)]).percentile == pytest.approx(90.0)
    tail = stats.tail([float(v) for v in range(1000)])
    assert tail.percentile == pytest.approx(99.0)
    assert tail.value == 989.0
    assert stats.tail([float(v) for v in range(25_000)]).percentile == pytest.approx(99.9)


def test_tail_keeps_at_least_ten_samples_beyond():
    for count in (100, 137, 999, 1000, 5432, 10_000, 123_456):
        values = [float(v) for v in range(count)]
        tail = stats.tail(values)
        beyond = sum(1 for v in values if v > tail.value)
        assert 10 <= beyond < 100


def test_tail_percentile_follows_the_guaranteed_count():
    values = [float(v) for v in range(3000)]
    tail = stats.tail(values, guaranteed=900)
    assert tail.percentile == pytest.approx(90.0)
    assert tail.value == 2699.0
    assert tail.samples == 3000


def test_tail_needs_a_hundred_samples():
    assert stats.tail([1.0] * 100).value == 1.0
    with pytest.raises(ValueError):
        stats.tail([1.0] * 99)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 500, guaranteed=99)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0, 7.0] * 25
    assert stats.tail(values) == stats.tail(sorted(values))


def test_chunked_median_of_a_steady_run_is_its_median():
    assert stats.chunked_median([2.0, 1.0, 3.0] * 10) == pytest.approx(2.0)


def test_chunked_median_weighs_phases_by_their_share():
    fast, slow = [1.0] * 60, [2.0] * 40
    assert statistics.median(fast + slow) == 1.0
    assert stats.chunked_median(fast + slow) == pytest.approx(1.4)
    assert stats.chunked_median(fast[:40] + slow + fast[:20]) == pytest.approx(1.4)


def test_chunked_median_needs_a_sample_per_chunk():
    assert stats.chunked_median([4.0] * 10) == 4.0
    with pytest.raises(ValueError):
        stats.chunked_median([4.0] * 9)


def test_self_time_subtracts_nested_children():
    spans = [
        Span("api", 0.0, 10.0, -1, "r1"),
        Span("broker", 1.0, 9.0, 0, "r1"),
        Span("validate", 2.0, 3.0, 1, "r1"),
        Span("match", 3.0, 7.0, 1, "r1"),
        Span("validate", 4.0, 5.0, 3, "r1"),
    ]
    self_s = stats.self_times(spans)
    assert self_s["api"] == pytest.approx(2.0)
    assert self_s["broker"] == pytest.approx(3.0)
    assert self_s["match"] == pytest.approx(3.0)
    assert self_s["validate"] == pytest.approx(2.0)
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_self_time_sums_repeated_roots():
    spans = [Span("api", 0.0, 1.0, -1, "a"), Span("api", 2.0, 4.0, -1, "b")]
    assert stats.self_times(spans) == {"api": pytest.approx(3.0)}


class _Delivery:
    def __init__(self, dispatched, failed=0, dropped=0, dead_lettered=0):
        self.dispatched = dispatched
        self.failed = failed
        self.dropped = dropped
        self.dead_lettered = dead_lettered


def test_failure_ratio_counts_calls_and_notifications():
    count = stats.FailureCount()
    count.add_calls(attempted=100, raised=2)
    count.add_calls(attempted=50, raised=1)
    count.add_delivery(_Delivery(dispatched=850, failed=3, dropped=2, dead_lettered=1))
    assert count.attempted == 1000
    assert count.failed == 9
    assert count.ratio == pytest.approx(0.009)


def test_failure_ratio_of_nothing_attempted_is_zero():
    assert stats.FailureCount().ratio == 0.0
