"""Summary statistics of the benchmark: percentiles, self time, failures."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie beyond the reported tail.
TAIL_BEYOND = 10
#: Consecutive chunks a run's samples are split into for :func:`chunked_median`.
CHUNKS = 10


@dataclass(frozen=True)
class Tail:
    """The highest percentile that still has ``TAIL_BEYOND`` samples beyond it."""

    value: float
    percentile: float
    samples: int


def tail(values: Sequence[float], guaranteed: int | None = None) -> Tail:
    """Return the highest of p90, p99, p99.9, ... with ``TAIL_BEYOND`` samples above it.

    Percentiles are nearest-rank.  The p(100 - 100/10**k) rank leaves
    ``n // 10**k`` of ``n`` samples beyond it, so the tail is the largest
    ``k`` with ``n // 10**k >= TAIL_BEYOND``: p90 from 100 samples, p99
    from 1,000.  ``guaranteed``, when given, is the sample count every run
    takes (that of its fixed count window); ``k`` is chosen from it, so
    the percentile does not change with the speed of the run.  Fewer than
    ``10 * TAIL_BEYOND`` samples have no such tail and raise ``ValueError``.
    """
    count = len(values)
    basis = count if guaranteed is None else min(guaranteed, count)
    if basis < 10 * TAIL_BEYOND:
        raise ValueError(f"a tail needs at least {10 * TAIL_BEYOND} samples, got {basis}")
    nines = 1
    while basis // 10 ** (nines + 1) >= TAIL_BEYOND:
        nines += 1
    ordered = sorted(values)
    rank = count - count // 10**nines
    return Tail(ordered[rank - 1], 100.0 - 100.0 / 10**nines, count)


def chunked_median(values: Sequence[float]) -> float:
    """Return the mean of the medians of ``CHUNKS`` consecutive runs of ``values``.

    ``values`` are in the order they were taken.  The machine's speed
    drifts between phases lasting seconds; a plain median snaps to
    whichever phase holds the majority of a run, while the mean of chunk
    medians moves in proportion to the time spent in each.
    """
    count = len(values)
    if count < CHUNKS:
        raise ValueError(f"{CHUNKS} chunks need at least {CHUNKS} samples, got {count}")
    bounds = [count * index // CHUNKS for index in range(CHUNKS + 1)]
    return statistics.fmean(
        statistics.median(values[low:high]) for low, high in zip(bounds, bounds[1:])
    )


@dataclass(frozen=True)
class Span:
    """One timed call at a layer boundary."""

    name: str
    start: float
    end: float
    #: Index of the enclosing span in the same span list (-1: a root).
    parent: int
    #: The publish call or churn operation the span served.
    request: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Return per-name self time: each span's duration minus its children's.

    Children of one span run one after another on its thread, so the part
    of the parent's interval they cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        totals[span.name] = totals.get(span.name, 0.0) + span.duration - child_time[index]
    return totals


@dataclass
class FailureCount:
    """Failed operations against attempted ones.

    Attempts are publish calls, churn operations and notifications handed
    to the delivery layer; failures are publish or churn calls that raised
    plus notifications that failed, were dropped or were dead-lettered.
    """

    attempted: int = 0
    failed: int = 0

    def add_calls(self, attempted: int, raised: int) -> None:
        self.attempted += attempted
        self.failed += raised

    def add_delivery(self, delivery) -> None:
        """Fold a ``DeliveryStats`` snapshot in."""
        self.attempted += delivery.dispatched
        self.failed += delivery.failed + delivery.dropped + delivery.dead_lettered

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

