"""Set up, drive and check one workload run against ``repro.api.FilterService``.

Load model: one process, one publishing thread in a closed loop.  Each
``publish_batch`` is a synchronous library call the loop waits for; after
every batch it sends the workload's cancel + subscribe pairs.  The loop
runs until the time budget is spent and the count window is done, then
finishes the current cycle of batches (see :attr:`Workload.cycle`) and
drains delivery.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import stats
from perfbench.tracing import (
    ADAPTIVE_BUILD,
    ADAPTIVE_MATCH,
    ADAPTIVE_REPLAN,
    API_PUBLISH,
    BROKER_PUBLISH,
    BROKER_SUBSCRIBE,
    DISPATCH,
    DRAIN,
    HISTORY_OBSERVE,
    LOG_DELIVER,
    MAINTENANCE,
    MATCHER_MATCH,
    VALIDATE,
    WAL_APPEND,
    WAL_COMPACT,
    Instrumentation,
    Tracer,
    traced_registry,
)
from perfbench.workloads import MAX_WORKERS, Inputs, Workload


@dataclass
class Service:
    """A service under test plus what the benchmark attached to it."""

    service: object
    handles: list
    #: ``(broker clock of the event, perf_counter at receipt)`` per sink call.
    receipts: list
    store_dir: Path | None


#: With sinks, the notifications of one event in this many are notify
#: samples, which puts the tail of ``fanout-ranges`` at p90.  One event in
#: ten put it at p99, which the run's few longest garbage collections
#: decide (up to 0.35 s each, as the notification log grows by 0.8 to 1
#: million notifications a run); over ten runs it spread 0.40.
NOTIFY_SAMPLE_EVERY = 100


def _counting_sink(receipts: list):
    clock = time.perf_counter

    def sink(notification) -> None:
        receipts.append((notification.delivered_at, clock()))

    return sink


def set_up(
    workload: Workload, inputs: Inputs, workdir: Path, registry=None
) -> tuple[Service, float]:
    """Build one service, returning it and its set-up seconds.

    Set-up covers service construction, store open, ``subscribe_all`` and
    sink attachment: everything up to the first publish.
    """
    from repro.api import FilterService
    from repro.service.adaptive import AdaptationPolicy
    from repro.service.durability.wal import JsonlWalStore

    corpus = inputs.corpus
    policy = AdaptationPolicy(
        engine=workload.engine, registry=registry, **corpus.engine.policy_overrides()
    )
    store_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=workdir)) if workload.wal else None
    receipts: list = []
    started = time.perf_counter()
    options = {"store": JsonlWalStore(store_dir)} if store_dir is not None else {}
    service = FilterService.from_profile(
        corpus,
        engine=workload.engine,
        policy=policy,
        adaptive=workload.adaptive,
        delivery=workload.delivery,
        max_workers=MAX_WORKERS,
        **options,
    )
    handles = service.subscribe_all(inputs.profiles)
    if workload.sinks:
        sink = _counting_sink(receipts)
        for handle in handles:
            handle.deliver_to(sink)
    elapsed = time.perf_counter() - started
    return Service(service, handles, receipts, store_dir), elapsed


def tear_down(run: Service) -> None:
    run.service.close()
    if run.store_dir is not None:
        shutil.rmtree(run.store_dir, ignore_errors=True)


def counts(service, store_dir: Path | None) -> dict:
    """Return the deterministic counts of a service at this point."""
    snapshot = service.stats()
    kernel = snapshot.kernel
    durability = snapshot.durability
    executed = (
        kernel.executed_operations / kernel.events
        if kernel.events
        else snapshot.average_operations_per_event
    )
    return {
        "events": snapshot.events,
        "notifications": snapshot.notifications,
        "charged_ops_per_event": snapshot.average_operations_per_event,
        "executed_ops_per_event": executed,
        "dedup_factor": snapshot.batch_dedup_factor,
        "matches_per_event": snapshot.average_matches_per_event,
        "adaptation_checks": len(snapshot.adaptations),
        "adaptations_applied": snapshot.applied_adaptations,
        "engine_family": snapshot.engine_family,
        "wal_appends": durability.appended if durability else 0,
        "wal_snapshots": durability.snapshots if durability else 0,
        "wal_bytes": _dir_bytes(store_dir),
    }


def _dir_bytes(path: Path | None) -> int:
    if path is None:
        return 0
    return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())


@dataclass
class LoopResult:
    """What one timed publish loop observed."""

    batches: int = 0
    events: int = 0
    elapsed: float = 0.0
    publish_latencies: list = field(default_factory=list)
    handoffs: list = field(default_factory=list)
    notifications_per_batch: list = field(default_factory=list)
    churn_latencies: list = field(default_factory=list)
    #: Batch index -> publish outcomes, for the batches sampled for checking.
    kept: dict = field(default_factory=dict)
    #: ``(batch index, cancelled profile id, subscribed profile)`` per pair.
    churn_log: list = field(default_factory=list)
    publish_raised: int = 0
    churn_raised: int = 0
    #: Deterministic counts and peak memory at the end of the count window.
    counts: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0


def publish_loop(
    workload: Workload,
    inputs: Inputs,
    run: Service,
    seconds: float,
    tracer: Tracer | None = None,
) -> LoopResult:
    """Publish batches and churn subscriptions until the budget is spent."""
    service = run.service
    batches = inputs.batches
    pool = deque(inputs.replacements)
    active = deque(run.handles)
    sink = _counting_sink(run.receipts) if workload.sinks else None
    count_notifications = not workload.sinks
    result = LoopResult()
    latencies = result.publish_latencies
    handoffs = result.handoffs
    churn_latencies = result.churn_latencies
    clock = time.perf_counter
    paused = 0.0
    started = clock()
    deadline = started + seconds
    index = 0
    while not (
        index >= workload.count_window and index % workload.cycle == 0 and clock() >= deadline
    ):
        if tracer is not None:
            tracer.request = f"publish-{index}"
        batch = batches[index % len(batches)]
        before = clock()
        try:
            outcomes = service.publish_batch(batch)
        except Exception:
            outcomes = None
            result.publish_raised += 1
        after = clock()
        latencies.append(after - before)
        handoffs.append(before)
        if count_notifications:
            result.notifications_per_batch.append(
                sum(len(outcome.notifications) for outcome in outcomes) if outcomes else 0
            )
        if index % workload.check_every == 0:
            result.kept[index] = outcomes
        for pair in range(workload.churn_pairs):
            if tracer is not None:
                tracer.request = f"churn-{index}-{pair}"
            leaving = active.popleft()
            arriving = pool.popleft()
            try:
                before = clock()
                leaving.cancel()
                handle = service.subscribe(arriving, sink=sink)
                after = clock()
            except Exception:
                result.churn_raised += 1
                continue
            churn_latencies.append(after - before)
            pool.append(leaving.profile)
            active.append(handle)
            result.churn_log.append((index, leaving.profile.profile_id, arriving))
        index += 1
        if index == workload.count_window:
            pause = clock()
            result.counts = counts(service, run.store_dir)
            result.peak_rss_mb = peak_rss_mb()
            paused += clock() - pause
    if tracer is not None:
        tracer.request = "drain"
    service.drain()
    result.elapsed = clock() - started - paused
    result.batches = index
    result.events = index * workload.batch
    return result


def check(workload: Workload, inputs: Inputs, run: Service, result: LoopResult) -> list[str]:
    """Return every mismatch against the ``naive`` family and the delivery laws.

    Replays the run's subscription changes on a naive matcher and compares
    the matched profile ids of every event of every sampled batch.  Then
    checks sink receipts against notifications and the delivery
    conservation law.
    """
    from repro.core.profiles import ProfileSet
    from repro.matching.naive import NaiveMatcher

    errors: list[str] = []
    naive = NaiveMatcher(ProfileSet(inputs.schema))
    naive.add_profiles(inputs.profiles)
    changes = deque(result.churn_log)
    for index in range(result.batches):
        outcomes = result.kept.get(index)
        if outcomes is not None:
            batch = inputs.batches[index % len(inputs.batches)]
            if len(outcomes) != len(batch):
                errors.append(f"batch {index}: {len(outcomes)} outcomes for {len(batch)} events")
            for position, (event, outcome) in enumerate(zip(batch, outcomes)):
                expected = sorted(naive.match(event).matched_profile_ids)
                got = sorted(outcome.match_result.matched_profile_ids)
                if got != expected:
                    errors.append(f"batch {index} event {position}: {got} != naive {expected}")
        while changes and changes[0][0] == index:
            _, cancelled, subscribed = changes.popleft()
            naive.remove_profile(cancelled)
            naive.add_profile(subscribed)

    snapshot = run.service.stats()
    delivery = snapshot.delivery
    settled = delivery.delivered + delivery.failed + delivery.dropped + delivery.dead_lettered
    if delivery.pending or delivery.dispatched != settled:
        errors.append(
            f"delivery conservation broken: dispatched {delivery.dispatched}, settled "
            f"{settled}, pending {delivery.pending}"
        )
    if len(run.receipts) != delivery.delivered:
        errors.append(f"sinks received {len(run.receipts)}, delivered {delivery.delivered}")
    if workload.sinks and delivery.dispatched != snapshot.notifications:
        errors.append(
            f"{snapshot.notifications} notifications but {delivery.dispatched} dispatched"
        )
    return errors


def failures(result: LoopResult, service) -> stats.FailureCount:
    count = stats.FailureCount()
    count.add_calls(result.batches, result.publish_raised)
    churn_ops = 2 * len(result.churn_log) + result.churn_raised
    count.add_calls(churn_ops, result.churn_raised)
    count.add_delivery(service.stats().delivery)
    return count


def _sampled(clock: float) -> bool:
    """Whether the notifications of the event at this broker clock are notify samples."""
    return int(clock) % NOTIFY_SAMPLE_EVERY == 0


def notify_latencies(workload: Workload, run: Service, result: LoopResult) -> list[float]:
    """Return seconds from a batch's hand-off to each of its notifications' receipt.

    With sinks, the receipt is the sink call, and the notifications of
    every ``NOTIFY_SAMPLE_EVERY``-th event are the samples.  Without, the
    subscriber is the publishing caller, which receives all of a batch's
    notifications together when ``publish_batch`` returns, so each batch
    that produced any is one sample.
    """
    if not workload.sinks:
        return [
            latency
            for latency, notified in zip(result.publish_latencies, result.notifications_per_batch)
            if notified
        ]
    handoffs = result.handoffs
    size = workload.batch
    return [
        received - handoffs[(int(clock) - 1) // size]
        for clock, received in run.receipts
        if _sampled(clock)
    ]


def window_samples(workload: Workload, run: Service, result: LoopResult) -> dict:
    """Return how many samples of each kind the count window took.

    These counts repeat exactly for a given seed, so the tail percentiles
    chosen from them do too.
    """
    window = workload.count_window
    if workload.sinks:
        last = window * workload.batch
        notify = sum(1 for clock, _ in run.receipts if clock <= last and _sampled(clock))
    else:
        notify = sum(1 for notified in result.notifications_per_batch[:window] if notified)
    return {
        "publish": window,
        "notify": notify,
        "churn": sum(1 for index, _, _ in result.churn_log if index < window),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    workload: Workload, run: Service, result: LoopResult, setup_s: float
) -> tuple[dict, dict]:
    """Return the end-to-end metrics and the tail details behind them."""
    samples = {
        "publish": result.publish_latencies,
        "notify": notify_latencies(workload, run, result),
        "churn": result.churn_latencies,
    }
    window = window_samples(workload, run, result)
    tails = {name: stats.tail(values, window[name]) for name, values in samples.items()}
    failed = failures(result, run.service)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_eps": (result.events / result.elapsed, "events/s"),
    }
    for name, values in samples.items():
        metrics[f"{name}_p50_ms"] = (stats.chunked_median(values) * 1e3, "ms")
        metrics[f"{name}_tail_ms"] = (tails[name].value * 1e3, "ms")
    metrics["peak_rss_mb"] = (result.peak_rss_mb, "MB")
    metrics["success_ratio"] = (1.0 - failed.ratio, "ratio")
    details = {
        "failure_ratio": failed.ratio,
        "attempted": failed.attempted,
        "failed": failed.failed,
        "tails": {
            f"{name}_tail_ms": {"percentile": tail.percentile, "samples": tail.samples}
            for name, tail in tails.items()
        },
    }
    return metrics, details


def per_layer(tracer: Tracer, run: Service, result: LoopResult, untraced_eps: float) -> dict:
    """Return the per-layer metrics of a traced run."""
    spans = tracer.spans()
    self_s = stats.self_times(spans)

    def layer(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    validations = sum(
        1 for span in spans if span.name == VALIDATE and span.request.startswith("publish-")
    )
    dispatched_at = dict(tracer.dispatches)
    waits = [received - dispatched_at[clock] for clock, received in run.receipts]
    delivery = run.service.stats().delivery
    window = result.counts
    return {
        "api.publish_self_s": (layer(API_PUBLISH), "s"),
        "service.broker.publish_self_s": (layer(BROKER_PUBLISH), "s"),
        "service.broker.subscribe_self_s": (layer(BROKER_SUBSCRIBE), "s"),
        "core.events.validate_s": (layer(VALIDATE), "s"),
        "core.events.validate_per_event": (validations / result.events, "count"),
        "distributions.history_observe_s": (layer(HISTORY_OBSERVE), "s"),
        "service.adaptive.match_batch_self_s": (layer(ADAPTIVE_MATCH), "s"),
        "service.adaptive.replan_s": (layer(ADAPTIVE_REPLAN), "s"),
        "service.adaptive.build_s": (layer(ADAPTIVE_BUILD), "s"),
        "service.adaptive.checks": (window["adaptation_checks"], "count"),
        "service.adaptive.applied": (window["adaptations_applied"], "count"),
        "matching.match_batch_s": (layer(MATCHER_MATCH), "s"),
        "matching.charged_ops_per_event": (window["charged_ops_per_event"], "ops"),
        "matching.executed_ops_per_event": (window["executed_ops_per_event"], "ops"),
        "matching.dedup_factor": (window["dedup_factor"], "ratio"),
        "matching.matches_per_event": (window["matches_per_event"], "count"),
        "matching.maintenance_s": (layer(MAINTENANCE), "s"),
        "service.notifications.log_s": (layer(LOG_DELIVER), "s"),
        "service.notifications.log_entries": (window["notifications"], "count"),
        "service.delivery.dispatch_s": (layer(DISPATCH), "s"),
        "service.delivery.queue_wait_p50_ms": (
            statistics.median(waits) * 1e3 if waits else 0.0,
            "ms",
        ),
        "service.delivery.drain_s": (layer(DRAIN), "s"),
        "service.delivery.max_pending": (delivery.max_pending, "count"),
        "service.delivery.lost": (delivery.dispatched - delivery.delivered, "count"),
        "service.durability.append_s": (layer(WAL_APPEND), "s"),
        "service.durability.appends": (window["wal_appends"], "count"),
        "service.durability.compact_s": (layer(WAL_COMPACT), "s"),
        "service.durability.snapshots": (window["wal_snapshots"], "count"),
        "service.durability.wal_bytes": (window["wal_bytes"], "bytes"),
        "trace.overhead_ratio": (untraced_eps * result.elapsed / result.events, "ratio"),
    }


def measure(
    workload: Workload,
    inputs: Inputs,
    workdir: Path,
    seconds: float,
    trace: bool,
    spans_path: Path | None = None,
) -> dict:
    """Run the workload once and return metrics, counts and check results.

    Untraced runs set the service up ``workload.setups`` times in a row,
    each after a full garbage collection, keep the last for the loop and
    report the median as ``setup_s``.  Traced runs split ``seconds`` in
    two: an untraced loop (for the tracing overhead), then a fresh set-up
    and a loop with every layer boundary wrapped; the spans go to
    ``spans_path``.
    """
    from repro.matching.registry import default_registry

    def timed_set_up(registry=None) -> tuple[Service, float]:
        gc.collect()
        return set_up(workload, inputs, workdir, registry)

    if trace:
        seconds /= 2
    setup_times = []
    for _ in range(0 if trace else workload.setups - 1):
        spare, taken = timed_set_up()
        tear_down(spare)
        setup_times.append(taken)
    run, taken = timed_set_up()
    setup_times.append(taken)
    try:
        result = publish_loop(workload, inputs, run, seconds)
        metrics, details = end_to_end(workload, run, result, statistics.median(setup_times))
        started = time.perf_counter()
        errors = check(workload, inputs, run, result)
        check_s = time.perf_counter() - started
    finally:
        tear_down(run)
    report: dict = {"setup_samples_s": setup_times, "check_s": check_s}
    report.update(details, counts=result.counts, batches=result.batches, events=result.events)
    if trace:
        tracer = Tracer()
        instrumentation = Instrumentation(tracer)
        with instrumentation:
            run, _ = timed_set_up(traced_registry(tracer, default_registry()))
        try:
            with instrumentation:
                result = publish_loop(workload, inputs, run, seconds, tracer)
            errors += check(workload, inputs, run, result)
            metrics = per_layer(tracer, run, result, metrics["throughput_eps"][0])
            traced = failures(result, run.service)
        finally:
            tear_down(run)
        report["attempted"] += traced.attempted
        report["failed"] += traced.failed
        if spans_path is not None:
            tracer.write(spans_path)
    report.update(errors=errors, metrics=metrics)
    return report
