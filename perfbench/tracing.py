"""Spans recorded around the public calls at each layer boundary.

Nothing in ``repro`` is edited: :class:`Instrumentation` swaps the public
methods of the service layers for timing wrappers while it is installed
and restores them on removal, and :func:`traced_registry` wraps every
``EngineSpec`` hook of a registry copy that a run passes as
``AdaptationPolicy(registry=...)``.  Matchers built or installed through
that copy get an instance-level ``match_batch`` wrapper, so whichever
matcher is running is timed.

Spans are kept in memory and written out when the run ends.  Only calls
made on the publishing thread are recorded; the delivery pool's threads
call straight through.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace
from pathlib import Path

from perfbench.stats import Span

#: Span names the per-layer metrics read.
API_PUBLISH = "api.publish"
BROKER_PUBLISH = "broker.publish"
BROKER_SUBSCRIBE = "broker.subscribe"
VALIDATE = "events.validate"
HISTORY_OBSERVE = "history.observe"
ADAPTIVE_MATCH = "adaptive.match_batch"
ADAPTIVE_REPLAN = "adaptive.replan"
ADAPTIVE_BUILD = "adaptive.build"
MATCHER_MATCH = "matching.match_batch"
MAINTENANCE = "matching.maintenance"
LOG_DELIVER = "notifications.log"
DISPATCH = "delivery.dispatch"
DRAIN = "delivery.drain"
WAL_APPEND = "durability.append"
WAL_COMPACT = "durability.compact"


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self._raw: list[list] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        #: Request id stamped on new spans (a publish call or churn op).
        self.request = "setup"
        #: ``(broker clock of the event, perf_counter at dispatch)`` pairs.
        self.dispatches: list[tuple[float, float]] = []

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        raw = self._raw
        stack = self._stack
        index = len(raw)
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
        raw.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> list[Span]:
        return [Span(*record) for record in self._raw]

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self._raw:
                handle.write(json.dumps(record) + "\n")


def _instrument_matcher(tracer: Tracer, matcher):
    """Time the matcher's ``match_batch`` (once per matcher object)."""
    if "match_batch" not in vars(matcher):
        matcher.match_batch = tracer.wrap(MATCHER_MATCH, matcher.match_batch)
    return matcher


def traced_registry(tracer: Tracer, registry):
    """Return a copy of ``registry`` whose spec hooks record spans.

    Costing hooks (``candidate``, ``calibrated_candidate``,
    ``current_cost``, ``reoptimize``) count as planning; ``factory`` and
    the ``install()`` closures they return count as builds.
    """
    from repro.matching.registry import EngineRegistry

    def built(fn):
        def factory(ctx):
            return _instrument_matcher(tracer, tracer.call(ADAPTIVE_BUILD, fn, (ctx,), {}))

        return factory

    def installing(install):
        def traced_install():
            return _instrument_matcher(tracer, tracer.call(ADAPTIVE_BUILD, install, (), {}))

        return traced_install

    def with_install(result):
        return None if result is None else replace(result, install=installing(result.install))

    def planning(fn, wrap_result):
        def hook(*args):
            return wrap_result(tracer.call(ADAPTIVE_REPLAN, fn, args, {}))

        return hook

    def calibrated(result):
        if result is None:
            return None
        candidate, cost = result
        return with_install(candidate), cost

    specs = []
    for spec in registry:
        changes = {"factory": built(spec.factory)}
        if spec.candidate is not None:
            changes["candidate"] = planning(spec.candidate, with_install)
        if spec.calibrated_candidate is not None:
            changes["calibrated_candidate"] = planning(spec.calibrated_candidate, calibrated)
        if spec.current_cost is not None:
            changes["current_cost"] = planning(spec.current_cost, lambda cost: cost)
        if spec.reoptimize is not None:
            changes["reoptimize"] = planning(spec.reoptimize, with_install)
        specs.append(replace(spec, **changes))
    return EngineRegistry(specs)


def _boundaries():
    """Return ``(class, method, span name)`` for every wrapped public call."""
    from repro.api.service import FilterService
    from repro.core.events import Event
    from repro.distributions.estimation import EventHistory
    from repro.service.adaptive import AdaptiveFilterEngine
    from repro.service.broker import Broker
    from repro.service.delivery import DeliveryDispatcher
    from repro.service.durability.store import SubscriptionStore
    from repro.service.notifications import NotificationLog

    return (
        (FilterService, "publish_batch", API_PUBLISH),
        (FilterService, "publish", API_PUBLISH),
        (FilterService, "drain", DRAIN),
        (Broker, "publish_batch", BROKER_PUBLISH),
        (Broker, "publish", BROKER_PUBLISH),
        (Broker, "subscribe", BROKER_SUBSCRIBE),
        (Broker, "unsubscribe", BROKER_SUBSCRIBE),
        (Event, "validate", VALIDATE),
        (EventHistory, "observe", HISTORY_OBSERVE),
        (AdaptiveFilterEngine, "match_batch", ADAPTIVE_MATCH),
        (AdaptiveFilterEngine, "add_profile", MAINTENANCE),
        (AdaptiveFilterEngine, "remove_profile", MAINTENANCE),
        (NotificationLog, "deliver", LOG_DELIVER),
        (DeliveryDispatcher, "dispatch", DISPATCH),
        (SubscriptionStore, "append", WAL_APPEND),
        (SubscriptionStore, "compact", WAL_COMPACT),
    )


class Instrumentation:
    """Wrap the layer-boundary methods while installed (a context manager)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[type, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        tracer = self.tracer
        for owner, method, name in _boundaries():
            original = owner.__dict__[method]
            self._saved.append((owner, method, original))
            wrapped = tracer.wrap(name, original)
            if method == "dispatch":
                wrapped = self._timing_dispatch(wrapped)
            setattr(owner, method, wrapped)
        return self

    def _timing_dispatch(self, dispatch):
        dispatches = self.tracer.dispatches

        def timed(dispatcher, plan):
            dispatches.append((plan.tasks[0].notification.delivered_at, time.perf_counter()))
            return dispatch(dispatcher, plan)

        return timed

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, method, original = self._saved.pop()
            setattr(owner, method, original)
