"""Span recording and the layer-boundary wrappers."""

import threading

from perfbench.tracing import Instrumentation, Tracer, traced_registry


def test_nested_calls_record_parents_and_requests():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: 7)

    def outer():
        return inner() + inner()

    tracer.request = "publish-0"
    assert tracer.wrap("outer", outer)() == 14
    spans = tracer.spans()
    assert [span.name for span in spans] == ["outer", "inner", "inner"]
    assert [span.parent for span in spans] == [-1, 0, 0]
    assert {span.request for span in spans} == {"publish-0"}
    assert all(span.end >= span.start for span in spans)


def test_exceptions_still_close_the_span():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    try:
        tracer.wrap("boom", boom)()
    except RuntimeError:
        pass
    after = tracer.wrap("after", lambda: None)
    after()
    spans = tracer.spans()
    assert spans[0].end >= spans[0].start
    assert spans[1].parent == -1


def test_other_threads_are_not_recorded():
    tracer = Tracer()
    wrapped = tracer.wrap("work", lambda: None)
    worker = threading.Thread(target=wrapped)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    assert tracer.spans() == []


def test_instrumentation_restores_every_method():
    from repro.core.events import Event
    from repro.service.broker import Broker

    originals = (Event.__dict__["validate"], Broker.__dict__["publish_batch"])
    with Instrumentation(Tracer()):
        assert Event.__dict__["validate"] is not originals[0]
        assert Broker.__dict__["publish_batch"] is not originals[1]
    assert (Event.__dict__["validate"], Broker.__dict__["publish_batch"]) == originals


def test_traced_registry_keeps_the_roster():
    from repro.matching.registry import default_registry

    registry = default_registry()
    traced = traced_registry(Tracer(), registry)
    assert traced.names() == registry.names()
    assert [spec.name for spec in traced.arbitrating_specs()] == [
        spec.name for spec in registry.arbitrating_specs()
    ]
