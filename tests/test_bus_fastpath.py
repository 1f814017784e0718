"""Tests for the hot-path event protocol (DESIGN.md §12).

Covers the per-topic :class:`TopicPort` fast path, lazy publication
(``publish_lazy`` / ``emit_lazy``), raw (record-dict) subscriptions,
the never-matches subscription warning, kernel.step compaction counts,
fabric flush-batch consumer equivalence, and the streaming span
builder's parity with the buffered replay.
"""

import json
import warnings

import pytest

from repro.desim import Environment, EventBus, Topics
from repro.desim.bus import BusEvent, make_event
from repro.monitor import RunMetrics, replay, tap
from repro.monitor.tracing import SpanStreamBuilder

Topics.register("bench.tick", "bench.other")


# ---------------------------------------------------------------------------
# TopicPort semantics
# ---------------------------------------------------------------------------
def test_port_is_falsy_with_no_observers():
    bus = EventBus()
    port = bus.port("task.done")
    assert not port and not port.on
    # Emitting into a dead port is a cheap no-op.
    port.emit(task_id=1)


def test_port_truthy_with_subscriber_and_delivers():
    bus = EventBus()
    seen = []
    bus.subscribe("task.done", seen.append)
    port = bus.port("task.done")
    assert port.on
    port.emit(task_id=7)
    assert len(seen) == 1
    assert seen[0].topic == "task.done" and seen[0].fields == {"task_id": 7}


def test_port_truthy_with_ring_only():
    bus = EventBus(ring_size=4)
    port = bus.port("task.done")
    assert port.on
    port.emit(task_id=1)
    assert len(bus.ring) == 1 and bus.ring[0].topic == "task.done"


def test_port_refreshes_on_late_subscribe_and_unsubscribe():
    bus = EventBus()
    port = bus.port("task.done")
    assert not port.on
    seen = []
    sub = bus.subscribe("task.*", seen.append)
    assert port.on
    port.emit(task_id=1)
    sub.cancel()
    assert not port.on
    port.emit(task_id=2)  # dropped
    assert [e.fields["task_id"] for e in seen] == [1]


def test_port_is_shared_per_topic():
    bus = EventBus()
    assert bus.port("task.done") is bus.port("task.done")


def test_port_delivery_order_is_subscription_order():
    """Exact, prefix, and wildcard subscribers interleave by seq."""
    bus = EventBus()
    order = []
    bus.subscribe("task.done", lambda e: order.append("exact1"))
    bus.subscribe("*", lambda e: order.append("wild"))
    bus.subscribe("task.*", lambda e: order.append("prefix"))
    bus.subscribe("task.done", lambda e: order.append("exact2"))
    bus.port("task.done").emit(task_id=1)
    assert order == ["exact1", "wild", "prefix", "exact2"]


def test_port_env_clock_stamping():
    env = Environment()
    seen = []
    env.bus.subscribe("task.done", seen.append)
    port = env.bus.port("task.done")

    def proc(env):
        yield env.timeout(5.0)
        port.emit(task_id=1)

    env.process(proc(env))
    env.run()
    assert seen[0].time == 5.0


def test_port_emit_at_overrides_time():
    bus = EventBus()
    seen = []
    bus.subscribe("task.done", seen.append)
    bus.port("task.done").emit_at(42.0, task_id=1)
    assert seen[0].time == 42.0


# ---------------------------------------------------------------------------
# raw (record-dict) subscriptions
# ---------------------------------------------------------------------------
def test_raw_subscriber_receives_record_dict():
    env = Environment()
    seen = []
    env.bus.subscribe("task.done", seen.append, raw=True)
    port = env.bus.port("task.done")

    def proc(env):
        yield env.timeout(3.0)
        port.emit(task_id=9, exit_code=0)

    env.process(proc(env))
    env.run()
    assert seen == [{"task_id": 9, "exit_code": 0, "t": 3.0}]


def test_raw_subscription_requires_exact_topic():
    bus = EventBus()
    with pytest.raises(ValueError):
        bus.subscribe("task.*", lambda r: None, raw=True)
    with pytest.raises(ValueError):
        bus.subscribe("*", lambda r: None, raw=True)


def test_mixed_raw_and_classic_subscribers_do_not_share_the_dict():
    """The "t" stamp must never leak into a classic event's fields."""
    bus = EventBus()
    raw_seen, classic_seen = [], []
    bus.subscribe("task.done", raw_seen.append, raw=True)
    bus.subscribe("task.done", classic_seen.append)
    bus.port("task.done").emit(task_id=1)
    assert raw_seen[0]["t"] == 0.0 and raw_seen[0]["task_id"] == 1
    assert classic_seen[0].fields == {"task_id": 1}  # no "t" leak
    assert raw_seen[0] is not classic_seen[0].fields


def test_raw_subscriber_via_legacy_publish():
    bus = EventBus()
    seen = []
    bus.subscribe("task.done", seen.append, raw=True)
    bus.publish("task.done", _time=2.5, task_id=4)
    assert seen == [{"task_id": 4, "t": 2.5}]


def test_raw_only_delivery_materialises_no_event(monkeypatch):
    """With only raw subscribers and no ring, no BusEvent is built."""
    bus = EventBus()
    bus.subscribe("task.done", lambda r: None, raw=True)
    port = bus.port("task.done")

    def boom(*a, **k):  # pragma: no cover - failure path
        raise AssertionError("BusEvent materialised on the raw-only path")

    monkeypatch.setattr(BusEvent, "__new__", boom)
    port.emit(task_id=1)
    bus.publish("task.done", task_id=2)


# ---------------------------------------------------------------------------
# lazy publication
# ---------------------------------------------------------------------------
def test_publish_lazy_never_calls_thunk_when_unmatched():
    bus = EventBus()
    bus.subscribe("cache.*", lambda e: None)
    calls = []
    bus.publish_lazy("task.done", lambda: calls.append(1) or {"task_id": 1})
    assert calls == []


def test_publish_lazy_calls_thunk_once_per_delivery():
    bus = EventBus()
    seen = []
    bus.subscribe("task.done", seen.append)
    bus.subscribe("task.*", seen.append)
    calls = []
    bus.publish_lazy("task.done", lambda: calls.append(1) or {"task_id": 1})
    assert len(calls) == 1  # one payload, two deliveries
    assert len(seen) == 2
    assert seen[0] is seen[1]  # same event object fans out


def test_publish_lazy_skipped_on_idle_bus():
    bus = EventBus()
    calls = []
    bus.publish_lazy("task.done", lambda: calls.append(1) or {})
    assert calls == []


def test_port_emit_lazy_thunk_semantics():
    bus = EventBus()
    port = bus.port("task.done")
    calls = []
    port.emit_lazy(lambda: calls.append(1) or {"task_id": 1})
    assert calls == []  # dead port: thunk never runs
    seen = []
    bus.subscribe("task.done", seen.append)
    port.emit_lazy(lambda: calls.append(1) or {"task_id": 1})
    assert len(calls) == 1 and seen[0].fields == {"task_id": 1}


def test_eager_and_lazy_publish_produce_identical_jsonl():
    def run(lazy):
        bus = EventBus()
        seen = []
        bus.subscribe("task.done", seen.append)
        for i in range(5):
            if lazy:
                bus.publish_lazy(
                    "task.done",
                    lambda i=i: dict(task_id=i, exit_code=0),
                    _time=float(i),
                )
            else:
                bus.publish("task.done", _time=float(i), task_id=i, exit_code=0)
        return "\n".join(json.dumps(e.as_dict(), sort_keys=False) for e in seen)

    assert run(lazy=False) == run(lazy=True)


# ---------------------------------------------------------------------------
# never-matches subscription warning
# ---------------------------------------------------------------------------
def test_unmatchable_pattern_warns_once():
    bus = EventBus()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bus.subscribe("tsak.done", lambda e: None)  # typo'd topic
        bus.subscribe("tsak.done", lambda e: None)  # same pattern: no rewarn
    assert len(caught) == 1
    assert issubclass(caught[0].category, RuntimeWarning)
    assert "tsak.done" in str(caught[0].message)


def test_unmatchable_prefix_pattern_warns():
    bus = EventBus()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bus.subscribe("tsak.*", lambda e: None)
    assert len(caught) == 1


def test_known_topic_patterns_do_not_warn():
    bus = EventBus()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bus.subscribe(Topics.TASK_DONE, lambda e: None)
        bus.subscribe("task.*", lambda e: None)
        bus.subscribe("*", lambda e: None)
    assert caught == []


def test_registered_ad_hoc_topic_does_not_warn():
    bus = EventBus()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bus.subscribe("bench.tick", lambda e: None)  # registered at import
    assert caught == []


# ---------------------------------------------------------------------------
# kernel.step compaction
# ---------------------------------------------------------------------------
def test_kernel_step_compaction_counts_cover_every_step():
    env = Environment()
    records = []
    env.bus.subscribe(Topics.KERNEL_STEP, records.append)

    def ticker(env):
        for _ in range(10):
            yield env.timeout(1.0)

    for _ in range(3):
        env.process(ticker(env))
    env.run()
    # Compaction: one event per (time, kind) run, counts summing to the
    # total number of kernel steps (30 timeouts plus process bookkeeping).
    assert sum(e.fields["count"] for e in records) >= 30
    assert all("kind" in e.fields and "queued" in e.fields for e in records)
    # Same-timestamp batching really batched (3 processes per instant).
    assert any(e.fields["count"] > 1 for e in records)


# ---------------------------------------------------------------------------
# fabric flush batches: consumer equivalence
# ---------------------------------------------------------------------------
def _flow_batch_events():
    """A recorded stream with one batched and one single-record flow."""
    batch = make_event(
        10.0,
        Topics.NET_FLOW,
        {
            "count": 2,
            "flows": [
                {"cls": "staging", "nbytes": 100.0, "started": 8.0,
                 "src": "a", "dst": "b", "hops": 2},
                {"cls": "wan", "nbytes": 50.0, "started": 9.0,
                 "src": "b", "dst": "c", "hops": 1},
            ],
        },
    )
    single = make_event(
        12.0,
        Topics.NET_FLOW,
        {"cls": "staging", "nbytes": 7.0, "started": 11.0,
         "src": "a", "dst": "c", "hops": 3},
    )
    return [batch, single]


def _replayed_metrics(events) -> RunMetrics:
    metrics = RunMetrics()
    replay(events, [metrics])
    return metrics


def test_metrics_from_events_expands_flow_batches():
    metrics = _replayed_metrics(e.as_dict() for e in _flow_batch_events())
    flows = metrics.flows
    assert len(flows) == 3
    assert [f.nbytes for f in flows] == [100.0, 50.0, 7.0]
    assert [f.started for f in flows] == [8.0, 9.0, 11.0]
    assert all(f.ok for f in flows)


def test_live_collector_expands_flow_batches_like_replay():
    bus = EventBus()
    live = RunMetrics()
    tap(bus, [live])
    for e in _flow_batch_events():
        bus.publish(e.topic, _time=e.time, **e.fields)
    replayed = _replayed_metrics(e.as_dict() for e in _flow_batch_events())
    assert [
        (f.cls, f.nbytes, f.started, f.finished)
        for f in live.flows
    ] == [
        (f.cls, f.nbytes, f.started, f.finished)
        for f in replayed.flows
    ]


def test_fabric_batch_spans_match_per_flow_spans():
    """A live traced fabric run materialises one span per flow even
    though flush narration is batched."""
    from repro.monitor.tracing import SpanTracer
    from repro.net import Fabric, TrafficClass

    env = Environment()
    tracer = SpanTracer(env)
    fabric = Fabric(env)
    fabric.attach("a.nic", 1e6, node="a")
    fabric.attach("b.nic", 1e6, node="b")

    def go(env):
        root = tracer.unit_root("t:demo")
        span = tracer.start("attempt", parent=root, activate=True)
        flows = [
            fabric.transfer(1e4, src="a", dst="b", cls=TrafficClass.STAGING)
            for _ in range(3)
        ]
        for f in flows:
            yield f
        tracer.end(span)

    env.process(go(env))
    env.run()
    tracer.finalize()
    flow_spans = tracer.finished("net.flow")
    assert len(flow_spans) == 3
    assert tracer.orphans() == []


# ---------------------------------------------------------------------------
# streaming span builder
# ---------------------------------------------------------------------------
def test_span_stream_builder_matches_buffered_replay():
    from repro.monitor.tracing import SpanTracer
    from repro.net import Fabric, TrafficClass

    env = Environment()
    recorded = []
    env.bus.subscribe("*", lambda e: recorded.append(e.as_dict()))
    tracer = SpanTracer(env)
    tapped = SpanStreamBuilder()
    tap(env.bus, [tapped])
    fabric = Fabric(env)
    fabric.attach("a.nic", 1e6, node="a")
    fabric.attach("b.nic", 1e6, node="b")

    def go(env):
        root = tracer.unit_root("t:demo")
        span = tracer.start("attempt", parent=root, activate=True)
        yield fabric.transfer(1e4, src="a", dst="b", cls=TrafficClass.STAGING)
        tracer.end(span)

    env.process(go(env))
    env.run()
    tracer.finalize()

    # The same fold, tapped live vs replayed from the recording.
    buffered = tapped.result()
    builder = SpanStreamBuilder()
    replay(recorded, [builder])
    streamed = builder.result()
    assert [
        (s.span_id, s.trace_id, s.parent_id, s.name, s.start, s.end, s.status)
        for s in streamed
    ] == [
        (s.span_id, s.trace_id, s.parent_id, s.name, s.start, s.end, s.status)
        for s in buffered
    ]
    # The builder retains spans, not raw events, and closes what it saw.
    assert builder.open_count == 0
    live = [
        (s.span_id, s.name, s.start, s.end)
        for s in sorted(tracer.spans, key=lambda s: s.span_id)
    ]
    assert [
        (s.span_id, s.name, s.start, s.end)
        for s in sorted(streamed, key=lambda s: s.span_id)
    ] == live


# ---------------------------------------------------------------------------
# port / raw emit accounting (bus.published / bus.delivered / bus.stats)
# ---------------------------------------------------------------------------
def test_port_emits_count_as_published_and_delivered():
    bus = EventBus()
    seen = []
    bus.subscribe("task.done", seen.append)
    port = bus.port("task.done")
    for i in range(5):
        port.emit(task_id=i)
    assert len(seen) == 5
    assert bus.published == 5
    assert bus.delivered == 5


def test_port_fanout_multiplies_delivered():
    bus = EventBus()
    bus.subscribe("task.done", lambda e: None)
    bus.subscribe("task.*", lambda e: None)
    port = bus.port("task.done")
    port.emit(task_id=1)
    port.emit(task_id=2)
    assert bus.published == 2
    assert bus.delivered == 4  # two subscribers each


def test_raw_only_emits_are_counted():
    bus = EventBus()
    records = []
    bus.subscribe("net.flow", records.append, raw=True)
    port = bus.port("net.flow")
    port.emit(nbytes=10.0)
    port.emit(nbytes=20.0)
    assert len(records) == 2
    assert bus.published == 2
    assert bus.delivered == 2


def test_mixed_raw_and_classic_fanout_accounting():
    bus = EventBus()
    bus.subscribe("net.flow", lambda e: None)
    bus.subscribe("net.flow", lambda r: None, raw=True)
    port = bus.port("net.flow")
    port.emit(nbytes=1.0)
    assert bus.published == 1
    assert bus.delivered == 2


def test_dead_port_emits_stay_uncounted():
    """The zero-subscriber fast path must remain accounting-free."""
    bus = EventBus()
    port = bus.port("task.done")
    for i in range(100):
        port.emit(task_id=i)
    assert bus.published == 0 and bus.delivered == 0


def test_port_counts_survive_refresh_flush():
    """Tallies flushed on a subscription change must not be lost, and
    pre-flush emits keep their pre-change fan-out."""
    bus = EventBus()
    bus.subscribe("task.done", lambda e: None)
    port = bus.port("task.done")
    port.emit(task_id=1)  # fan-out 1
    bus.subscribe("task.*", lambda e: None)  # triggers port refresh
    port.emit(task_id=2)  # fan-out 2
    assert bus.published == 2
    assert bus.delivered == 3  # 1*1 + 1*2


def test_emit_at_is_counted():
    bus = EventBus()
    seen = []
    bus.subscribe("task.done", seen.append)
    port = bus.port("task.done")
    port.emit_at(42.0, task_id=1)
    assert seen[0].time == 42.0
    assert bus.published == 1 and bus.delivered == 1


def test_legacy_publish_and_port_emit_share_counters():
    bus = EventBus()
    bus.subscribe("task.done", lambda e: None)
    port = bus.port("task.done")
    bus.publish("task.done", task_id=1)
    port.emit(task_id=2)
    assert bus.published == 2
    assert bus.delivered == 2


def test_bus_stats_snapshot():
    bus = EventBus(ring_size=4)
    bus.subscribe("task.done", lambda e: None)
    bus.subscribe("net.flow", lambda r: None, raw=True)
    port = bus.port("task.done")
    port.emit(task_id=1)
    bus.publish("net.flow", nbytes=5.0)
    s = bus.stats()
    assert s["published"] == 2
    assert s["delivered"] == 2
    assert s["subscriptions"] == 2
    assert s["ports"] == 1
    assert s["ring"] == 2
    # The snapshot is a plain dict (JSON-serialisable telemetry).
    json.dumps(s)


def test_lazy_emit_is_counted_when_delivered():
    bus = EventBus()
    seen = []
    bus.subscribe("task.done", seen.append)
    port = bus.port("task.done")
    port.emit_lazy(lambda: {"task_id": 9})
    assert len(seen) == 1
    assert bus.published == 1 and bus.delivered == 1
