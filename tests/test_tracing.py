"""End-to-end causal tracing: span trees, retry links, replay, export.

Covers the ``repro.monitor.tracing`` package at three levels:

* tracer mechanics — ambient context propagation through DES processes,
  auto-closing of abandoned descendants, root lifecycles, orphan checks;
* wq integration — every task attempt becomes a span tree under its
  work-unit root, retries link to the attempt they replace;
* offline parity — a replayed ``SpanStreamBuilder`` rebuilds the exact
  span list from a bus recording, and the Chrome-trace export is byte-identical
  across two identically seeded runs.
"""

import json

from repro.analysis.report import ExitCode
from repro.batch.machines import Machine
from repro.desim import Environment, MemorySink
from repro.monitor import (
    SpanStreamBuilder,
    SpanTracer,
    chrome_trace,
    replay,
    write_chrome_trace,
)
from repro.monitor.tracing import ROOT_NAMES
from repro.testing import reset_id_counters
from repro.wq import Master, Task, Worker


# ---------------------------------------------------------------------------
# tracer mechanics
# ---------------------------------------------------------------------------
def test_ambient_context_propagates_to_child_processes():
    env = Environment()
    tracer = SpanTracer(env)
    seen = {}

    def child(env):
        seen["ctx"] = tracer.current()
        yield env.timeout(1.0)

    def parent(env):
        span = tracer.start("attempt", parent=tracer.unit_root("wf:u1"),
                            activate=True)
        env.process(child(env))
        yield env.timeout(2.0)
        tracer.end(span)

    env.process(parent(env))
    env.run()
    # The child process inherited the parent's active span context.
    assert seen["ctx"] is not None
    assert seen["ctx"].trace_id == "wf:u1"


def test_end_closes_open_descendants_deepest_first():
    env = Environment()
    tracer = SpanTracer(env)
    root = tracer.unit_root("wf:u1")
    attempt = tracer.start("attempt", parent=root)
    seg = tracer.start("wrapper.exec", parent=attempt)
    flow = tracer.start("net.flow", parent=seg)
    tracer.end(attempt, status="eviction")
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["net.flow"].status == "aborted"
    assert by_name["wrapper.exec"].status == "aborted"
    assert by_name["attempt"].status == "eviction"
    # Children closed before their parent (close order is append order).
    names = [s.name for s in tracer.spans]
    assert names.index("net.flow") < names.index("wrapper.exec")
    assert names.index("wrapper.exec") < names.index("attempt")


def test_finalize_closes_roots_at_last_descendant_end():
    env = Environment()
    tracer = SpanTracer(env)

    def work(env):
        span = tracer.start("attempt", parent=tracer.unit_root("wf:u1"))
        yield env.timeout(50.0)
        tracer.end(span)
        yield env.timeout(200.0)  # dead air after the last span closed

    env.process(work(env))
    env.run()
    assert tracer.finalize() == []
    root = next(s for s in tracer.spans if s.name == "unit")
    assert root.end == 50.0  # root extent, not env.now (250.0)
    # finalize() is idempotent.
    assert tracer.finalize() == []


def test_orphan_detection():
    env = Environment()
    tracer = SpanTracer(env)
    # A span started with no ambient context lands in an anonymous
    # trace with no parent — that's an orphan unless it's a root name.
    stray = tracer.start("wrapper.exec")
    tracer.end(stray)
    orphans = tracer.finalize()
    assert [s.span_id for s in orphans] == [stray.span_id]
    assert all(o.name not in ROOT_NAMES for o in orphans)


def test_tracer_is_exclusive_per_environment():
    env = Environment()
    SpanTracer(env)
    try:
        SpanTracer(env)
    except RuntimeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("second tracer should be rejected")


# ---------------------------------------------------------------------------
# wq integration: attempts, queue waits, retry links
# ---------------------------------------------------------------------------
def _executor(duration, exit_code=ExitCode.SUCCESS):
    def executor(worker, task):
        yield worker.env.timeout(duration)
        return exit_code, {"cpu": duration}, None

    return executor


def test_attempt_span_tree_for_a_simple_task():
    env = Environment()
    tracer = SpanTracer(env)
    master = Master(env)
    task = Task(_executor(60.0))
    task.trace = tracer.unit_root("wf:u000001", workflow="wf").ctx
    master.submit(task)
    machine = Machine(env, "m0", cores=1)
    worker = Worker(env, machine, master, cores=1, connect_latency=0.0)
    env.process(worker.run())

    def collector(env):
        yield master.wait()
        master.drain()

    env.process(collector(env))
    env.run()
    assert tracer.finalize() == []

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (attempt,) = by_name["attempt"]
    (queue_wait,) = by_name["queue.wait"]
    (root,) = by_name["unit"]
    assert attempt.trace_id == "wf:u000001"
    assert attempt.parent_id == root.span_id
    assert queue_wait.parent_id == attempt.span_id
    assert attempt.status == "ok"
    assert attempt.attrs["worker"] == worker.name
    assert attempt.attrs["host"] == "m0"


def test_requeue_produces_linked_sibling_attempts():
    env = Environment()
    tracer = SpanTracer(env)
    master = Master(env)
    task = Task(_executor(60.0))
    task.trace = tracer.unit_root("wf:u000001", workflow="wf").ctx
    master.submit(task)
    machine = Machine(env, "m0", cores=1)
    worker = Worker(env, machine, master, cores=1, connect_latency=0.0)
    proc = env.process(worker.run())

    def evict_then_finish(env):
        yield env.timeout(10.0)
        proc.interrupt("preempted")  # first attempt dies mid-flight
        # A second worker picks up the requeued attempt.
        machine2 = Machine(env, "m1", cores=1)
        worker2 = Worker(env, machine2, master, cores=1, connect_latency=0.0)
        env.process(worker2.run())
        yield master.wait()
        master.drain()

    env.process(evict_then_finish(env))
    env.run()
    assert tracer.finalize() == []

    attempts = sorted(
        (s for s in tracer.spans if s.name == "attempt"),
        key=lambda s: s.span_id,
    )
    assert len(attempts) == 2
    first, second = attempts
    assert first.status == "eviction"
    assert second.status == "ok"
    # The retry is a linked sibling: same trace, same parent, a link
    # back to the attempt it replaces.
    assert second.trace_id == first.trace_id
    assert second.parent_id == first.parent_id
    assert second.links == (first.span_id,)
    assert second.attrs["attempt"] == 2


# ---------------------------------------------------------------------------
# offline parity: replay and deterministic export
# ---------------------------------------------------------------------------
def _traced_run(seed=11):
    """A tiny traced wq run; returns the tracer.

    Global id counters are rewound first so two calls in one process
    produce byte-identical span streams (span ids themselves are
    per-tracer and need no reset)."""
    reset_id_counters()
    env = Environment()
    sink = MemorySink()
    env.bus.attach(sink)
    tracer = SpanTracer(env)
    master = Master(env)
    for i in range(3):
        task = Task(_executor(30.0 + 10.0 * i))
        task.trace = tracer.unit_root(f"wf:u{i:06d}", workflow="wf").ctx
        master.submit(task)
    machine = Machine(env, "m0", cores=2)
    worker = Worker(env, machine, master, cores=2, connect_latency=0.0)
    env.process(worker.run())

    def collector(env):
        for _ in range(3):
            yield master.wait()
        master.drain()

    env.process(collector(env))
    env.run()
    tracer.finalize()
    return tracer, sink


def test_spans_from_events_matches_live_tracer():
    tracer, sink = _traced_run()
    events = [e.as_dict() for e in sink.events]
    builder = SpanStreamBuilder()
    replay(events, [builder])
    rebuilt = builder.result()
    assert [s.as_dict() for s in rebuilt] == [s.as_dict() for s in tracer.spans]


def test_chrome_export_is_byte_identical_across_same_seed_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_chrome_trace(_traced_run()[0].spans, a)
    write_chrome_trace(_traced_run()[0].spans, b)
    assert a.read_bytes() == b.read_bytes()


def test_chrome_export_shape():
    tracer, _ = _traced_run()
    doc = chrome_trace(tracer.spans)
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert "X" in phases and "M" in phases
    complete = [e for e in events if e["ph"] == "X"]
    # Times are microseconds and non-negative durations.
    assert all(e["dur"] >= 0 for e in complete)
    # Valid JSON end to end.
    json.dumps(doc)


def test_tracer_detach_restores_environment():
    env = Environment()
    tracer = SpanTracer(env)
    assert env.spans is tracer
    tracer.close()
    assert env.spans is None
    # A fresh tracer can attach afterwards.
    SpanTracer(env)
