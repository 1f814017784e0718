"""Tests for Work Queue's fast-abort straggler mitigation."""

import pytest

from repro.analysis.report import ExitCode
from repro.batch.machines import Machine
from repro.desim import Environment
from repro.wq import Master, Task, Worker

HOUR = 3600.0


def timed_executor(duration):
    def executor(worker, task):
        yield worker.env.timeout(duration)
        return ExitCode.SUCCESS, {"cpu": duration}, None

    return executor


def straggler_executor(normal, slow, slow_worker_name):
    """Tasks run *slow* on one specific worker, *normal* elsewhere."""

    def executor(worker, task):
        duration = slow if worker.name == slow_worker_name else normal
        yield worker.env.timeout(duration)
        return ExitCode.SUCCESS, {"cpu": duration}, None

    return executor


def test_fast_abort_validation():
    env = Environment()
    master = Master(env)
    with pytest.raises(ValueError):
        master.enable_fast_abort(multiplier=1.0)
    with pytest.raises(ValueError):
        master.enable_fast_abort(multiplier=2.0, check_interval=0)
    master.enable_fast_abort(multiplier=3.0)
    with pytest.raises(RuntimeError):
        master.enable_fast_abort(multiplier=3.0)


def test_mean_runtime_tracked():
    env = Environment()
    master = Master(env)
    master.submit(Task(timed_executor(100.0)))
    master.submit(Task(timed_executor(200.0)))
    worker = Worker(env, Machine(env, "m0", cores=1), master, cores=1, connect_latency=0.0)
    env.process(worker.run())
    results = []

    def collector(env):
        for _ in range(2):
            results.append((yield master.wait()))
        master.drain()

    env.process(collector(env))
    env.run()
    # Wall time includes a small sandbox stage-in on the first task.
    assert master.mean_runtime() == pytest.approx(150.0, abs=2.0)


def test_straggler_aborted_and_rescued():
    """A task stuck on a sick worker gets aborted and finishes elsewhere."""
    env = Environment()
    master = Master(env)
    master.enable_fast_abort(multiplier=3.0, check_interval=30.0, min_samples=5)

    sick_worker_name = None
    workers = []
    for i in range(2):
        w = Worker(
            env, Machine(env, f"m{i}", cores=2), master, cores=2,
            connect_latency=0.0, name=f"w{i}",
        )
        workers.append(w)
    sick_worker_name = "w1"

    # 12 normal tasks (100 s) + 1 that takes 100x longer on the sick worker.
    executor = straggler_executor(100.0, 10_000.0, sick_worker_name)
    for _ in range(13):
        master.submit(Task(executor))
    for w in workers:
        env.process(w.run())

    results = []

    def collector(env):
        for _ in range(13):
            results.append((yield master.wait()))
        master.drain()

    env.process(collector(env))
    env.run(until=50 * HOUR)
    assert len(results) == 13
    assert all(r.succeeded for r in results)
    # At least one straggler was aborted and re-run.
    assert master.tasks_aborted >= 1
    assert master.tasks_requeued >= 1
    # The rescued task's wall time is far below the sick-worker runtime,
    # i.e. the whole workload finished long before 10,000 s + queueing.
    assert max(r.finished for r in results) < 5_000.0


def test_fast_abort_spares_healthy_tasks():
    env = Environment()
    master = Master(env)
    master.enable_fast_abort(multiplier=3.0, check_interval=30.0, min_samples=3)
    for _ in range(8):
        master.submit(Task(timed_executor(100.0)))
    worker = Worker(env, Machine(env, "m0", cores=2), master, cores=2, connect_latency=0.0)
    env.process(worker.run())
    results = []

    def collector(env):
        for _ in range(8):
            results.append((yield master.wait()))
        master.drain()

    env.process(collector(env))
    env.run()
    assert master.tasks_aborted == 0
    assert master.tasks_requeued == 0
    assert len(results) == 8


def test_no_aborts_without_enough_samples():
    env = Environment()
    master = Master(env)
    master.enable_fast_abort(multiplier=2.0, check_interval=10.0, min_samples=50)
    master.submit(Task(timed_executor(5_000.0)))  # a lone long task
    worker = Worker(env, Machine(env, "m0", cores=1), master, cores=1, connect_latency=0.0)
    env.process(worker.run())
    results = []

    def collector(env):
        results.append((yield master.wait()))
        master.drain()

    env.process(collector(env))
    env.run()
    # With no runtime statistics the monitor never fires.
    assert master.tasks_aborted == 0
    assert results[0].succeeded


def test_lobster_config_enables_fast_abort():
    from repro.analysis import simulation_code
    from repro.core import LobsterConfig, LobsterRun, Services, WorkflowConfig

    env = Environment()
    services = Services.default(env)
    cfg = LobsterConfig(
        workflows=[
            WorkflowConfig(
                label="mc",
                code=simulation_code(intrinsic_failure_rate=0.0),
                n_events=2_000,
                events_per_tasklet=500,
                tasklets_per_task=2,
            )
        ],
        fast_abort_multiplier=4.0,
    )
    run = LobsterRun(env, cfg, services)
    run.start()
    assert run.master.fast_abort_multiplier == 4.0
    with pytest.raises(ValueError):
        LobsterConfig(workflows=cfg.workflows, fast_abort_multiplier=1.0)


def test_requeues_are_counted_by_reason():
    """A fast-aborted straggler and a crashed runner requeue under their
    own reasons; neither is counted as an eviction."""
    from repro.monitor import requeue_summary

    env = Environment()
    master = Master(env)
    master.enable_fast_abort(multiplier=3.0, check_interval=30.0, min_samples=5)
    crashed = []

    def executor(worker, task):
        if task.task_id == crash_id and not crashed:
            crashed.append(worker.name)
            yield worker.env.timeout(5.0)
            raise RuntimeError("executor bug")
        slow = worker.name == "w1" and task.task_id == straggler_id
        yield worker.env.timeout(10_000.0 if slow else 100.0)
        return ExitCode.SUCCESS, {"cpu": 100.0}, None

    tasks = [Task(executor) for _ in range(13)]
    crash_id, straggler_id = tasks[0].task_id, tasks[-1].task_id
    for task in tasks:
        master.submit(task)

    def supervised(env, worker):
        try:
            yield env.process(worker.run())
        except RuntimeError:
            pass  # the batch system records the crashed glide-in

    for i in range(3):
        worker = Worker(
            env, Machine(env, f"m{i}", cores=2), master, cores=2,
            connect_latency=0.0, name=f"w{i}",
        )
        env.process(supervised(env, worker))
    results = []

    def collector(env):
        for _ in range(13):
            results.append((yield master.wait()))
        master.drain()

    env.process(collector(env))
    env.run(until=50 * HOUR)
    assert len(results) == 13 and all(r.succeeded for r in results)
    # The crash also takes down the co-runner on the same 2-core worker;
    # that loss is the crash's too, not an eviction.
    by_reason = master.requeues_by_reason
    assert set(by_reason) == {"worker-crash", "fast-abort"}
    assert by_reason["worker-crash"] == 2
    assert sum(by_reason.values()) == master.tasks_requeued
    assert "eviction" not in requeue_summary(master)
