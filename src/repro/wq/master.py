"""The Work Queue master.

The master owns the ready-task queue, hands tasks to workers (or
foremen) that pull from it, receives results, and re-queues tasks lost
to eviction.  Lobster sits above the master: it keeps the ready queue
topped up (a ~400-task buffer in the paper) and consumes results as they
arrive.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.report import ExitCode
from ..desim import Environment, FilterStore, Store, Topics
from ..net import Fabric
from .recovery import RecoveryPolicy
from .task import Task, TaskResult, TaskState

__all__ = ["Master"]

GBIT = 125_000_000.0


class Master:
    """Coordinates task distribution and result collection."""

    def __init__(
        self,
        env: Environment,
        name: str = "master",
        nic_bandwidth: float = 10 * GBIT,
        dispatch_latency: float = 0.05,
        fabric=None,
        recovery: Optional[RecoveryPolicy] = None,
    ):
        self.env = env
        self.name = name
        self.fabric = fabric if fabric is not None else Fabric(env)
        self.nic = self.fabric.attach(f"{name}.nic", nic_bandwidth, node=name)
        self.dispatch_latency = dispatch_latency
        #: Active failure-recovery behaviour (retry budget, backoff,
        #: host blacklisting); defaults are deliberately gentle.
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        #: Tasks ready for dispatch (workers/foremen pull from here).
        #: A FilterStore so multi-core-aware workers can pull only tasks
        #: that fit their free cores.
        self.ready = FilterStore(env)
        #: Completed (or definitively failed) task results.
        self.results = Store(env)
        #: Set when the workload is over; workers drain and exit.
        self.drain_event = env.event()
        # bookkeeping
        self.workers_connected = 0
        self.tasks_submitted = 0
        self.tasks_running = 0
        self.tasks_returned = 0
        self.tasks_requeued = 0
        #: Requeue count per loss reason (eviction, worker-crash, fast-abort).
        self.requeues_by_reason: Dict[str, int] = {}
        #: (time, running) samples for concurrency timelines.
        self.running_samples: List[tuple] = []
        #: (time, workers connected) samples (§5's overview panel).
        self.worker_samples: List[tuple] = []
        self.cores_connected = 0
        #: (time, cores connected) samples for pool-occupancy reporting.
        self.core_samples: List[tuple] = []
        # ---- fast abort (straggler mitigation) ----
        #: task -> (started, abort_event) for tasks currently executing.
        self._running_registry: Dict[Task, tuple] = {}
        self._runtime_sum = 0.0
        self._runtime_n = 0
        self.fast_abort_multiplier: Optional[float] = None
        self.tasks_aborted = 0
        # ---- active recovery (retry budgets, blacklisting) ----
        self.tasks_exhausted = 0
        #: host (machine name) -> [succeeded, failed] result counts.
        self._host_stats: Dict[str, List[int]] = {}
        #: host -> simulation time the blacklist entry was created.
        self.blacklisted: Dict[str, float] = {}
        self.hosts_blacklisted = 0  #: total entries ever created
        #: paroles granted when the blacklist condemned every known host
        #: (a pool-wide transient, not a black hole).
        self.hosts_paroled = 0
        # ---- exactly-once accounting ----
        self.tasks_duplicate = 0  #: late/duplicate results dropped
        # ---- crash accounting (MasterCrash fault) ----
        self.crashed = False
        self.tasks_orphaned = 0  #: ready + in-flight attempts lost in a crash
        self.results_orphaned = 0  #: results that arrived after the crash
        #: Callbacks observing every accepted result (see add_result_tap).
        self.result_taps: List = []
        # ---- per-topic fast paths ----
        # The master narrates every task lifecycle transition; with tens
        # of thousands of tasks these are the densest domain topics in a
        # run, so each site guards on its compiled port and builds no
        # payload when the topic is unmatched.
        bus = env.bus
        self._p_submit = bus.port(Topics.TASK_SUBMIT)
        self._p_start = bus.port(Topics.TASK_START)
        self._p_done = bus.port(Topics.TASK_DONE)
        self._p_requeue = bus.port(Topics.TASK_REQUEUE)
        self._p_abort = bus.port(Topics.TASK_ABORT)
        self._p_exhausted = bus.port(Topics.TASK_EXHAUSTED)
        self._p_duplicate = bus.port(Topics.TASK_DUPLICATE)
        self._p_register = bus.port(Topics.WORKER_REGISTER)
        self._p_unregister = bus.port(Topics.WORKER_UNREGISTER)
        self._p_blacklist = bus.port(Topics.HOST_BLACKLIST)

    # -- Lobster-facing API -----------------------------------------------------
    def submit(self, task: Task) -> None:
        """Queue *task* for dispatch."""
        task.state = TaskState.READY
        task.submitted = self.env.now
        self.tasks_submitted += 1
        if self.env.spans is not None and task.trace is not None:
            self._trace_attempt(task)
        port = self._p_submit
        if port.on:
            port.emit(
                task_id=task.task_id,
                category=task.category,
                ready=len(self.ready.items) + 1,
            )
        self.ready.put(task)

    def _trace_attempt(self, task: Task) -> None:
        """Open the next attempt span (plus its queue-wait child) for a
        traced task.  Retries link back to the attempt they replace."""
        tr = self.env.spans
        task.attempt_span = tr.attempt(
            task.trace,
            task_id=task.task_id,
            category=task.category,
            attempt=task.attempts + 1,
        )
        task.queue_span = tr.start("queue.wait", parent=task.attempt_span)

    def _trace_attempt_end(self, task: Task, status: str, **attrs) -> None:
        tr = self.env.spans
        if tr is not None and task.attempt_span is not None:
            tr.end(task.attempt_span, status=status, **attrs)
            task.attempt_span = None
            task.queue_span = None

    def wait(self):
        """DES event: the next available :class:`TaskResult`."""
        return self.results.get()

    @property
    def ready_count(self) -> int:
        return len(self.ready.items)

    @property
    def draining(self) -> bool:
        return self.drain_event.triggered

    def drain(self) -> None:
        """Signal end of workload; idle workers shut down cleanly."""
        if not self.drain_event.triggered:
            self.drain_event.succeed()

    def crash(self) -> int:
        """The master process dies where it stands (a MasterCrash fault).

        Work Queue state is not durable: the ready queue and every
        in-flight attempt are orphaned, and any result still arriving is
        dropped unprocessed.  A warm-restarted master re-derives the lost
        work from the Lobster DB — re-attachment happens at the tasklet
        layer, not here.  Returns the number of orphaned attempts.
        """
        orphaned = self.tasks_running + len(self.ready.items)
        self.crashed = True
        self.tasks_orphaned = orphaned
        self.ready.items.clear()
        self.drain()
        return orphaned

    # -- worker-facing API --------------------------------------------------------
    def register(self, cores: int = 1) -> None:
        self.workers_connected += 1
        self.cores_connected += cores
        self.worker_samples.append((self.env.now, self.workers_connected))
        self.core_samples.append((self.env.now, self.cores_connected))
        port = self._p_register
        if port.on:
            port.emit(
                workers=self.workers_connected,
                cores=self.cores_connected,
            )

    def unregister(self, cores: int = 1) -> None:
        self.workers_connected -= 1
        self.cores_connected -= cores
        self.worker_samples.append((self.env.now, self.workers_connected))
        self.core_samples.append((self.env.now, self.cores_connected))
        port = self._p_unregister
        if port.on:
            port.emit(
                workers=self.workers_connected,
                cores=self.cores_connected,
            )

    def task_started(self) -> None:
        self.tasks_running += 1
        self.running_samples.append((self.env.now, self.tasks_running))
        port = self._p_start
        if port.on:
            port.emit(running=self.tasks_running)

    def task_finished(self, result: TaskResult, host: Optional[str] = None) -> None:
        # Late-result guard: a result for a task that was already
        # completed, or whose attempt predates a requeue, is a duplicate
        # delivery from the at-least-once substrate — drop it before it
        # perturbs any accounting.
        task = result.task
        if self.crashed:
            # Nobody is listening: the scheduler died.  The attempt's
            # output was never committed, so the restarted master will
            # re-derive it from the DB.
            self.results_orphaned += 1
            return
        stale = task.result is not None or (
            result.attempt is not None and result.attempt < task.attempts
        )
        if stale:
            self.tasks_duplicate += 1
            port = self._p_duplicate
            if port.on:
                port.emit(
                    task_id=task.task_id,
                    category=task.category,
                    source="master",
                    attempt=result.attempt,
                    attempts=task.attempts,
                    workflow=getattr(task.payload, "workflow", None),
                )
            return
        self.tasks_running -= 1
        self.running_samples.append((self.env.now, self.tasks_running))
        self.tasks_returned += 1
        port = self._p_done
        if port.on:
            port.emit(
                task_id=result.task.task_id,
                category=result.task.category,
                exit_code=int(result.exit_code),
                ok=result.succeeded,
                running=self.tasks_running,
            )
        if result.succeeded and result.task.category == "analysis":
            self._runtime_sum += result.wall_time
            self._runtime_n += 1
        result.task.state = (
            TaskState.DONE if result.succeeded else TaskState.FAILED
        )
        result.task.result = result
        self._trace_attempt_end(
            task,
            "ok" if result.succeeded else "failed",
            exit_code=int(result.exit_code),
        )
        if host is not None:
            self._observe_host(host, result.succeeded)
        for tap in self.result_taps:
            tap(result)
        self.results.put(result)

    def add_result_tap(self, tap) -> None:
        """Observe every accepted (non-duplicate) result, pre-delivery.

        Used by instrumentation and fault injection (e.g. duplicate
        delivery replays a captured result).  Taps must not mutate the
        result.
        """
        self.result_taps.append(tap)

    def cancel(self, task: Task) -> bool:
        """Withdraw a task that is still waiting in the ready queue.

        Returns True when the task was found and removed; a task already
        dispatched to a worker cannot be cancelled this way (its result
        will still arrive and should be ignored by the caller).
        """
        try:
            self.ready.items.remove(task)
        except ValueError:
            return False
        task.state = TaskState.CANCELLED
        self.tasks_submitted -= 1
        self._trace_attempt_end(task, "cancelled")
        return True

    def requeue(
        self, task: Task, lost_after: float = 0.0, reason: str = "eviction"
    ) -> None:
        """Return a lost task (eviction, fast-abort, worker crash) to the
        ready queue — after the policy's backoff delay, and only while
        the task's retry budget lasts; an exhausted task is declared
        failed instead and surfaces as a normal (failed) result."""
        if self.tasks_running > 0:
            self.tasks_running -= 1
            self.running_samples.append((self.env.now, self.tasks_running))
        task.attempts += 1
        task.lost_time += lost_after
        task.state = TaskState.LOST
        self._trace_attempt_end(task, reason, lost_after=lost_after)
        if self.recovery.exhausted(task.attempts):
            self._exhaust(task, reason)
            return
        delay = self.recovery.requeue_delay(task.attempts)
        self.tasks_requeued += 1
        self.requeues_by_reason[reason] = self.requeues_by_reason.get(reason, 0) + 1
        port = self._p_requeue
        if port.on:
            port.emit(
                task_id=task.task_id,
                attempts=task.attempts,
                lost_after=lost_after,
                reason=reason,
                delay=delay,
                running=self.tasks_running,
            )
        if self.env.spans is not None and task.trace is not None:
            self._trace_attempt(task)
            if delay > 0:
                self.env.spans.annotate(task.queue_span, backoff=delay)
        if delay > 0:
            self.env.process(
                self._delayed_requeue(task, delay),
                name=f"{self.name}-requeue{task.task_id}",
            )
        else:
            self.ready.put(task)
            task.state = TaskState.READY

    def _delayed_requeue(self, task: Task, delay: float):
        yield self.env.timeout(delay)
        self.ready.put(task)
        task.state = TaskState.READY

    def _exhaust(self, task: Task, reason: str) -> None:
        """Spend the task's retry budget: fail it and emit a result."""
        task.state = TaskState.FAILED
        self.tasks_exhausted += 1
        port = self._p_exhausted
        if port.on:
            port.emit(
                task_id=task.task_id,
                category=task.category,
                attempts=task.attempts,
                lost_time=task.lost_time,
                reason=reason,
                workflow=getattr(task.payload, "workflow", None),
            )
        now = self.env.now
        result = TaskResult(
            task=task,
            exit_code=ExitCode.EVICTED,
            worker_id="",
            submitted=task.submitted if task.submitted is not None else now,
            started=now,
            finished=now,
        )
        task.result = result
        self.tasks_returned += 1
        self.results.put(result)

    # -- host blacklisting (closing the paper's §5 black-hole loop) ----------
    def is_blacklisted(self, host: Optional[str]) -> bool:
        return host in self.blacklisted

    def _observe_host(self, host: str, succeeded: bool) -> None:
        policy = self.recovery
        if policy.blacklist_threshold is None or host in self.blacklisted:
            return
        stats = self._host_stats.get(host)
        if stats is None:
            stats = self._host_stats[host] = [0, 0]
        stats[0 if succeeded else 1] += 1
        total = stats[0] + stats[1]
        if total < policy.blacklist_min_samples:
            return
        rate = stats[1] / total
        if rate < policy.blacklist_threshold:
            return
        self.blacklisted[host] = self.env.now
        self.hosts_blacklisted += 1
        port = self._p_blacklist
        if port.on:
            port.emit(
                host=host,
                active=True,
                failure_rate=rate,
                samples=total,
                blacklisted=len(self.blacklisted),
            )
        if policy.blacklist_duration is not None:
            self.env.process(
                self._unblacklist_later(host, policy.blacklist_duration),
                name=f"{self.name}-unblacklist-{host}",
            )
        elif all(h in self.blacklisted for h in self._host_stats):
            # Safety valve: the blacklist protects throughput, but a
            # pool-wide transient (e.g. a WAN outage failing every
            # stage-in) can condemn every known host — which wedges the
            # campaign forever.  Parole the oldest entry after a backoff
            # so the pool gets a fresh look once the storm passes.
            oldest = min(self.blacklisted, key=self.blacklisted.get)
            self.hosts_paroled += 1
            self.env.process(
                self._unblacklist_later(oldest, policy.backoff_cap),
                name=f"{self.name}-parole-{oldest}",
            )

    def _unblacklist_later(self, host: str, duration: float):
        yield self.env.timeout(duration)
        if self.blacklisted.pop(host, None) is None:
            return
        self._host_stats.pop(host, None)  # fresh slate on return
        port = self._p_blacklist
        if port.on:
            port.emit(
                host=host,
                active=False,
                blacklisted=len(self.blacklisted),
            )
        # A pending filtered get from the unblacklisted host's worker
        # re-evaluates only on the next store trigger; nudge it now.
        self.ready.retrigger()

    # -- fast abort (Work Queue's straggler mitigation) ----------------------
    def enable_fast_abort(
        self,
        multiplier: float = 3.0,
        check_interval: float = 60.0,
        min_samples: int = 10,
    ) -> None:
        """Abort analysis tasks running longer than *multiplier* x the
        mean successful runtime; Work Queue re-queues them elsewhere.

        This is Work Queue's classic long-tail defence: one worker on a
        sick or overloaded node cannot hold the whole workload hostage.
        """
        if multiplier <= 1.0:
            raise ValueError("multiplier must exceed 1")
        if check_interval <= 0 or min_samples <= 0:
            raise ValueError("check_interval and min_samples must be positive")
        if self.fast_abort_multiplier is not None:
            raise RuntimeError("fast abort already enabled")
        self.fast_abort_multiplier = multiplier
        self.env.process(
            self._fast_abort_monitor(check_interval, min_samples),
            name=f"{self.name}-fast-abort",
        )

    def mean_runtime(self) -> Optional[float]:
        return self._runtime_sum / self._runtime_n if self._runtime_n else None

    def register_running(self, task: Task, abort_event) -> None:
        self._running_registry[task] = (self.env.now, abort_event)

    def unregister_running(self, task: Task) -> None:
        self._running_registry.pop(task, None)

    def _fast_abort_monitor(self, interval: float, min_samples: int):
        while not self.drain_event.triggered:
            tick = self.env.timeout(interval)
            yield tick | self.drain_event
            if self.drain_event.triggered:
                return
            if self._runtime_n < min_samples:
                continue
            threshold = self.fast_abort_multiplier * self.mean_runtime()
            now = self.env.now
            for task, (started, abort) in list(self._running_registry.items()):
                if task.category != "analysis":
                    continue
                if now - started > threshold and not abort.triggered:
                    abort.succeed()
                    self.tasks_aborted += 1
                    port = self._p_abort
                    if port.on:
                        port.emit(
                            task_id=task.task_id,
                            ran_for=now - started,
                            threshold=threshold,
                        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Master {self.name} ready={self.ready_count} "
            f"running={self.tasks_running} workers={self.workers_connected}>"
        )
