"""Work Queue workers.

A worker manages several cores on one machine and runs tasks that may
each claim one or more of them (``Task.cores``): a dispatcher pulls the
next task that *fits the currently free cores* and hands it to a runner
process, so a 4-core task occupies four slots while 1-core tasks pack
around it.  All task slots share the worker's sandbox cache and (in
Lobster's deployment) a single Parrot/CVMFS cache.

Workers are started as batch payloads by :class:`repro.batch.CondorPool`
and may be evicted at any moment: the eviction interrupt propagates into
the dispatcher and every runner, running tasks are reported lost and
re-queued at the master, and any in-flight transfers are cancelled.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, List, Optional, Set

from ..desim import Environment, Interrupt, Topics
from ..analysis.report import ExitCode
from ..batch.machines import Machine
from ..net import TrafficClass
from ..storage.integrity import IntegrityError
from .master import Master
from .task import Task, TaskResult, TaskState
from .transfer import ship

__all__ = ["Worker"]


class Worker:
    """A multi-core worker pulling tasks from a master or foreman."""

    _ids = count()

    def __init__(
        self,
        env: Environment,
        machine: Machine,
        upstream,
        cores: int = 8,
        connect_latency: float = 2.0,
        name: Optional[str] = None,
        context: Optional[Dict[str, Any]] = None,
    ):
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.env = env
        self.machine = machine
        self.upstream = upstream
        #: The root master (for bookkeeping), even when behind a foreman.
        self.master: Master = getattr(upstream, "master", upstream)
        self.cores = cores
        self.connect_latency = connect_latency
        self.name = name or f"worker{next(Worker._ids):06d}"
        #: Arbitrary per-worker context the executor may use (Lobster
        #: stores the ParrotCache, proxies, storage handles here).
        self.context: Dict[str, Any] = context or {}
        self._sandboxes: Set[str] = set()
        # Shared per-topic fast path (one compiled emitter per bus).
        self._p_dispatch = env.bus.port(Topics.TASK_DISPATCH)
        self.tasks_done = 0
        self.evicted = False
        self._free = cores
        self._runners: List = []
        self._dispatcher = None
        self._crash: Optional[BaseException] = None
        self._dying = False

    @property
    def free_cores(self) -> int:
        """Cores not currently claimed by a running task."""
        return self._free

    # -- the payload process -------------------------------------------------
    def run(self):
        """Main worker process (the condor payload)."""
        env = self.env
        registered = False
        try:
            yield env.timeout(self.connect_latency)
            self.master.register(self.cores)
            registered = True
            self._dispatcher = env.process(
                self._dispatch_loop(), name=f"{self.name}-dispatch"
            )
            yield self._dispatcher
            # Drained (or crashed): wait for in-flight runners to settle.
            for r in list(self._runners):
                if r.is_alive:
                    try:
                        yield r
                    except Exception:
                        pass
        except Interrupt as interrupt:
            self.evicted = True
            self._dying = True
            if self._dispatcher is not None and self._dispatcher.is_alive:
                self._dispatcher.interrupt(interrupt.cause)
            for r in list(self._runners):
                if r.is_alive:
                    r.interrupt(interrupt.cause)
            for r in list(self._runners):
                if r.is_alive:
                    try:
                        yield r
                    except Exception:
                        pass
        finally:
            if registered:
                self.master.unregister(self.cores)
        if self._crash is not None:
            # A runner hit a non-eviction failure (executor bug, machine
            # fault): surface it so the batch system records "failed".
            raise self._crash

    # -- internals ---------------------------------------------------------------
    @property
    def _source(self):
        return self.upstream.ready

    @property
    def _upstream_nic(self):
        return self.upstream.nic

    def _fits(self, task: Task) -> bool:
        return (
            not self._dying
            and task.cores <= self._free
            and not self.master.is_blacklisted(self.machine.name)
        )

    def _dispatch_loop(self):
        master = self.master
        while True:
            get = self._source.get(self._fits)
            try:
                outcome = yield get | master.drain_event
            except Interrupt:
                get.cancel()
                if get.triggered and get.ok:
                    master.requeue(get.value, reason=self._loss_reason())
                return
            if get not in outcome:
                get.cancel()
                return  # drained
            task: Task = outcome[get]
            task.state = TaskState.DISPATCHED
            port = self._p_dispatch
            if port.on:
                port.emit(
                    task_id=task.task_id,
                    worker=self.name,
                    cores=task.cores,
                    free=self._free - task.cores,
                )
            master.task_started()
            self._free -= task.cores
            runner = self.env.process(
                self._runner(task, self.env.now),
                name=f"{self.name}-run{task.task_id}",
            )
            tr = self.env.spans
            if tr is not None and task.attempt_span is not None:
                # The attempt context becomes ambient for the runner, so
                # every flow/segment below lands in the right tree.
                runner.span_ctx = task.attempt_span.ctx
                tr.annotate(
                    task.attempt_span, worker=self.name, host=self.machine.name
                )
                if task.queue_span is not None:
                    tr.end(task.queue_span, worker=self.name)
                    task.queue_span = None
            self._runners.append(runner)

    def _runner(self, task: Task, started: float):
        """Execute one task on its claimed cores."""
        master = self.master
        me = self.env.active_process
        try:
            result = yield from self._execute(task, started)
        except Interrupt:
            master.requeue(
                task, lost_after=self.env.now - started, reason=self._loss_reason()
            )
            return
        except Exception as exc:
            # The runner crashed: re-queue the task (real Work Queue
            # notices the disconnect), then take the whole worker down.
            master.requeue(
                task, lost_after=self.env.now - started, reason="worker-crash"
            )
            self._crash = exc
            self._shutdown(exclude=me)
            return
        finally:
            self._free += task.cores
            self._runners[:] = [r for r in self._runners if r is not me]
            # Freed cores may satisfy a filtered get blocked upstream.
            self._source.retrigger()
        if result is None:
            # Fast abort: the master flagged this task a straggler.
            master.requeue(
                task, lost_after=self.env.now - started, reason="fast-abort"
            )
            return
        self.tasks_done += 1
        master.task_finished(result, host=self.machine.name)

    def _loss_reason(self) -> str:
        """Why an interrupted task was lost: a co-runner's crash took the
        worker down, or the glide-in was evicted."""
        return "worker-crash" if self._crash is not None else "eviction"

    def _shutdown(self, exclude=None) -> None:
        """Stop the dispatcher and every other runner (worker crash)."""
        self._dying = True
        if self._dispatcher is not None and self._dispatcher.is_alive:
            self._dispatcher.interrupt("worker-crashed")
        for r in list(self._runners):
            if r is not exclude and r.is_alive:
                r.interrupt("worker-crashed")

    def _execute(self, task: Task, started: float) -> "TaskResult":
        env = self.env
        # Snapshot the attempt number now: if the master requeues the
        # task while we run (eviction race), our eventual result must be
        # recognisable as stale.
        attempt = task.attempts
        # --- WQ stage-in: sandbox (cached per worker) + WQ-managed inputs.
        t0 = env.now
        tr = env.spans
        nbytes = task.wq_input_bytes
        if task.sandbox_id not in self._sandboxes:
            nbytes += task.sandbox_bytes
        if nbytes > 0:
            span = None
            if tr is not None and task.attempt_span is not None and task.attempts == attempt:
                span = tr.start(
                    "wq.stage_in",
                    parent=task.attempt_span,
                    activate=True,
                    nbytes=nbytes,
                )
            yield from ship(
                self._upstream_nic, self.machine.nic, nbytes, cls=TrafficClass.STAGING
            )
            if span is not None:
                tr.end(span)
        self._sandboxes.add(task.sandbox_id)
        stage_in = env.now - t0

        # --- run the application wrapper as an interruptible process so
        # the master's fast-abort (straggler mitigation) can stop it.
        task.state = TaskState.RUNNING
        abort = env.event()
        self.master.register_running(task, abort)
        proc = env.process(
            self._run_wrapper(task), name=f"{self.name}-task{task.task_id}"
        )
        try:
            outcome = yield proc | abort
        except BaseException as exc:
            # Eviction interrupt or executor crash: stop the wrapper
            # process (cancelling its transfers) before propagating.
            if proc.is_alive:
                proc.interrupt("worker-gone")
                # A generator being finalised (GeneratorExit) must not
                # yield again; in every other case wait for the wrapper
                # to unwind so its transfers are cancelled.
                if not isinstance(exc, GeneratorExit):
                    try:
                        yield proc
                    except Exception:
                        pass
            self.master.unregister_running(task)
            raise
        self.master.unregister_running(task)
        if proc not in outcome:
            # Fast-aborted by the master.
            if proc.is_alive:
                proc.interrupt("fast-abort")
                try:
                    yield proc
                except Exception:
                    pass
            return None
        exit_code, segments, report = outcome[proc]

        # --- WQ stage-out: whatever the executor left for WQ to move.
        t0 = env.now
        out_bytes = task.wq_output_bytes if exit_code == ExitCode.SUCCESS else 0.0
        if out_bytes > 0:
            span = None
            if tr is not None and task.attempt_span is not None and task.attempts == attempt:
                span = tr.start(
                    "wq.stage_out",
                    parent=task.attempt_span,
                    activate=True,
                    nbytes=out_bytes,
                )
            try:
                yield from ship(
                    self.machine.nic,
                    self._upstream_nic,
                    out_bytes,
                    cls=TrafficClass.OUTPUT,
                    expect_digest=report.output_checksum if report else "",
                    payload_digest=task.wq_output_checksum,
                    name=f"task-{task.task_id}-output",
                )
            except IntegrityError:
                # The staged output did not survive the hop intact: a
                # retryable stage-out failure, not a worker crash.
                exit_code = ExitCode.STAGE_OUT_FAILED
                if report is not None:
                    report.exit_code = ExitCode.STAGE_OUT_FAILED
                    report.annotations["failed_segment"] = "wq_stage_out"
            if span is not None:
                tr.end(
                    span,
                    status="ok" if exit_code == ExitCode.SUCCESS else "integrity-failed",
                )
        stage_out = env.now - t0

        return TaskResult(
            task=task,
            exit_code=exit_code,
            worker_id=self.name,
            submitted=task.submitted if task.submitted is not None else started,
            started=started,
            finished=env.now,
            segments=dict(segments),
            wq_stage_in=stage_in,
            wq_stage_out=stage_out,
            report=report,
            attempt=attempt,
        )

    def _run_wrapper(self, task: Task):
        result = yield from task.executor(self, task)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Worker {self.name} cores={self.cores} on {self.machine.name}>"
