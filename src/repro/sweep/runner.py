"""Sweep execution: fan the run matrix out across worker processes.

Each run executes in its own fresh state — a new
:class:`~repro.desim.Environment`, a new
:class:`~repro.monitor.SpanTracer`, and rewound global id counters
(:func:`repro.testing.reset_id_counters`) — so a run's metrics are a
pure function of ``(scenario, params, seed)``.  That is what makes run
IDs content-addressable and lets ``--jobs 1`` and ``--jobs 4`` produce
byte-identical result rows.

Failure isolation: every run owns one worker process.  A run that
raises reports a ``failed`` row; a run whose process dies (segfault,
``os._exit``) or overruns the timeout is marked ``failed`` and
terminated without touching its siblings.  Resuming a sweep feeds the
previous ``BENCH_sweep.json`` back in: completed run IDs are reused,
only missing or failed runs execute.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from .registry import get_scenario
from .results import (
    STATUS_FAILED,
    RunResult,
    load_sweep,
    reduce_sweep,
)
from .spec import RunPlan, SweepSpec

__all__ = ["execute_plan", "run_sweep"]

#: How long the parent sleeps between polls of its worker pipes.
_POLL_S = 0.01
#: Grace period between terminate() and kill() on a timed-out worker.
_TERM_GRACE_S = 2.0

#: Critical-path contributors kept per run.
TOP_CONTRIBUTORS = 8


def _mp_context():
    """Prefer fork (cheap, modules already imported), fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# --------------------------------------------------------------------------
# Single-run execution
# --------------------------------------------------------------------------


def _des_outcome(result, tracer, record_series: bool):
    """Standard metric set + critical-path attribution for a DES run."""
    from ..monitor import attribute, critical_path, work_coverage

    env, run, pool = result.env, result.run, result.pool
    m = run.metrics
    recs = [
        r for r in m.records if r.category == "analysis" and r.succeeded
    ]
    cpu = float(sum(r.segments.get("cpu", 0.0) for r in recs))
    wall = float(sum(r.wall_time for r in recs))
    setups = [r.segments.get("setup", 0.0) for r in recs]
    services = run.services
    proxy_bytes = float(
        sum(p.bytes_served for p in services.proxies.proxies)
    )
    analysis_done = sorted(r.finished for r in recs)
    merge_done = sorted(
        r.finished for r in m.records if r.category == "merge" and r.succeeded
    )
    if services.mapreduce is not None:
        # Hadoop merges run inside the storage cluster, not as WQ tasks.
        merge_done = sorted(
            merge_done
            + [t for t, phase, _ in services.mapreduce.completions if phase == "reduce"]
        )
    metrics: Dict[str, float] = {
        "makespan_s": float(env.now),
        "efficiency": float(m.overall_efficiency()),
        "tasks_ok": float(m.n_succeeded()),
        "tasks_failed": float(m.n_failed()),
        "tasks_requeued": float(run.master.tasks_requeued),
        "evictions": float(pool.total_evictions),
        "cpu_s": cpu,
        "wall_s": wall,
        "overhead_s": wall - cpu,
        "cpu_utilisation": cpu / wall if wall else 0.0,
        "mean_setup_s": float(sum(setups) / len(setups)) if setups else 0.0,
        "wan_bytes": float(services.wan.bytes_moved),
        "chirp_bytes": float(services.chirp.bytes_out),
        "proxy_bytes": proxy_bytes,
        "merged_files": float(
            sum(len(w.merge.merged_files) for w in run.workflows.values())
        ),
        "outputs_created": float(
            sum(w.outputs_created for w in run.workflows.values())
        ),
    }
    if analysis_done:
        metrics["last_analysis_s"] = float(analysis_done[-1])
    if merge_done:
        metrics["first_merge_s"] = float(merge_done[0])
        metrics["last_merge_s"] = float(merge_done[-1])

    slices, makespan = critical_path(tracer.spans)
    contributors = [
        {
            "label": label,
            "seconds": seconds,
            "share": seconds / makespan if makespan else 0.0,
        }
        for label, seconds in attribute(slices)[:TOP_CONTRIBUTORS]
    ]
    coverage = work_coverage(slices, makespan) if slices else None

    series: Dict[str, list] = {}
    if record_series:
        series["analysis_done"] = [float(t) for t in analysis_done]
        series["merge_done"] = [float(t) for t in merge_done]
    return metrics, contributors, coverage, series


def execute_plan(plan: RunPlan, record_series: bool = False) -> RunResult:
    """Run one plan in-process and return its :class:`RunResult`.

    Resets the global id counters first, so results are identical
    whether the plan runs here or in a worker process.
    """
    from ..testing import reset_id_counters

    reset_id_counters()
    sdef = get_scenario(plan.scenario)
    params = dict(plan.params)
    if sdef.kind == "model":
        metrics = dict(sdef.build(**params))
        return RunResult.for_plan(plan, metrics=metrics)

    from ..desim import Environment
    from ..monitor import RunWatcher, SpanTracer
    from ..scenarios import execute_campaign

    env = Environment()
    tracer = SpanTracer(env)
    # The live health engine rides along on every sweep cell; its alert
    # counts are result metrics, and because the engine is a pure fold
    # of the event stream they are identical under --jobs 1 and N.
    watcher = RunWatcher(env.bus)
    result = execute_campaign(sdef.build(env=env, **params), settle=None)
    tracer.finalize()
    metrics, contributors, coverage, series = _des_outcome(
        result, tracer, record_series
    )
    metrics["alerts_raised"] = float(len(watcher.engine.alerts_raised()))
    metrics["alerts_cleared"] = float(len(watcher.engine.alerts_cleared()))
    return RunResult.for_plan(
        plan,
        metrics=metrics,
        critical_path=contributors,
        work_coverage=coverage,
        series=series,
    )


def _execute_safely(plan: RunPlan, record_series: bool) -> RunResult:
    try:
        return execute_plan(plan, record_series=record_series)
    except Exception as exc:
        return RunResult.for_plan(
            plan,
            status=STATUS_FAILED,
            error=f"{type(exc).__name__}: {exc}",
        )


def _worker(plan_dict: dict, record_series: bool, conn) -> None:
    """Worker-process entry: run one plan, ship the row back, exit."""
    try:
        row = _execute_safely(RunPlan.from_dict(plan_dict), record_series)
        conn.send(row.to_dict())
    finally:
        conn.close()


# --------------------------------------------------------------------------
# The sweep loop
# --------------------------------------------------------------------------


class _Slot:
    """One in-flight worker process."""

    __slots__ = ("plan", "proc", "conn", "deadline")

    def __init__(self, plan, proc, conn, deadline):
        self.plan = plan
        self.proc = proc
        self.conn = conn
        self.deadline = deadline


def _reap(slot: _Slot, now: float) -> Optional[RunResult]:
    """Collect a slot's result if it finished, crashed, or timed out."""
    if slot.conn.poll():
        try:
            row = RunResult.from_dict(slot.conn.recv())
        except EOFError:
            # Pipe at EOF with no row: the worker died (segfault,
            # os._exit) before reporting.  Join first so exitcode is set.
            slot.proc.join()
            row = RunResult.for_plan(
                slot.plan, status=STATUS_FAILED,
                error="worker process died without a result "
                      f"(exit code {slot.proc.exitcode})",
            )
        slot.proc.join()
        slot.conn.close()
        return row
    if not slot.proc.is_alive():
        slot.proc.join()
        slot.conn.close()
        return RunResult.for_plan(
            slot.plan, status=STATUS_FAILED,
            error=f"worker process died (exit code {slot.proc.exitcode})",
        )
    if slot.deadline is not None and now >= slot.deadline:
        slot.proc.terminate()
        slot.proc.join(_TERM_GRACE_S)
        if slot.proc.is_alive():  # pragma: no cover - stubborn worker
            slot.proc.kill()
            slot.proc.join()
        slot.conn.close()
        return RunResult.for_plan(
            slot.plan, status=STATUS_FAILED,
            error="worker process timed out",
        )
    return None


def _run_parallel(
    plans: Sequence[RunPlan],
    jobs: int,
    record_series: bool,
    timeout_s: Optional[float],
    progress: Optional[Callable[[RunResult], None]],
) -> Dict[str, RunResult]:
    ctx = _mp_context()
    queue = list(plans)
    active: List[_Slot] = []
    done: Dict[str, RunResult] = {}
    while queue or active:
        while queue and len(active) < jobs:
            plan = queue.pop(0)
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker,
                args=(plan.to_dict(), record_series, child_conn),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            deadline = (
                time.monotonic() + timeout_s if timeout_s is not None else None
            )
            active.append(_Slot(plan, proc, parent_conn, deadline))
        now = time.monotonic()
        still_active = []
        for slot in active:
            row = _reap(slot, now)
            if row is None:
                still_active.append(slot)
                continue
            done[row.run_id] = row
            if progress is not None:
                progress(row)
        active = still_active
        if active:
            time.sleep(_POLL_S)
    return done


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    baseline: Optional[str] = None,
    resume: Union[None, str, Mapping] = None,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[RunResult], None]] = None,
) -> dict:
    """Expand *spec*, execute its matrix, and reduce to a sweep payload.

    ``jobs=1`` runs in-process (handy under a debugger); ``jobs>1``
    fans out across that many worker processes.  *resume* takes a prior
    payload (or a path to one): completed run IDs are reused with
    ``resumed: true``, failed and missing runs re-execute.  *baseline*
    overrides the all-baseline run for the delta table; *timeout_s*
    overrides ``spec.timeout_s``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    plans = spec.expand()
    timeout_s = timeout_s if timeout_s is not None else spec.timeout_s

    reused: Dict[str, RunResult] = {}
    if resume is not None:
        payload = load_sweep(resume) if isinstance(resume, str) else resume
        for row in payload.get("runs", []):
            prior = RunResult.from_dict(row)
            if prior.ok:
                prior.resumed = True
                reused[prior.run_id] = prior

    todo = [p for p in plans if p.run_id not in reused]
    if progress is not None:
        for plan in plans:
            if plan.run_id in reused:
                progress(reused[plan.run_id])

    if jobs == 1:
        executed: Dict[str, RunResult] = {}
        for plan in todo:
            row = _execute_safely(plan, spec.record_series)
            executed[row.run_id] = row
            if progress is not None:
                progress(row)
    else:
        executed = _run_parallel(
            todo, jobs, spec.record_series, timeout_s, progress
        )

    results = [
        reused.get(p.run_id) or executed[p.run_id] for p in plans
    ]
    if baseline is not None:
        known = {p.run_id for p in plans}
        if baseline not in known:
            raise ValueError(f"--baseline {baseline!r} is not a run id of this sweep")
    return reduce_sweep(spec, results, baseline_id=baseline)
