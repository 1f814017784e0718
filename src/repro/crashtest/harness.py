"""The crash-consistency fuzzer: kill the master anywhere, converge.

The harness runs one *donor* campaign to completion with a listener on
the Lobster DB's checkpoint stream.  Each checkpoint marks the commit of
one durable transaction — the only instants at which the persisted state
changes — so snapshotting there (:class:`~repro.crashtest.CampaignSnapshot`)
enumerates every distinct state a ``kill -9`` of the master could leave
behind.  For each selected crash point the harness then:

1. checks the structural invariants of the frozen DB + SE
   (:meth:`~repro.core.jobit_db.LobsterDB.check_invariants`),
2. warm-restarts a fresh campaign from the snapshot
   (``LobsterRun(recover=True)`` on a rehydrated DB and a restored
   storage element) and drives it to completion,
3. asserts **convergence**: the resumed campaign finishes every
   tasklet, passes the invariants at shutdown, and publishes the same
   checksum-verified event/byte totals as the uninterrupted donor —
   byte-identical output size lists when the crash hit after all
   processing had settled.

Modes: ``exhaustive`` visits every checkpoint (use the small ``micro``
scenario), ``sample`` reservoir-samples N checkpoints uniformly (for
the larger quickstart/chaos/corruption scenarios), and ``double_crash``
additionally snapshots the resumed run's *first* checkpoint — which
lands mid-recovery — and resumes a third campaign from there, proving
recovery is itself crash-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..testing import reset_id_counters
from .snapshot import CampaignSnapshot, capture_snapshot

__all__ = [
    "CrashScenario",
    "CrashPointResult",
    "CrashTestReport",
    "get_crash_scenario",
    "list_crash_scenarios",
    "run_crashtest",
]

#: Relative tolerance for published byte totals (file partitioning can
#: differ across a crash, so sums are recomposed from different floats).
_BYTES_RTOL = 1e-9


@dataclass(frozen=True)
class CrashScenario:
    """A campaign the fuzzer knows how to build, crash, and resume.

    *build* is ``(env, db, recover, seed) -> PreparedRun``; the same
    callable constructs the donor (``recover=False`` on an empty DB) and
    every resumed campaign (``recover=True`` on a rehydrated one).
    *strict_sizes* marks merge-free scenarios whose final output set is
    fixed once processing settles, enabling the byte-identical check.
    """

    name: str
    build: Callable
    n_workflows: int
    strict_sizes: bool = False
    settle: Optional[float] = None
    description: str = ""


@dataclass
class CrashPointResult:
    """Verdict for one crash point: empty *problems* means converged."""

    seq: int
    op: str
    problems: List[str] = field(default_factory=list)
    invariant_violations: int = 0
    strict: bool = False
    double_crashed: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class CrashTestReport:
    """The full fuzzing campaign: one result per crash point tested."""

    scenario: str
    mode: str
    seed: int
    checkpoints_total: int
    baseline: Dict
    points: List[CrashPointResult] = field(default_factory=list)
    donor_problems: List[str] = field(default_factory=list)
    #: Informational only — alerts the live health engine raised during
    #: the donor run.  Never part of the convergence fingerprint: a
    #: resumed campaign must converge on *outputs*, not on transient
    #: operational telemetry.
    donor_alerts_raised: int = 0

    @property
    def n_failed(self) -> int:
        return sum(1 for p in self.points if not p.ok)

    @property
    def invariant_violations(self) -> int:
        return sum(p.invariant_violations for p in self.points)

    @property
    def ok(self) -> bool:
        return not self.donor_problems and self.n_failed == 0

    def to_dict(self) -> Dict:
        """JSON-able payload (the CI artifact format)."""
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "seed": self.seed,
            "checkpoints_total": self.checkpoints_total,
            "points_tested": len(self.points),
            "points_failed": self.n_failed,
            "invariant_violations": self.invariant_violations,
            "ok": self.ok,
            "donor_problems": list(self.donor_problems),
            "donor_alerts_raised": self.donor_alerts_raised,
            "points": [
                {
                    "seq": p.seq,
                    "op": p.op,
                    "ok": p.ok,
                    "strict": p.strict,
                    "double_crashed": p.double_crashed,
                    "invariant_violations": p.invariant_violations,
                    "problems": list(p.problems),
                }
                for p in self.points
            ],
        }

    def format_report(self) -> str:
        """Human-readable summary (greppable CRASHTEST OK/FAILED verdict)."""
        lines = [
            f"crashtest scenario={self.scenario} mode={self.mode} "
            f"seed={self.seed}",
            f"checkpoints enumerated: {self.checkpoints_total}",
            f"crash points tested:    {len(self.points)}",
            f"invariant violations:   {self.invariant_violations}",
        ]
        for p in self.points:
            if not p.ok:
                lines.append(f"  FAILED seq={p.seq} op={p.op}")
                for problem in p.problems:
                    lines.append(f"    - {problem}")
        for problem in self.donor_problems:
            lines.append(f"  DONOR PROBLEM: {problem}")
        lines.append("CRASHTEST OK" if self.ok else "CRASHTEST FAILED")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Scenarios
# --------------------------------------------------------------------------


def _build_micro(env, db, recover: bool, seed: int):
    """Two tiny MC workflows — small enough for exhaustive fuzzing."""
    from ..analysis import simulation_code
    from ..batch import CondorPool, GlideinRequest, MachinePool
    from ..core import LobsterConfig, LobsterRun, Services, WorkflowConfig
    from ..distributions import NoEviction
    from ..scenarios import PreparedRun

    services = Services.default(env, seed=seed)
    cfg = LobsterConfig(
        workflows=[
            WorkflowConfig(
                label=f"micro{i}",
                code=simulation_code(),
                n_events=1_500,
                events_per_tasklet=500,
                tasklets_per_task=2,
            )
            for i in range(2)
        ],
        cores_per_worker=2,
        seed=seed,
    )
    run = LobsterRun(env, cfg, services, db=db, recover=recover)
    run.start()
    machines = MachinePool.homogeneous(env, 3, cores=2, fabric=services.fabric)
    pool = CondorPool(
        env, machines, eviction=NoEviction(), seed=seed,
        workflows=[wf.label for wf in cfg.workflows],
    )
    pool.submit(
        GlideinRequest(n_workers=3, cores_per_worker=2, start_interval=1.0),
        run.worker_payload,
    )
    return PreparedRun(env, run, pool, services)


def _build_quickstart(env, db, recover: bool, seed: int):
    from ..scenarios import prepare_quickstart

    return prepare_quickstart(
        events=10_000, workers=4, seed=seed, env=env, db=db, recover=recover
    )


def _build_chaos(env, db, recover: bool, seed: int):
    from ..scenarios import prepare_chaos

    # machines=6 keeps the pool viable under the barrage: with fewer,
    # the black-hole host plus blacklisting can starve the run of
    # dispatchable workers and a late merge retry never executes.
    return prepare_chaos(
        files=12, machines=6, cores=2, seed=seed,
        env=env, db=db, recover=recover,
    )


def _build_corruption(env, db, recover: bool, seed: int):
    from ..scenarios import prepare_chaos

    return prepare_chaos(
        files=12, machines=6, cores=2, seed=seed,
        truncate=2, bit_rot=2, duplicates=2,
        env=env, db=db, recover=recover,
    )


CRASH_SCENARIOS: Dict[str, CrashScenario] = {
    s.name: s
    for s in (
        CrashScenario(
            "micro", _build_micro, n_workflows=2, strict_sizes=True,
            description="two tiny MC workflows (exhaustive-mode sized)",
        ),
        CrashScenario(
            "quickstart", _build_quickstart, n_workflows=1, strict_sizes=True,
            description="the CLI quickstart run, scaled down",
        ),
        CrashScenario(
            "chaos", _build_chaos, n_workflows=1, strict_sizes=True,
            description="the fault-barrage data run, scaled down",
        ),
        CrashScenario(
            "corruption", _build_corruption, n_workflows=1,
            strict_sizes=False,
            description="chaos plus truncation, bit rot, and duplicates "
                        "(interleaved merging engaged)",
        ),
    )
}


def get_crash_scenario(name: str) -> CrashScenario:
    try:
        return CRASH_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(CRASH_SCENARIOS))
        raise KeyError(
            f"unknown crashtest scenario {name!r} (known: {known})"
        ) from None


def list_crash_scenarios() -> List[CrashScenario]:
    return [CRASH_SCENARIOS[k] for k in sorted(CRASH_SCENARIOS)]


# --------------------------------------------------------------------------
# Fingerprints and convergence
# --------------------------------------------------------------------------


def campaign_fingerprint(run) -> Dict:
    """Publish every workflow and fingerprint the verified result.

    Publication is the end-to-end gate: it re-verifies each file's
    checksum against the storage element and refuses non-committed
    ledger rows, so a fingerprint only exists for a campaign whose
    outputs are exactly-once and clean.  Raises on violation.
    """
    from ..core.publish import Publisher
    from ..dbs import DBS

    publisher = Publisher(DBS())
    fp: Dict = {}
    for label, w in sorted(run.workflows.items()):
        record = run.publish_workflow(label, publisher)
        files = list(w.merge.merged_files) or list(w.output_files)
        fp[label] = {
            "events": record.total_events,
            "bytes": record.total_bytes,
            "files": record.n_files,
            "sizes": sorted(float(f.size_bytes) for f in files),
        }
    return fp


def _completion_problems(run) -> List[str]:
    problems: List[str] = []
    for label, w in sorted(run.workflows.items()):
        if w.tasklets is None:
            problems.append(f"{label}: tasklets never built")
            continue
        if not w.tasklets.complete:
            problems.append(
                f"{label}: {w.tasklets.pending_count} tasklets still pending "
                f"({w.tasklets.done_count}/{w.tasklets.total} done)"
            )
        if not w.complete:
            problems.append(f"{label}: merge obligations not discharged")
    return problems


def _check_convergence(run, baseline: Dict, strict: bool) -> List[str]:
    """Did the resumed campaign end at the donor's answer?"""
    problems = _completion_problems(run)
    problems.extend(run.check_invariants())
    if problems:
        return problems  # fingerprinting would raise on a broken campaign
    try:
        fp = campaign_fingerprint(run)
    except Exception as exc:  # IntegrityError / ValueError from publish
        return [f"publication failed: {exc}"]
    for label, base in baseline.items():
        got = fp.get(label)
        if got is None:
            problems.append(f"{label}: workflow missing after resume")
            continue
        if got["events"] != base["events"]:
            problems.append(
                f"{label}: published {got['events']} events, "
                f"baseline {base['events']}"
            )
        if not np.isclose(
            got["bytes"], base["bytes"], rtol=_BYTES_RTOL, atol=0.0
        ):
            problems.append(
                f"{label}: published {got['bytes']:.0f} bytes, "
                f"baseline {base['bytes']:.0f}"
            )
        if strict and got["sizes"] != base["sizes"]:
            problems.append(
                f"{label}: output size list diverged "
                f"({len(got['sizes'])} vs {len(base['sizes'])} files)"
            )
    return problems


def _all_settled(db, n_workflows: int) -> bool:
    """Every workflow recorded and every tasklet in a terminal state."""
    labels = db.workflow_labels()
    if len(labels) != n_workflows:
        return False
    for label in labels:
        counts = db.tasklet_state_counts(label)
        if not counts:
            return False
        if any(state not in ("done", "failed") for state in counts):
            return False
    return True


# --------------------------------------------------------------------------
# Donor and resume execution
# --------------------------------------------------------------------------


#: Simulated-time budget per campaign.  The scenarios finish in well
#: under 10^4 simulated seconds; a campaign still unfinished at the cap
#: is starved or livelocked and is reported instead of spinning forever.
SIM_TIME_CAP = 2_000_000.0


def _execute(prepared, settle, cap: float = SIM_TIME_CAP):
    """Drive a prepared campaign; hangs surface as a problem string."""
    env = prepared.env
    run = prepared.run
    try:
        env.run(until=env.any_of([run.process, env.timeout(cap)]))
    except RuntimeError as exc:
        return f"campaign deadlocked: {exc}"
    prepared.pool.drain()
    if settle is not None:
        env.run(until=env.now + settle)
    if run.finished_at is None:
        return (
            f"campaign did not finish within {cap:.0f} simulated seconds"
        )
    return None


def _resume(
    snapshot: CampaignSnapshot,
    spec: CrashScenario,
    seed: int,
    capture_first: bool = False,
):
    """Warm-restart a campaign from *snapshot* and run it to completion.

    Returns ``(run, mid_snapshots, problem)`` where *mid_snapshots*
    holds the resumed run's first checkpoint when *capture_first* is
    set — a genuinely mid-recovery state (recovery persists restored
    tasklet states before any new work is dispatched).
    """
    from ..core.jobit_db import LobsterDB
    from ..desim import Environment

    reset_id_counters()
    env = Environment()
    db = LobsterDB.from_dump(snapshot.db_script)
    prepared = spec.build(env, db, True, seed)
    se = prepared.services.se
    se.restore_state(snapshot.se_state)
    mid: List[CampaignSnapshot] = []
    if capture_first:
        def first_checkpoint(seq: int, op: str) -> None:
            if not mid:
                mid.append(capture_snapshot(seq, op, db, se))

        db.add_checkpoint_listener(first_checkpoint)
    problem = _execute(prepared, spec.settle)
    return prepared.run, mid, problem


def _verify_point(
    snapshot: CampaignSnapshot,
    spec: CrashScenario,
    baseline: Dict,
    seed: int,
    double_crash: bool,
) -> CrashPointResult:
    """Invariants at the crash point, then resume-and-converge."""
    from ..core.jobit_db import LobsterDB

    result = CrashPointResult(seq=snapshot.seq, op=snapshot.op)
    frozen = LobsterDB.from_dump(snapshot.db_script)
    violations = frozen.check_invariants(se=snapshot.file_names())
    result.invariant_violations = len(violations)
    result.problems.extend(f"invariant: {v}" for v in violations)
    result.strict = spec.strict_sizes and _all_settled(
        frozen, spec.n_workflows
    )
    frozen.close()

    run, mid, problem = _resume(
        snapshot, spec, seed, capture_first=double_crash
    )
    if problem:
        result.problems.append(problem)
    result.problems.extend(_check_convergence(run, baseline, result.strict))

    if double_crash and mid:
        result.double_crashed = True
        run2, _, problem2 = _resume(mid[0], spec, seed)
        if problem2:
            result.problems.append(f"double-crash: {problem2}")
        result.problems.extend(
            f"double-crash: {p}"
            for p in _check_convergence(run2, baseline, strict=False)
        )
    return result


# --------------------------------------------------------------------------
# The fuzzer
# --------------------------------------------------------------------------


def run_crashtest(
    scenario: str = "micro",
    mode: str = "exhaustive",
    samples: int = 10,
    seed: int = 0,
    double_crash: bool = False,
    progress: Optional[Callable[[CrashPointResult], None]] = None,
) -> CrashTestReport:
    """Fuzz every (or *samples* sampled) crash points of *scenario*.

    The donor run executes once and provides both the baseline
    fingerprint and the snapshots; in exhaustive mode its live DB is
    also invariant-checked at every checkpoint.  *progress* receives
    each :class:`CrashPointResult` as it lands.
    """
    from ..core.jobit_db import LobsterDB
    from ..desim import Environment

    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"mode must be 'exhaustive' or 'sample', got {mode!r}")
    if mode == "sample" and samples <= 0:
        raise ValueError("samples must be positive")
    spec = get_crash_scenario(scenario)

    # ---- donor run: baseline + snapshot capture ----------------------
    reset_id_counters()
    env = Environment()
    db = LobsterDB()
    rng = np.random.default_rng(seed)
    snaps: List[CampaignSnapshot] = []
    live_violations: List[str] = []
    holder: Dict = {}
    seen = [0]

    def listener(seq: int, op: str) -> None:
        se = holder.get("se")
        if se is None:  # pre-build transitions cannot occur, but be safe
            return
        if mode == "exhaustive":
            snaps.append(capture_snapshot(seq, op, db, se))
            for v in db.check_invariants(se=se):
                live_violations.append(f"seq={seq} op={op}: {v}")
        else:
            # Reservoir sampling: uniform over an unknown-length stream,
            # deciding before paying for the dump.
            seen[0] += 1
            if len(snaps) < samples:
                snaps.append(capture_snapshot(seq, op, db, se))
            else:
                j = int(rng.integers(0, seen[0]))
                if j < samples:
                    snaps[j] = capture_snapshot(seq, op, db, se)

    db.add_checkpoint_listener(listener)
    from ..monitor import RunWatcher

    watcher = RunWatcher(env.bus)
    prepared = spec.build(env, db, False, seed)
    holder["se"] = prepared.services.se
    donor_problems: List[str] = []
    problem = _execute(prepared, spec.settle)
    if problem:
        donor_problems.append(f"donor: {problem}")
    donor_problems.extend(
        f"donor: {p}" for p in _completion_problems(prepared.run)
    )
    donor_problems.extend(
        f"donor invariant: {v}" for v in prepared.run.check_invariants()
    )
    donor_problems.extend(f"live invariant: {v}" for v in live_violations)
    baseline = campaign_fingerprint(prepared.run) if not donor_problems else {}

    report = CrashTestReport(
        scenario=scenario,
        mode=mode,
        seed=seed,
        checkpoints_total=db.checkpoint_seq,
        baseline=baseline,
        donor_problems=donor_problems,
        donor_alerts_raised=len(watcher.engine.alerts_raised()),
    )
    if donor_problems:
        return report  # no point fuzzing a broken donor

    # ---- crash points -------------------------------------------------
    for snap in sorted(snaps, key=lambda s: s.seq):
        point = _verify_point(snap, spec, baseline, seed, double_crash)
        report.points.append(point)
        if progress is not None:
            progress(point)
    return report
