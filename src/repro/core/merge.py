"""Output merging (paper §4.4, Fig 7).

Lobster's eviction-tuned task sizes produce many small output files
(10–100 MB) that must be merged into publication-sized ones (3–4 GB).
Three strategies are implemented, exactly as the paper describes:

* **sequential** — after all analysis tasks finish, group the outputs
  and run merge tasks through Work Queue like ordinary tasks;
* **hadoop** — after processing, run the merge entirely inside the
  Hadoop storage cluster as a Map-Reduce job (map groups file names,
  reducers pull and concatenate data-locally);
* **interleaved** — once a workflow is ≥ 10 % processed, create merge
  tasks as soon as enough finished outputs accumulate to fill one
  target-size file; merge tasks run alongside analysis tasks.  This is
  Lobster's default: least resource-efficient but fastest to finish.

Integrity: merging is the hop where silent corruption becomes
irreversible (children are deleted), so the manager only consumes
ledger-committed inputs whose checksums verify, quarantines corrupt
ones for the control loop to re-derive, and commits the merged output
two-phase — children are deleted only *after* the merged file itself
stored, verified and committed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis import ExitCode, FrameworkReport
from ..desim import Topics
from ..hadoop import MapReduceJob, TaskCost
from ..net import TrafficClass
from ..storage import ChirpError, StoredFile, XrootdError, compute_checksum
from ..storage.integrity import IntegrityError
from ..wq import Task
from .config import LobsterConfig, MergeMode, WorkflowConfig
from .services import Services
from .unit import TaskPayload
from .wrapper import Segment

__all__ = ["MergeGroup", "plan_groups", "MergeManager", "merge_executor"]

#: CPU cost of concatenating output data (seconds per byte).
MERGE_CPU_PER_BYTE = 2e-9


class MergeGroup:
    """A set of small outputs destined for one merged file."""

    # A plain integer instead of itertools.count so a recovered run can
    # seed it past the ids already recorded in the Lobster DB — a fresh
    # process restarting with a persistent DB must not reuse
    # ``merged_00001.root`` and overwrite committed outputs.
    _next_id = 1

    @classmethod
    def _take_id(cls) -> int:
        gid = cls._next_id
        cls._next_id += 1
        return gid

    @classmethod
    def seed_ids(cls, start: int) -> None:
        """Ensure future group ids start at or above *start*."""
        cls._next_id = max(cls._next_id, int(start))

    def __init__(self, inputs: List[StoredFile], workflow: str):
        if not inputs:
            raise ValueError("a merge group needs at least one input")
        self.group_id = MergeGroup._take_id()
        self.inputs = list(inputs)
        self.workflow = workflow
        self.output_name = f"/store/user/{workflow}/merged/merged_{self.group_id:05d}.root"
        self.attempts = 0

    @property
    def total_bytes(self) -> float:
        return sum(f.size_bytes for f in self.inputs)

    @property
    def checksum(self) -> str:
        """Digest of the concatenation, derived from the child digests."""
        return compute_checksum("merge", *(f.checksum for f in self.inputs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MergeGroup {self.group_id} files={len(self.inputs)} bytes={self.total_bytes:.0f}>"


def plan_groups(
    files: List[StoredFile],
    target_bytes: float,
    workflow: str,
    allow_partial: bool = True,
) -> Tuple[List[MergeGroup], List[StoredFile]]:
    """Greedy grouping of *files* into ~*target_bytes* merge groups.

    Returns (groups, leftovers).  With *allow_partial* the trailing
    under-sized group is also emitted; otherwise its files are returned
    as leftovers (the interleaved planner waits for more outputs).
    """
    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")
    groups: List[MergeGroup] = []
    bucket: List[StoredFile] = []
    size = 0.0
    for f in sorted(files, key=lambda f: f.name):
        bucket.append(f)
        size += f.size_bytes
        if size >= target_bytes:
            groups.append(MergeGroup(bucket, workflow))
            bucket, size = [], 0.0
    if bucket:
        if allow_partial:
            groups.append(MergeGroup(bucket, workflow))
            bucket = []
    return groups, bucket


def merge_executor(workflow: WorkflowConfig, services: Services):
    """Build the WQ executor for merge tasks.

    Merge inputs are transferred via XrootD (paper: "transferring data
    via XrootD (input files only)"), concatenated, and the merged file
    staged out via Chirp.  Before any byte is read each input's checksum
    is re-verified against the storage element — a corrupt child fails
    the task with the offending names annotated, so the manager can
    quarantine them instead of blindly retrying.
    """

    def executor(worker, task):
        env = worker.env
        payload: TaskPayload = task.payload
        group: MergeGroup = payload.merge_inputs[0]
        segments: Dict[str, float] = {}
        report = FrameworkReport()
        total = group.total_bytes

        # ---- input: verify, then pull the small files over XrootD ----
        t0 = env.now
        se = services.se
        corrupt: List[str] = []
        for f in group.inputs:
            if not se.exists(f.name):
                continue
            try:
                se.verify(f.name)
            except IntegrityError:
                corrupt.append(f.name)
        if corrupt:
            segments[Segment.STAGE_IN] = env.now - t0
            report.exit_code = ExitCode.FILE_READ_FAILED
            report.annotations["failed_segment"] = Segment.STAGE_IN
            report.annotations["corrupt_inputs"] = ",".join(corrupt)
            return report.exit_code, segments, report
        try:
            stream = yield from services.xrootd.open(group.inputs[0].name)
            yield from stream.read(
                total, client_link=worker.machine.nic, cls=TrafficClass.MERGE
            )
            stream.close()
        except XrootdError:
            segments[Segment.STAGE_IN] = env.now - t0
            report.exit_code = ExitCode.FILE_READ_FAILED
            report.annotations["failed_segment"] = Segment.STAGE_IN
            return report.exit_code, segments, report
        segments[Segment.STAGE_IN] = env.now - t0

        # ---- concatenate --------------------------------------------
        t0 = env.now
        yield env.timeout(total * MERGE_CPU_PER_BYTE)
        segments[Segment.CPU] = env.now - t0

        # ---- stage the merged file out via Chirp ---------------------
        t0 = env.now
        try:
            yield from services.chirp.put(
                total, client_link=worker.machine.nic, cls=TrafficClass.MERGE
            )
        except ChirpError:
            segments[Segment.STAGE_OUT] = env.now - t0
            report.exit_code = ExitCode.STAGE_OUT_FAILED
            report.annotations["failed_segment"] = Segment.STAGE_OUT
            return report.exit_code, segments, report
        segments[Segment.STAGE_OUT] = env.now - t0

        report.exit_code = ExitCode.SUCCESS
        report.output_bytes = total
        report.output_checksum = group.checksum
        return ExitCode.SUCCESS, segments, report

    return executor


class MergeManager:
    """Tracks unmerged outputs and creates merge work per strategy."""

    def __init__(
        self,
        cfg: LobsterConfig,
        workflow: WorkflowConfig,
        services: Services,
        db=None,
    ):
        self.cfg = cfg
        self.workflow = workflow
        self.services = services
        self.db = db
        self.mode = workflow.merge_mode
        self._executor = merge_executor(workflow, services)
        #: Finished analysis outputs not yet claimed by a merge group.
        self.unmerged: List[StoredFile] = []
        #: Groups currently being merged (group_id -> group).
        self.in_flight: Dict[int, MergeGroup] = {}
        self.merged_files: List[StoredFile] = []
        self.abandoned_groups: List[MergeGroup] = []
        self.merge_tasks_created = 0
        #: Corrupt inputs awaiting re-derivation; the control loop
        #: drains this via take_quarantined().
        self.quarantined: List[StoredFile] = []

    # -- event hooks called by LobsterRun ------------------------------------
    def add_output(self, f: StoredFile) -> None:
        if self.mode != MergeMode.NONE:
            self.unmerged.append(f)

    def take_quarantined(self) -> List[StoredFile]:
        """Hand corrupt inputs to the control loop for re-derivation."""
        out, self.quarantined = self.quarantined, []
        return out

    def _screen_inputs(self) -> None:
        """Keep only committed-and-verified outputs in the merge pool.

        Merge must never consume a corrupt or uncommitted child: the
        merged output would inherit the damage and the children get
        deleted.  Anything failing the screen moves to quarantine.
        """
        if not self.unmerged:
            return
        se = self.services.se
        clean: List[StoredFile] = []
        for f in self.unmerged:
            if self.db is not None:
                state = self.db.ledger_state(f.name)
                if state is not None and state != "committed":
                    self.quarantined.append(f)
                    continue
            try:
                if se.exists(f.name):
                    se.verify(f.name)
                clean.append(f)
            except IntegrityError:
                self.quarantined.append(f)
        self.unmerged = clean

    def make_tasks(self, processed_fraction: float, final: bool) -> List[Task]:
        """Create merge tasks per the strategy.  Idempotent per output."""
        if self.mode in (MergeMode.NONE, MergeMode.HADOOP):
            return []
        if self.mode == MergeMode.SEQUENTIAL and not final:
            return []
        if (
            self.mode == MergeMode.INTERLEAVED
            and not final
            and processed_fraction < self.workflow.merge_threshold
        ):
            return []

        self._screen_inputs()
        groups, leftovers = plan_groups(
            self.unmerged,
            self.workflow.merge_target_bytes,
            self.workflow.label,
            allow_partial=final,
        )
        self.unmerged = leftovers
        return [self._task_for(g) for g in groups]

    def _task_for(self, group: MergeGroup) -> Task:
        self.in_flight[group.group_id] = group
        self.merge_tasks_created += 1
        if self.db is not None:
            self.db.record_merge_group(
                group.group_id,
                self.workflow.label,
                group.output_name,
                len(group.inputs),
                group.total_bytes,
            )
        bus = self.services.env.bus
        if bus:
            bus.publish(
                Topics.MERGE_SUBMIT,
                group=group.group_id,
                workflow=self.workflow.label,
                files=len(group.inputs),
                nbytes=group.total_bytes,
                attempt=group.attempts,
            )
        payload = TaskPayload(
            workflow=self.workflow.label,
            tasklets=[],
            category="merge",
            merge_inputs=[group],
            merge_output_name=group.output_name,
        )
        return Task(
            executor=self._executor,
            payload=payload,
            sandbox_bytes=self.cfg.sandbox_bytes,
            category="merge",
        )

    def on_result(self, result) -> Optional[Task]:
        """Handle a merge task result; may return a retry task."""
        group: MergeGroup = result.task.payload.merge_inputs[0]
        env = self.services.env
        bus = env.bus
        if group.group_id not in self.in_flight:
            # A duplicate/late merge result: the group was already
            # resolved.  Storing again would overwrite the committed
            # merged file, so drop it.
            if bus:
                bus.publish(
                    Topics.TASK_DUPLICATE,
                    task_id=result.task.task_id,
                    category="merge",
                    source="merge",
                    group=group.group_id,
                    workflow=self.workflow.label,
                )
            return None
        del self.in_flight[group.group_id]
        if bus:
            bus.publish(
                Topics.MERGE_DONE if result.succeeded else Topics.MERGE_RETRY,
                group=group.group_id,
                workflow=self.workflow.label,
                ok=result.succeeded,
                nbytes=group.total_bytes,
                attempt=group.attempts,
            )
        if result.succeeded:
            if self._commit_merged(group, result.finished, task_id=result.task.task_id):
                return None
            # The merged file itself arrived corrupt (e.g. truncated
            # stage-out): children are untouched, retry the merge.
            return self._retry(group)

        # Failure: pull any corrupt children out for re-derivation and
        # return the survivors to the pool — retrying a group with a
        # known-bad input can never succeed.
        report = getattr(result, "report", None)
        corrupt = set()
        if report is not None:
            names = report.annotations.get("corrupt_inputs", "")
            corrupt = {n for n in names.split(",") if n}
        if corrupt:
            self.quarantined.extend(f for f in group.inputs if f.name in corrupt)
            self.unmerged.extend(f for f in group.inputs if f.name not in corrupt)
            return None
        return self._retry(group)

    def _retry(self, group: MergeGroup) -> Optional[Task]:
        group.attempts += 1
        if group.attempts >= self.workflow.max_retries:
            self.abandoned_groups.append(group)
            return None
        return self._task_for(group)

    def _commit_merged(
        self, group: MergeGroup, finished: float, task_id: Optional[int] = None
    ) -> bool:
        """Two-phase commit of one merged output.

        Store → verify → delete the children → commit the merged output
        *and* retire the children in one ledger transaction.  Committing
        before retiring used to leave a window where a crash re-pooled
        already-merged children into a second merge (double-published
        events); the crashtest fuzzer pins that ordering now.  Returns
        False (rolling the store back) when verification fails, leaving
        children intact.
        """
        se = self.services.se
        merged = StoredFile(
            name=group.output_name,
            size_bytes=group.total_bytes,
            created=finished,
            source=self.workflow.label,
            checksum=group.checksum if self.cfg.verify_outputs else "",
        )
        if self.db is not None:
            self.db.ledger_begin(
                merged.name,
                self.workflow.label,
                "merge",
                checksum=merged.checksum,
                size_bytes=merged.size_bytes,
                created=merged.created,
            )
        if se.exists(merged.name):
            # Leftover from a crashed attempt; replace it.
            se.delete(merged.name)
        se.store(merged)
        try:
            se.verify(merged.name)
        except IntegrityError:
            se.delete(merged.name)
            if self.db is not None:
                self.db.ledger_quarantine(merged.name)
            return False
        children = [f.name for f in group.inputs]
        for name in children:
            if se.exists(name):
                se.delete(name)
        if self.db is not None:
            self.db.ledger_commit_merged(merged.name, finished, children)
        bus = self.services.env.bus
        if bus:
            bus.publish(
                Topics.INTEGRITY_COMMIT,
                name=merged.name,
                workflow=self.workflow.label,
                kind="merge",
                checksum=merged.checksum,
                nbytes=merged.size_bytes,
                task_id=task_id,
            )
        self.merged_files.append(merged)
        return True

    @property
    def complete(self) -> bool:
        if self.mode == MergeMode.NONE:
            return True
        return not self.in_flight and not self.unmerged

    # -- the Hadoop path ------------------------------------------------------------
    def run_hadoop_merge(self):
        """DES process: merge everything via Map-Reduce (paper §4.4).

        The map phase groups the small-file names; each reducer pulls one
        group's data to its node, merges, and writes back into HDFS.
        Under causal tracing the whole job runs inside a ``merge.hadoop``
        span, so its HDFS flows land on the span tree and critical path.
        """
        if self.services.mapreduce is None:
            raise RuntimeError("hadoop merge requires Services.mapreduce")
        self._screen_inputs()
        groups, leftovers = plan_groups(
            self.unmerged, self.workflow.merge_target_bytes, self.workflow.label
        )
        self.unmerged = list(leftovers)
        by_id = {g.group_id: g for g in groups}
        records = [(g.group_id, f) for g in groups for f in g.inputs]

        job = MapReduceJob(
            name=f"merge-{self.workflow.label}",
            records=records,
            map_fn=lambda record: [(record[0], record[1])],
            map_cost=lambda record: TaskCost(cpu_seconds=0.01),
            reduce_fn=lambda key, values: by_id[key].output_name,
            reduce_cost=lambda key, values: TaskCost(
                cpu_seconds=by_id[key].total_bytes * MERGE_CPU_PER_BYTE,
                read_bytes=by_id[key].total_bytes,
                write_bytes=by_id[key].total_bytes,
            ),
            reduce_output=lambda key: by_id[key].output_name,
        )
        tr = self.services.env.spans
        span = None
        if tr is not None:
            label = self.workflow.label
            root = tr.unit_root(f"{label}:m:hadoop", workflow=label, category="merge")
            span = tr.start("merge.hadoop", parent=root, activate=True, groups=len(groups))
        results = yield from self.services.mapreduce.run(job)
        if span is not None:
            tr.end(span)
        now = self.services.env.now
        for gid, _name in sorted(results.items()):
            self._commit_merged(by_id[gid], now)
        return results
