"""Tasklet bookkeeping (paper §4.1).

A *tasklet* is the smallest self-contained unit of the workflow: for
data workflows a group of lumisections of one file; for simulation a
group of events to generate.  The complete tasklet list is created at
the start of the workflow; *tasks* are groups of tasklets created
dynamically as workers become available.  The :class:`TaskletStore`
tracks every tasklet's state through the run and is mirrored into the
SQLite Lobster DB.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple

from ..dbs import Dataset, LumiSection

__all__ = ["Tasklet", "TaskletState", "TaskletStore", "TaskPayload"]


class TaskletState:
    PENDING = "pending"
    ASSIGNED = "assigned"
    DONE = "done"
    FAILED = "failed"  #: permanently failed (retries exhausted)

    TERMINAL = (DONE, FAILED)


@dataclass
class Tasklet:
    """One atomic unit of work."""

    tasklet_id: int
    workflow: str
    n_events: int
    input_bytes: float
    #: Input file (None for simulation tasklets).
    lfn: Optional[str] = None
    lumis: Tuple[LumiSection, ...] = ()
    state: str = TaskletState.PENDING
    attempts: int = 0

    def __post_init__(self) -> None:
        if self.n_events < 0 or self.input_bytes < 0:
            raise ValueError("n_events and input_bytes must be non-negative")


@dataclass
class TaskPayload:
    """What Lobster attaches to a WQ task: the tasklets it processes."""

    workflow: str
    tasklets: List[Tasklet]
    category: str = "analysis"
    #: For merge tasks: the input files being merged.
    merge_inputs: List = field(default_factory=list)
    merge_output_name: Optional[str] = None

    @property
    def n_events(self) -> int:
        return sum(t.n_events for t in self.tasklets)

    @property
    def input_bytes(self) -> float:
        return sum(t.input_bytes for t in self.tasklets)

    @property
    def lfns(self) -> List[str]:
        return sorted({t.lfn for t in self.tasklets if t.lfn is not None})


class TaskletStore:
    """All tasklets of one workflow, with state transitions."""

    def __init__(self, workflow: str):
        self.workflow = workflow
        self._tasklets: List[Tasklet] = []
        self._pending: Deque[int] = deque()  # indices, FIFO

    # -- construction -------------------------------------------------------
    @classmethod
    def from_dataset(
        cls, workflow: str, dataset: Dataset, lumis_per_tasklet: int = 1
    ) -> "TaskletStore":
        """Decompose a dataset into tasklets of *lumis_per_tasklet* lumis."""
        store = cls(workflow)
        for f in dataset:
            per_lumi_events = f.n_events / len(f.lumis)
            per_lumi_bytes = f.size_bytes / len(f.lumis)
            for i in range(0, len(f.lumis), lumis_per_tasklet):
                chunk = tuple(f.lumis[i : i + lumis_per_tasklet])
                store.add(
                    n_events=int(round(per_lumi_events * len(chunk))),
                    input_bytes=per_lumi_bytes * len(chunk),
                    lfn=f.lfn,
                    lumis=chunk,
                )
        return store

    @classmethod
    def from_event_count(
        cls, workflow: str, n_events: int, events_per_tasklet: int
    ) -> "TaskletStore":
        """Decompose a simulation request into event-range tasklets."""
        if n_events <= 0 or events_per_tasklet <= 0:
            raise ValueError("event counts must be positive")
        store = cls(workflow)
        full, rest = divmod(n_events, events_per_tasklet)
        sizes = [events_per_tasklet] * full + ([rest] if rest else [])
        # One batch: a 10k-core campaign can ask for ~10^5 single-event
        # tasklets, and per-tasklet ``add`` calls dominate.
        store._extend((n, 0.0, None, ()) for n in sizes)
        return store

    @classmethod
    def restore(cls, workflow: str, rows) -> "TaskletStore":
        """Rebuild a store from Lobster-DB rows after a scheduler crash.

        Tasklets that were ASSIGNED when the scheduler died have lost
        their tasks (Work Queue state is not durable) and return to
        PENDING; DONE and FAILED are terminal and kept.
        """
        store = cls(workflow)
        for tasklet_id, lfn, n_events, input_bytes, state, attempts in rows:
            t = Tasklet(
                tasklet_id=tasklet_id,
                workflow=workflow,
                n_events=n_events,
                input_bytes=input_bytes,
                lfn=lfn,
                state=state,
                attempts=attempts,
            )
            if t.state == TaskletState.ASSIGNED:
                t.state = TaskletState.PENDING
            store._tasklets.append(t)
            if t.state == TaskletState.PENDING:
                store._pending.append(len(store._tasklets) - 1)
        return store

    def add(self, n_events: int, input_bytes: float, lfn=None, lumis=()) -> Tasklet:
        return self._extend([(n_events, input_bytes, lfn, tuple(lumis))])[0]

    def _extend(self, specs) -> List[Tasklet]:
        """Append pending tasklets, one per ``(n_events, input_bytes, lfn, lumis)``."""
        start = len(self._tasklets)
        wf = self.workflow
        new = [
            Tasklet(tid, wf, n, nbytes, lfn, lumis)
            for tid, (n, nbytes, lfn, lumis) in enumerate(specs, start + 1)
        ]
        self._tasklets.extend(new)
        self._pending.extend(range(start, start + len(new)))
        return new

    # -- state transitions --------------------------------------------------------
    def claim(self, n: int) -> List[Tasklet]:
        """Take up to *n* pending tasklets and mark them assigned."""
        claimed = []
        while self._pending and len(claimed) < n:
            idx = self._pending.popleft()
            t = self._tasklets[idx]
            t.state = TaskletState.ASSIGNED
            claimed.append(t)
        return claimed

    def mark_done(self, tasklets: Sequence[Tasklet]) -> None:
        for t in tasklets:
            if t.state == TaskletState.DONE:
                continue
            t.state = TaskletState.DONE

    def mark_failed_attempt(self, tasklets: Sequence[Tasklet], max_retries: int) -> List[Tasklet]:
        """Record a failed attempt; re-pend retryable tasklets.

        Returns the tasklets that failed permanently.
        """
        permanent = []
        for t in tasklets:
            t.attempts += 1
            if t.attempts >= max_retries:
                t.state = TaskletState.FAILED
                permanent.append(t)
            else:
                t.state = TaskletState.PENDING
                self._pending.append(t.tasklet_id - 1)
        return permanent

    def settle_done(self, tasklet_ids: Sequence[int]) -> List[Tasklet]:
        """Mark PENDING tasklets whose output already committed as DONE.

        Recovery reconciliation: if the ledger holds a committed or
        merged output derived from these tasklets, re-running them would
        mint a colliding output name and the duplicate gate would starve
        the campaign.  Returns the tasklets settled (for persisting).
        """
        ids = set(tasklet_ids)
        settled = []
        for t in self._tasklets:
            if t.tasklet_id in ids and t.state == TaskletState.PENDING:
                t.state = TaskletState.DONE
                settled.append(t)
        if settled:
            gone = {t.tasklet_id - 1 for t in settled}
            self._pending = deque(i for i in self._pending if i not in gone)
        return settled

    def reopen(self, tasklet_ids: Sequence[int]) -> List[Tasklet]:
        """Return DONE tasklets to PENDING for re-derivation.

        Used when a committed output is later found corrupt (quarantine):
        the work must run again.  The attempt count advances so the
        re-derived task draws fresh fortunes.  Returns the reopened
        tasklets (for persisting the state flip).
        """
        ids = set(tasklet_ids)
        reopened = []
        for idx, t in enumerate(self._tasklets):
            if t.tasklet_id in ids and t.state == TaskletState.DONE:
                t.state = TaskletState.PENDING
                t.attempts += 1
                self._pending.append(idx)
                reopened.append(t)
        return reopened

    # -- queries -------------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self._tasklets)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def count(self, state: str) -> int:
        return sum(1 for t in self._tasklets if t.state == state)

    @property
    def done_count(self) -> int:
        return self.count(TaskletState.DONE)

    @property
    def failed_count(self) -> int:
        return self.count(TaskletState.FAILED)

    @property
    def complete(self) -> bool:
        """All tasklets in a terminal state."""
        return all(t.state in TaskletState.TERMINAL for t in self._tasklets)

    @property
    def processed_fraction(self) -> float:
        if not self._tasklets:
            return 1.0
        done = sum(1 for t in self._tasklets if t.state in TaskletState.TERMINAL)
        return done / len(self._tasklets)

    def __iter__(self):
        return iter(self._tasklets)

    def __len__(self) -> int:
        return len(self._tasklets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TaskletStore {self.workflow} total={self.total} "
            f"pending={self.pending_count} done={self.done_count}>"
        )
