"""Declarative fault scenarios: what breaks, where, and when.

A :class:`FaultPlan` is a validated, ordered list of fault declarations
— each one a frozen dataclass naming a failure mode the paper's
operators actually fought (§5): rack-correlated eviction bursts,
misconfigured "black-hole" nodes, squid crashes, degraded SE disk
arrays, and flapping network links.  The plan is pure data; the
:class:`~repro.faults.engine.FaultInjector` turns it into DES processes
that drive the existing substrate models.

Determinism contract: a plan carries its own ``seed``, every sampled
decision (e.g. which fraction of slots an eviction burst hits) draws
from a generator keyed ``(seed, fault index)``, and faults fire in
``(at, declaration order)`` — so the same plan against the same run
produces a byte-identical ``fault.*`` event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "EvictionBurst",
    "BlackHoleHost",
    "SquidCrash",
    "SpindleDegradation",
    "LinkFlap",
    "BitRot",
    "TruncatedTransfer",
    "DuplicateDelivery",
    "MasterCrash",
    "FaultPlan",
]


@dataclass(frozen=True)
class EvictionBurst:
    """Owner workload returns: evict glide-in slots, rack-correlated.

    With *rack* set only slots whose machine sits under that rack switch
    (``fabric.parent(machine) == rack``) are hit; otherwise the burst
    sweeps the whole pool.  *fraction* < 1 samples victims from the
    plan's seeded RNG.
    """

    kind = "eviction-burst"

    at: float
    rack: Optional[str] = None
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if not (0 < self.fraction <= 1):
            raise ValueError("fraction must lie in (0, 1]")


@dataclass(frozen=True)
class BlackHoleHost:
    """A node goes black-hole: every task started there fast-fails.

    The wrapper sees ``machine.black_hole`` and exits BAD_MACHINE almost
    immediately — the failure signature the paper's §5 drill-down used
    to identify misconfigured nodes.  *duration* ``None`` = the rest of
    the run.
    """

    kind = "black-hole"

    at: float
    machine: str = ""
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if not self.machine:
            raise ValueError("machine name required")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive or None")


@dataclass(frozen=True)
class SquidCrash:
    """One squid proxy dies and restarts *duration* seconds later.

    While down its request and data links carry nothing and in-flight
    fetches fail (surfacing to the wrapper as :class:`SquidTimeout`,
    i.e. a setup failure it already knows how to retry).
    """

    kind = "squid-crash"

    at: float
    duration: float = 600.0
    proxy: int = 0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.proxy < 0:
            raise ValueError("proxy index must be non-negative")


@dataclass(frozen=True)
class SpindleDegradation:
    """The SE disk array behind Chirp slows to *factor* of its capacity
    (a failed disk rebuilding, or a co-tenant hammering the array)."""

    kind = "spindle-degradation"

    at: float
    duration: float = 1_800.0
    factor: float = 0.1

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not (0 <= self.factor < 1):
            raise ValueError("factor must lie in [0, 1)")


@dataclass(frozen=True)
class LinkFlap:
    """A named fabric link flaps: *repeat* outages of *duration* seconds
    every *period* seconds, reusing the link-level outage schedule
    (in-flight flows of every class fail after *fail_after* of stall)."""

    kind = "link-flap"

    link: str
    at: float
    duration: float
    repeat: int = 1
    period: Optional[float] = None
    fail_after: float = 30.0

    def __post_init__(self) -> None:
        if not self.link:
            raise ValueError("link name required")
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.repeat <= 0:
            raise ValueError("repeat must be positive")
        if self.period is not None and self.period <= self.duration:
            raise ValueError("period must exceed duration")
        if self.repeat > 1 and self.period is None:
            raise ValueError("repeat > 1 requires a period")
        if self.fail_after < 0:
            raise ValueError("fail_after must be non-negative")

    def windows(self) -> List[Tuple[float, float]]:
        """The (start, end) outage intervals this flap produces."""
        period = self.period if self.period is not None else self.duration
        return [
            (self.at + k * period, self.at + k * period + self.duration)
            for k in range(self.repeat)
        ]


@dataclass(frozen=True)
class BitRot:
    """The SE spindle silently flips bytes in committed files at rest.

    At each firing, *count* checksummed files under *prefix* are chosen
    from the plan's seeded RNG and corrupted in place — the namespace
    entry is untouched, only the content digest diverges, so the damage
    surfaces at the next verifying hop (merge stage-in or publish).
    """

    kind = "bit-rot"

    at: float
    count: int = 1
    prefix: str = "/store/"
    repeat: int = 1
    period: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.repeat <= 0:
            raise ValueError("repeat must be positive")
        if self.period is not None and self.period <= 0:
            raise ValueError("period must be positive")
        if self.repeat > 1 and self.period is None:
            raise ValueError("repeat > 1 requires a period")


@dataclass(frozen=True)
class TruncatedTransfer:
    """A killed output transfer leaves a partial file that still arrives.

    Arms the storage element so the next *count* checksummed writes
    record truncated content: the namespace entry looks whole, the
    bytes do not match, and the stage-out verification rejects the
    delivery.
    """

    kind = "truncated-transfer"

    at: float
    count: int = 1

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.count <= 0:
            raise ValueError("count must be positive")


@dataclass(frozen=True)
class DuplicateDelivery:
    """An evicted task's output lands after its retry already succeeded.

    From *at* onwards the next *count* successful analysis results are
    captured and re-delivered *delay* seconds later, bypassing the
    master's bookkeeping (a buffered relay re-send) — the output commit
    ledger must deduplicate them.
    """

    kind = "duplicate-delivery"

    at: float
    count: int = 1
    delay: float = 60.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.delay <= 0:
            raise ValueError("delay must be positive")


@dataclass(frozen=True)
class MasterCrash:
    """The Lobster master itself dies (kill -9 of the scheduler).

    The control loop is interrupted where it stands: the ready queue and
    every in-flight attempt are orphaned, results still in transit are
    dropped, and nothing is flushed — only the SQLite Lobster DB and the
    storage element survive.  The campaign resumes when a fresh
    ``LobsterRun(recover=True)`` is warm-started on the same DB (see
    ``repro.scenarios.execute_campaign`` and ``python -m repro run chaos
    --param master_crash_at=S``).
    """

    kind = "master-crash"

    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be non-negative")


_KINDS = (
    EvictionBurst,
    BlackHoleHost,
    SquidCrash,
    SpindleDegradation,
    LinkFlap,
    BitRot,
    TruncatedTransfer,
    DuplicateDelivery,
    MasterCrash,
)


class FaultPlan:
    """A validated, seeded collection of fault declarations."""

    def __init__(self, faults: Sequence = (), seed: int = 0):
        for f in faults:
            if not isinstance(f, _KINDS):
                raise TypeError(f"not a fault declaration: {f!r}")
        self.faults: List = list(faults)
        self.seed = int(seed)

    def ordered(self) -> List[Tuple[int, object]]:
        """(declaration index, fault) pairs in firing order."""
        return sorted(
            enumerate(self.faults), key=lambda pair: (pair[1].at, pair[0])
        )

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(f.kind for f in self.faults)
        return f"<FaultPlan seed={self.seed} [{kinds}]>"
