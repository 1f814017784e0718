"""One fold protocol for every monitor consumer, live or replayed.

A monitor consumer is a *fold*: an object with a ``topics`` frozenset of
exact topic names and an ``ingest(topic, t, fields)`` method.  The same
fold object is fed either way, so live and replay run the same code:

* :func:`tap` subscribes folds to a live bus — one raw subscription per
  (fold, topic), in argument order, so delivery hands ``ingest`` the
  producer's record dict (fields plus a ``"t"`` key) without
  materialising a :class:`~repro.desim.bus.BusEvent`;
* :func:`replay` feeds recorded event dicts (JSONL shape: fields plus
  ``"t"`` and ``"topic"``) through the same ``ingest`` in one pass.

``fields`` therefore carries the reserved keys ``"t"`` (both paths) and
``"topic"`` (replay only); a fold that stores field dicts strips them
(:func:`payload`) so both paths keep the same thing.

Several runs may share one bus.  ``tap(..., workflows=...)`` drops the
attributed events of other runs (the :data:`FILTERED_TOPICS`) before
they reach the folds; the filter lives here and nowhere else.

Like everything under ``repro.monitor``, this module depends only on
the bus vocabulary — never on the scheduler, batch, CVMFS, or storage
layers.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
)

from ..desim.bus import EventBus, Subscription, Topics

__all__ = [
    "FILTERED_TOPICS",
    "Fold",
    "METRIC_TOPICS",
    "RUNNING_TOPICS",
    "Tap",
    "payload",
    "replay",
    "tap",
]

#: Topics whose events carry a ``running`` concurrency sample.
RUNNING_TOPICS = frozenset({Topics.TASK_START, Topics.TASK_DONE, Topics.TASK_REQUEUE})

#: Topics a ``workflows``-filtered tap drops unless the event is stamped
#: with one of the tap's labels (``workflow``) or label lists
#: (``workflows``); unattributed events always pass.
FILTERED_TOPICS = frozenset(
    {
        Topics.TASK_RESULT,
        Topics.EVICTION,
        Topics.TASK_EXHAUSTED,
        Topics.RECOVERY_FALLBACK,
        Topics.RECOVERY_RESUME,
        Topics.INTEGRITY_CORRUPT,
        Topics.INTEGRITY_QUARANTINE,
        Topics.INTEGRITY_COMMIT,
        Topics.INTEGRITY_ORPHAN,
        Topics.TASK_DUPLICATE,
    }
)

#: The run-metrics topic set folded by both ``RunMetrics`` and ``Rollup``.
METRIC_TOPICS = FILTERED_TOPICS | RUNNING_TOPICS | frozenset(
    {
        Topics.NET_FLOW,
        Topics.NET_FLOW_FAIL,
        Topics.FAULT_INJECT,
        Topics.FAULT_CLEAR,
        Topics.HOST_BLACKLIST,
        Topics.ALERT_RAISE,
        Topics.ALERT_CLEAR,
    }
)

_RESERVED = ("t", "topic")


class Fold(Protocol):
    """Anything that folds an event stream, one event at a time."""

    topics: FrozenSet[str]

    def ingest(self, topic: str, t: float, fields: dict) -> None: ...


def payload(fields: dict) -> dict:
    """A copy of *fields* without the delivery keys ``t`` and ``topic``."""
    return {k: v for k, v in fields.items() if k not in _RESERVED}


class Tap:
    """The live subscriptions made by one :func:`tap` call."""

    __slots__ = ("_subs",)

    def __init__(self, subs: List[Subscription]):
        self._subs = subs

    def close(self) -> None:
        """Detach from the bus (the folds stay readable)."""
        for sub in self._subs:
            sub.cancel()
        self._subs = []


def _handler(topic: str, ingest) -> Callable[[dict], None]:
    def handle(record: dict) -> None:
        ingest(topic, record["t"], record)

    return handle


def _filtered(topic: str, ingest, labels: FrozenSet[str]) -> Callable[[dict], None]:
    def handle(record: dict) -> None:
        workflow = record.get("workflow")
        if workflow is not None:
            if workflow not in labels:
                return
        else:
            workflows = record.get("workflows")
            if workflows is not None and not any(w in labels for w in workflows):
                return
        ingest(topic, record["t"], record)

    return handle


def tap(
    bus: EventBus,
    folds: Sequence[Fold],
    workflows: Optional[Sequence[str]] = None,
) -> Tap:
    """Subscribe *folds* to *bus*: one raw subscription per (fold, topic).

    Folds subscribe in argument order, so a fold listed earlier sees each
    event first.  With *workflows*, events on :data:`FILTERED_TOPICS`
    attributed to other runs never reach the folds.
    """
    labels = frozenset(workflows) if workflows else None
    subs = []
    for fold in folds:
        ingest = fold.ingest
        for topic in sorted(fold.topics):
            if labels is not None and topic in FILTERED_TOPICS:
                handle = _filtered(topic, ingest, labels)
            else:
                handle = _handler(topic, ingest)
            subs.append(bus.subscribe(topic, handle, raw=True))
    return Tap(subs)


def replay(events: Iterable[dict], folds: Sequence[Fold]) -> None:
    """Feed recorded event dicts to *folds* in one pass.

    Each event goes to every fold whose ``topics`` contain its topic, in
    argument order — the order :func:`tap` delivers in.
    """
    routes: Dict[str, List] = {}
    for fold in folds:
        for topic in fold.topics:
            routes.setdefault(topic, []).append(fold.ingest)
    for ev in events:
        topic = ev.get("topic")
        targets = routes.get(topic)
        if targets:
            t = float(ev.get("t", 0.0))
            for ingest in targets:
                ingest(topic, t, ev)
