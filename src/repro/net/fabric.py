"""The shared network fabric: named links, routes, end-to-end flows.

Every byte the simulator moves — CVMFS cold-cache fills, Frontier
lookups, XrootD streams, Chirp/WQ staging, sandbox shipping, merge
writes — crosses real shared infrastructure: the worker NIC, the machine
group switch, the campus core, the WAN uplink.  A :class:`Fabric` models
that infrastructure as a tree of named :class:`Link` edges between named
nodes.  One :class:`Flow` occupies *every* link along its route
simultaneously and receives the bottleneck max-min rate, so ~9000
streaming tasks saturating the 10 Gbit/s uplink (paper Fig 10) slow the
stage-out traffic sharing it, exactly as observed.

Allocation is incremental: changes (flow joins/leaves, capacity edits)
mark links dirty, all changes at one DES timestamp are coalesced into a
single recompute, and the recompute walks only the connected component
of links/flows actually touched — untouched flows keep their rates.

Live flows with the same route, rate cap and traffic class form a route
class.  Max-min fairness gives every member one rate, so a class keeps a
single service clock and a finish heap, water-filling runs over classes
weighted by their size, and link byte counters are read off the clocks
of the classes crossing the link: no flush touches every live flow.

The fabric is the simulator's only bandwidth model.  A standalone link
(one attached without a node) behaves as a plain max-min fair-share
link, which is how point resources such as disks are modelled and how a
component built without a shared fabric gets a private flat one.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..desim import Environment, Timeout, Topics
from ..desim.events import Event, PENDING
from .allocator import waterfill

__all__ = ["Fabric", "Flow", "Link", "LinkDown", "TrafficClass", "TransferCancelled"]

_EPS = 1e-9
_start_order = attrgetter("_seq")
_STATS = (
    "flushes waterfills waterfill_rounds component_classes component_classes_max "
    "component_links component_links_max peak_flows peak_classes"
).split()


class TrafficClass:
    """Canonical traffic-class tags for per-class accounting (Fig 10)."""

    CVMFS = "cvmfs"
    FRONTIER = "frontier"
    XROOTD = "xrootd"
    STAGING = "staging"
    OUTPUT = "output"
    MERGE = "merge"
    DEFAULT = "bulk"

    ALL = (CVMFS, FRONTIER, XROOTD, STAGING, OUTPUT, MERGE, DEFAULT)


class TransferCancelled(Exception):
    """A flow was cancelled (e.g. worker evicted mid-stream)."""


class LinkDown(TransferCancelled):
    """A flow was failed because a link on its route went down."""


class Flow(Event):
    """An in-flight transfer occupying every link along its route.

    A live flow belongs to a route class and reads its progress off the
    class's service clock, so ``remaining`` and ``rate`` are derived."""

    __slots__ = (
        "fabric", "route", "nbytes", "max_rate", "cls", "src", "dst", "started", "span",
        # Route class while live (else None), start order, class service
        # at which the last byte arrives and from which the flow counts
        # as done, and bytes left when the flow left its class.
        "_rc", "_seq", "_end", "_done_at", "_left",
    )

    def __init__(
        self,
        fabric: "Fabric",
        route: Tuple["Link", ...],
        nbytes: float,
        max_rate: Optional[float],
        cls: str,
        src: Optional[str],
        dst: Optional[str],
    ):
        super().__init__(fabric.env)
        self.fabric = fabric
        self.route = route
        self.nbytes = float(nbytes)
        self.max_rate = max_rate
        self.cls = cls
        self.src = src
        self.dst = dst
        self.started = fabric.env.now
        #: Ambient trace context of the process that opened the flow, so
        #: net.flow events carry span attribution (monitor.tracing).
        proc = fabric.env._active_proc
        self.span = proc.span_ctx if proc is not None else None
        self._rc: Optional[_RouteClass] = None
        self._left = self.nbytes

    @property
    def remaining(self) -> float:
        rc = self._rc
        if rc is None:
            return self._left
        return max(0.0, self._end - rc.served_at(self.env.now))

    @property
    def rate(self) -> float:
        rc = self._rc
        return rc.rate if rc is not None else 0.0

    def cancel(self) -> None:
        """Abort the flow; it fails with :class:`TransferCancelled`.

        Safe after completion (no-op).  Pre-defused so a cancelled flow
        nobody waits on does not crash the simulation.
        """
        self.fabric._cancel(self, TransferCancelled, "cancelled")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Flow {self.cls} {self.nbytes:.0f}B remaining={self.remaining:.0f}B "
            f"rate={self.rate:.0f}B/s hops={len(self.route)}>"
        )


class _RouteClass:
    """The live flows sharing one (route, max_rate, traffic class).

    Max-min fairness gives them one rate, so one service clock serves
    them all: each member has received ``served + rate * (now - t)``
    bytes since the class formed, and all members together ``total +
    n * rate * (now - t)``, which is what each link on the route
    carried for them.  A flow joining at service ``s`` is done at
    service ``s + nbytes``; ``heap`` orders members by that, keeping
    entries of cancelled members until they surface.
    """

    __slots__ = ("key", "route", "max_rate", "cls", "n", "heap", "served", "total", "rate", "t", "stamp")

    def __init__(self, key, now: float):
        self.key = key
        self.route, self.max_rate, self.cls = key
        self.n = 0
        self.heap: List[Tuple[float, int, Flow]] = []
        self.served = 0.0
        self.total = 0.0
        self.rate = 0.0
        self.t = now
        #: Matches the fabric's due-heap entries that are still current.
        self.stamp = 0

    def served_at(self, now: float) -> float:
        return self.served + self.rate * (now - self.t)

    def settle(self, now: float) -> None:
        """Bring the clock to *now*; due before ``n`` or ``rate`` change."""
        moved = self.rate * (now - self.t)
        self.served += moved
        self.total += moved * self.n
        self.t = now


class Link:
    """One named edge of the fabric with max-min shared capacity,
    per-traffic-class byte accounting and link-level outage schedules."""

    def __init__(
        self,
        fabric: "Fabric",
        name: str,
        capacity: float,
        node: Optional[str] = None,
    ):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.fabric = fabric
        self.env: Environment = fabric.env
        self.name = name
        #: The tree node whose uplink edge this link is (None = standalone).
        self.node = node
        self._capacity = float(capacity)
        #: Route classes crossing this link.
        self._classes: Dict[_RouteClass, None] = {}
        #: Bytes per traffic class carried by classes that have since
        #: emptied; live classes add theirs from their clocks when read.
        self._by_class: Dict[str, float] = {}
        self._created = fabric.env.now
        # outages
        self._outage = False
        self._fail_after = 0.0
        self._saved_capacity = self._capacity

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def active_flows(self) -> int:
        return sum(rc.n for rc in self._classes)

    @property
    def bytes_moved(self) -> float:
        """Bytes carried so far, across every traffic class."""
        return sum(self.bytes_by_class.values())

    @property
    def bytes_by_class(self) -> Dict[str, float]:
        """Bytes carried so far, per traffic class."""
        now = self.env.now
        out = dict(self._by_class)
        for rc in self._classes:
            moved = rc.total + rc.n * rc.rate * (now - rc.t)
            if moved:
                out[rc.cls] = out.get(rc.cls, 0.0) + moved
        return out

    @property
    def is_down(self) -> bool:
        return self._outage

    def transfer(self, nbytes: float, max_rate: Optional[float] = None, cls: str = TrafficClass.DEFAULT) -> Flow:
        """Begin moving *nbytes* across just this link."""
        return self.fabric.transfer(nbytes, route=(self,), max_rate=max_rate, cls=cls)

    def set_capacity(self, capacity: float) -> None:
        """Change the link capacity (0 = outage); live flows re-share."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = float(capacity)
        self.fabric._touch((self,))

    def utilization(self) -> float:
        """Mean fraction of capacity in use since the link was created."""
        horizon = self.env.now - self._created
        if horizon <= 0 or self._capacity <= 0:
            return 0.0
        return min(1.0, self.bytes_moved / (self._capacity * horizon))

    # -- outage schedules --------------------------------------------------
    def schedule_outages(self, windows: Sequence, fail_after: Optional[float] = 30.0) -> None:
        """Drive this link's capacity from *windows* (objects with
        ``start``/``end``).  During a window capacity is 0; in-flight
        flows of every class crossing the link are failed with
        :class:`LinkDown` once *fail_after* seconds of stall have
        elapsed (``None`` = flows stall but survive)."""
        windows = sorted(windows, key=lambda w: w.start)
        if not windows:
            return
        self._fail_after = fail_after if fail_after is not None else float("inf")
        self.env.process(
            self._outage_proc(windows, fail_after), name=f"{self.name}-outages"
        )

    def fail_flows(self, reason: str = "link down") -> int:
        """Fail every flow currently crossing this link; returns count."""
        victims = sorted(
            (f for rc in self._classes for _end, _seq, f in rc.heap if f._rc is rc),
            key=_start_order,
        )
        for f in victims:
            self.fabric._cancel(f, LinkDown, reason)
        return len(victims)

    def _outage_proc(self, windows, fail_after):
        env = self.env
        for w in windows:
            if w.end <= env.now:
                continue
            if w.start > env.now:
                yield env.timeout(w.start - env.now)
            self._outage = True
            self._saved_capacity = self._capacity
            self.set_capacity(0.0)
            port = self.fabric._outage_port
            if port.on:
                port.emit(link=self.name, up=False, until=w.end)
            remaining = w.end - env.now
            if fail_after is not None and fail_after < remaining:
                yield env.timeout(fail_after)
                self.fail_flows(f"{self.name} down")
                yield env.timeout(remaining - fail_after)
            else:
                yield env.timeout(remaining)
            self._outage = False
            self.set_capacity(self._saved_capacity)
            port = self.fabric._outage_port
            if port.on:
                port.emit(link=self.name, up=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Link {self.name!r} cap={self._capacity:.0f}B/s "
            f"flows={self.active_flows}>"
        )


class Fabric:
    """A tree of named links between named nodes, with flow routing.

    Nodes form a tree rooted at *root* (the campus core by default);
    each non-root node has exactly one uplink edge.  Routes are the
    unique tree path between two nodes.  Links may also be standalone
    (no node) for point resources like disks or request-rate budgets.
    """

    def __init__(self, env: Environment, root: str = "campus-core"):
        self.env = env
        self.root = root
        #: All links by name (insertion-ordered).
        self.links: Dict[str, Link] = {}
        #: node -> (parent node, uplink Link); the root has (None, None).
        self._nodes: Dict[str, Tuple[Optional[str], Optional[Link]]] = {
            root: (None, None)
        }
        #: Live route classes by (route, max_rate, traffic class).
        self._classes: Dict[tuple, _RouteClass] = {}
        self._live = 0
        #: Links whose flow set / capacity changed since the last flush.
        self._dirty: Dict[Link, None] = {}
        self._pending = False
        #: Heap of (time the head flow runs out of bytes, stamp, class)
        #: for classes with a positive rate; an entry is current while
        #: its stamp is the class's.  It arms the timer, and a flush
        #: looks only at classes at its top.
        self._due: List[tuple] = []
        self._stamp = 0
        self._timer_gen = 0
        self._stats = dict.fromkeys(_STATS, 0)
        self._route_cache: Dict[Tuple[str, str], Tuple[Link, ...]] = {}
        # Per-topic fast-path ports: the flush loop guards with
        # ``port.on`` and builds no payload when the topic is unmatched.
        bus = env.bus
        self._flow_port = bus.port(Topics.NET_FLOW)
        self._fail_port = bus.port(Topics.NET_FLOW_FAIL)
        self._outage_port = bus.port(Topics.NET_OUTAGE)
        # statistics
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_failed = 0

    # -- topology ---------------------------------------------------------
    def attach(
        self,
        name: str,
        capacity: float,
        node: Optional[str] = None,
        parent: Optional[str] = None,
    ) -> Link:
        """Create a link.  With *node*, the link becomes that node's
        uplink edge toward *parent* (default: the root); without, the
        link is standalone (reachable only by direct ``transfer``)."""
        if name in self.links:
            raise ValueError(f"link {name!r} already attached")
        link = Link(self, name, capacity, node=node)
        if node is not None:
            if node in self._nodes:
                raise ValueError(f"node {node!r} already attached")
            parent = parent if parent is not None else self.root
            if parent not in self._nodes:
                raise ValueError(f"unknown parent node {parent!r}")
            self._nodes[node] = (parent, link)
            self._route_cache.clear()
        self.links[name] = link
        return link

    def has_node(self, node: str) -> bool:
        return node in self._nodes

    def parent(self, node: str) -> Optional[str]:
        return self._nodes[node][0]

    def uplink(self, node: str) -> Optional[Link]:
        return self._nodes[node][1]

    def route(self, src: str, dst: str) -> Tuple[Link, ...]:
        """The unique tree path between two nodes, as a link tuple."""
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src not in self._nodes:
            raise ValueError(f"unknown node {src!r}")
        if dst not in self._nodes:
            raise ValueError(f"unknown node {dst!r}")
        up: List[Link] = []
        ancestors: Dict[str, int] = {}
        n: Optional[str] = src
        while n is not None:
            ancestors[n] = len(up)
            parent, link = self._nodes[n]
            if parent is None:
                break
            up.append(link)
            n = parent
        down: List[Link] = []
        n = dst
        while n is not None and n not in ancestors:
            parent, link = self._nodes[n]
            down.append(link)
            n = parent
        # n is now the lowest common ancestor.
        route = tuple(up[: ancestors[n]] + list(reversed(down)))
        self._route_cache[key] = route
        return route

    # -- flows ------------------------------------------------------------
    def transfer(
        self,
        nbytes: float,
        route: Optional[Iterable[Link]] = None,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        cls: str = TrafficClass.DEFAULT,
        max_rate: Optional[float] = None,
    ) -> Flow:
        """Begin moving *nbytes* along *route* (or the ``src → dst``
        tree path); returns the completion event."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if route is None:
            if src is None or dst is None:
                raise ValueError("transfer needs a route or src and dst nodes")
            route = self.route(src, dst)
        links: Tuple[Link, ...] = tuple(dict.fromkeys(route))
        flow = Flow(self, links, nbytes, max_rate, cls, src, dst)
        if nbytes == 0 or not links:
            flow.succeed(flow)
            return flow
        stats = self._stats
        key = (links, max_rate, cls)
        rc = self._classes.get(key)
        if rc is None:
            rc = self._classes[key] = _RouteClass(key, self.env.now)
            for link in links:
                link._classes[rc] = None
            stats["peak_classes"] = max(stats["peak_classes"], len(self._classes))
        rc.settle(self.env.now)
        self.flows_started += 1
        flow._seq = self.flows_started
        end = rc.served + flow.nbytes
        flow._end = end
        # The last term absorbs rounding in a long-lived clock's total.
        flow._done_at = end - _EPS * max(1.0, flow.nbytes, end * 1e-6)
        flow._rc = rc
        rc.n += 1
        heappush(rc.heap, (end, flow._seq, flow))
        self._live += 1
        stats["peak_flows"] = max(stats["peak_flows"], self._live)
        down_after = None
        for link in links:
            if link._outage:
                fa = link._fail_after
                down_after = fa if down_after is None else min(down_after, fa)
        if down_after is not None and down_after < float("inf"):
            t = Timeout(self.env, down_after)
            t.callbacks.append(lambda ev, f=flow: self._kill_if_down(f))
        self._touch(links)
        return flow

    def _kill_if_down(self, flow: Flow) -> None:
        if flow._value is PENDING and any(l._outage for l in flow.route):
            self._cancel(flow, LinkDown, "joined a link that stayed down")

    def _cancel(self, flow: Flow, exc_type, reason: str) -> None:
        if flow._value is not PENDING:
            return
        self._detach(flow)
        self._touch(flow.route)
        flow._defused = True
        moved = flow.nbytes - flow._left
        flow.fail(
            exc_type(f"{reason}: {moved:.0f}/{flow.nbytes:.0f} bytes moved")
        )
        if exc_type is LinkDown:
            self.flows_failed += 1
            port = self._fail_port
            if port.on:
                extra = {}
                if flow.span is not None:
                    extra["trace_id"] = flow.span.trace_id
                    extra["parent_span"] = flow.span.span_id
                port.emit(
                    cls=flow.cls,
                    nbytes=flow.nbytes,
                    moved=moved,
                    started=flow.started,
                    src=flow.src,
                    dst=flow.dst,
                    reason=reason,
                    **extra,
                )

    # -- incremental allocation -------------------------------------------
    def _touch(self, links: Iterable[Link]) -> None:
        """Mark links dirty; coalesce all changes at this timestamp into
        one recompute via a zero-delay flush event."""
        for link in links:
            self._dirty[link] = None
        if not self._pending:
            self._pending = True
            ev = Event(self.env)
            ev._ok = True
            ev._value = None
            ev.callbacks.append(self._flush_cb)
            self.env.schedule(ev)

    def _flush_cb(self, _event) -> None:
        self._flush()

    def _flush(self) -> None:
        self._pending = False
        now = self.env.now
        stats = self._stats
        stats["flushes"] += 1
        done = self._due_flows(now)
        for f in done:
            self._detach(f)
        if self._dirty:
            links, classes = self._component()
            self._dirty.clear()
            for key, size in (("component_links", len(links)), ("component_classes", len(classes))):
                stats[key] += size
                stats[key + "_max"] = max(stats[key + "_max"], size)
            if classes:
                rates = waterfill(
                    {l: l._capacity for l in links},
                    [rc.route for rc in classes],
                    [rc.max_rate for rc in classes],
                    [rc.n for rc in classes],
                )
                stats["waterfills"] += 1
                stats["waterfill_rounds"] += rates.rounds
                for rc, r in zip(classes, rates):
                    if r != rc.rate:
                        rc.settle(now)
                        rc.rate = r
                    self._schedule(rc)
        # Flush narration is batched: one net.flow event per coalesced
        # timestamp carrying every flow completed in this flush (a
        # ``flows`` list of per-flow records), instead of one event per
        # flow.  Consumers (the monitor folds, the tracer) expand the list.
        narrate = self._flow_port.on
        records: List[Dict] = []
        for f in done:
            self.flows_completed += 1
            if f._value is PENDING:
                f.succeed(f)
            if narrate:
                rec: Dict = {
                    "cls": f.cls,
                    "nbytes": f.nbytes,
                    "started": f.started,
                    "elapsed": now - f.started,
                    "src": f.src,
                    "dst": f.dst,
                    "hops": len(f.route),
                }
                if f.span is not None:
                    rec["trace_id"] = f.span.trace_id
                    rec["parent_span"] = f.span.span_id
                records.append(rec)
        if records:
            self._flow_port.emit(count=len(records), flows=records)
        self._arm_timer()

    def _due_flows(self, now: float) -> List[Flow]:
        """Pop, in start order, every flow within tolerance of done.
        Only classes whose head flow is due are looked at."""
        due = self._due
        done: List[Flow] = []
        while due:
            _t, stamp, rc = due[0]
            if rc.stamp == stamp:
                served, heap, found = rc.served_at(now), rc.heap, len(done)
                while heap and (heap[0][2]._rc is not rc or served >= heap[0][2]._done_at):
                    f = heappop(heap)[2]
                    if f._rc is rc:
                        done.append(f)
                if len(done) == found:  # the earliest class is not due yet
                    break
            heappop(due)
        if len(done) > 1:
            done.sort(key=_start_order)
        return done

    def _schedule(self, rc: _RouteClass) -> None:
        """Re-stamp *rc* and enter the time its head flow runs out of
        bytes in the due heap."""
        self._stamp += 1
        rc.stamp = stamp = self._stamp
        if rc.rate > 0:
            heap = rc.heap
            while heap[0][2]._rc is not rc:  # shed departed members
                heappop(heap)
            heappush(self._due, (rc.t + (heap[0][0] - rc.served) / rc.rate, stamp, rc))

    def _component(self) -> Tuple[List[Link], List[_RouteClass]]:
        """The closure of dirty links under "shares a route class with"."""
        links: Dict[Link, None] = dict(self._dirty)
        classes: Dict[_RouteClass, None] = {}
        frontier: List[Link] = list(links)
        while frontier:
            nxt: List[Link] = []
            for link in frontier:
                for rc in link._classes:
                    if rc not in classes:
                        classes[rc] = None
                        for other in rc.route:
                            if other not in links:
                                links[other] = None
                                nxt.append(other)
            frontier = nxt
        return list(links), list(classes)

    def _detach(self, flow: Flow) -> None:
        rc = flow._rc
        if rc is None:
            return
        rc.settle(self.env.now)
        flow._left = max(0.0, flow._end - rc.served)
        flow._rc = None
        rc.n -= 1
        self._live -= 1
        for link in rc.route:
            self._dirty[link] = None
        if not rc.n:
            del self._classes[rc.key]
            for link in rc.route:
                del link._classes[rc]
                if rc.total:
                    link._by_class[rc.cls] = link._by_class.get(rc.cls, 0.0) + rc.total
            rc.stamp = 0
        elif len(rc.heap) > 2 * rc.n + 16:  # shed cancelled members
            rc.heap = [e for e in rc.heap if e[2]._rc is rc]
            heapify(rc.heap)

    def _arm_timer(self) -> None:
        """(Re)arm the single fabric-wide completion timer at the
        earliest time a class's head flow runs out of bytes."""
        self._timer_gen += 1
        gen = self._timer_gen
        due = self._due
        if len(due) > 4 * len(self._classes) + 64:  # shed stale entries
            due = self._due = [e for e in due if e[2].stamp == e[1]]
            heapify(due)
        while due and due[0][2].stamp != due[0][1]:
            heappop(due)
        if not due:
            return
        now = self.env.now
        horizon = max(0.0, due[0][0] - now)
        # Land at a strictly later representable time, or the fabric
        # would spin at a frozen clock.
        while now + horizon == now:
            horizon = horizon * 2 if horizon > 0 else max(now * 1e-15, 1e-12)
        t = Timeout(self.env, horizon)
        t.callbacks.append(lambda ev, gen=gen: self._on_tick(gen))

    def _on_tick(self, gen: int) -> None:
        if gen != self._timer_gen:
            return  # superseded by a later change
        self._flush()

    def stats(self) -> Dict[str, int]:
        """Allocator work counters: flushes, water-fill calls and rounds,
        classes and links per recomputed component (sum and max), and
        peak live flows and classes.  Pure counts, no wall clock."""
        return dict(self._stats)

    # -- introspection ----------------------------------------------------
    def describe(self) -> str:
        """Human-readable dump of the topology tree and link statistics."""
        children: Dict[str, List[str]] = {}
        for node, (parent, _link) in self._nodes.items():
            if parent is not None:
                children.setdefault(parent, []).append(node)
        lines: List[str] = []

        def render(node: str, depth: int) -> None:
            _parent, link = self._nodes[node]
            if link is None:
                lines.append(node)
            else:
                lines.append(
                    f"{'  ' * depth}└─ {node}  [{link.name}: "
                    f"{link.capacity / 125_000_000.0:.2f} Gbit/s, "
                    f"{link.active_flows} flows, "
                    f"{link.bytes_moved / 1e9:.2f} GB moved]"
                )
            for child in children.get(node, []):
                render(child, depth + 1)

        render(self.root, 0)
        standalone = [l for l in self.links.values() if l.node is None]
        if standalone:
            lines.append("standalone links:")
            for link in standalone:
                lines.append(
                    f"  - {link.name}: {link.capacity:.3g} /s, "
                    f"{link.active_flows} flows, {link.bytes_moved:.3g} moved"
                )
        return "\n".join(lines)

    def utilization_table(self) -> List[Tuple[str, float, float]]:
        """(link name, utilization, GB moved) for every link, tree order."""
        out = []
        for link in self.links.values():
            out.append((link.name, link.utilization(), link.bytes_moved / 1e9))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Fabric root={self.root!r} links={len(self.links)} "
            f"flows={self._live}>"
        )
