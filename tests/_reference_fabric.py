"""Test-only reference fabric: the per-flow algorithm the route-class
fabric replaced, kept verbatim as a differential oracle.

Every flush advances every live flow, scans all of them for completions
and for the next completion time, and water-fills one route per flow.
:func:`install` swaps it in for :class:`repro.net.Fabric` everywhere
``repro`` constructs a fabric, so a whole campaign runs on it unchanged.
"""

from __future__ import annotations

import sys
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import repro.net.fabric as production
from repro.desim import Environment, Timeout, Topics
from repro.desim.events import Event, PENDING
from repro.net.fabric import LinkDown, TrafficClass, TransferCancelled

_EPS = 1e-9


def install(monkeypatch) -> None:
    """Make every ``repro`` module build reference fabrics."""
    original = production.Fabric
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, "Fabric", None) is original:
            monkeypatch.setattr(module, "Fabric", Fabric)


_REL_EPS = 1e-12


def waterfill(
    capacities: Dict[Hashable, float],
    routes: Sequence[Sequence[Hashable]],
    max_rates: Optional[Sequence[Optional[float]]] = None,
) -> List[float]:
    """Max-min fair rates for *routes* over shared *capacities*.

    *capacities* maps link keys to capacity (bytes/second).  Each route
    is a sequence of link keys the flow crosses (duplicates are
    collapsed); *max_rates* holds each flow's own rate cap (``None`` =
    uncapped).  A flow crossing no known link is unconstrained and gets
    its cap (or ``inf``).  Returns one rate per route.
    """
    n = len(routes)
    rates = [0.0] * n
    if n == 0:
        return rates
    caps: List[Optional[float]] = (
        list(max_rates) if max_rates is not None else [None] * n
    )
    if len(caps) != n:
        raise ValueError("max_rates length must match routes")

    remaining: Dict[Hashable, float] = {}
    flows_on: Dict[Hashable, List[int]] = {}
    links_of: List[List[Hashable]] = []
    for i, route in enumerate(routes):
        ls: List[Hashable] = []
        for link in route:
            if link not in capacities:
                continue
            if link not in remaining:
                remaining[link] = float(capacities[link])
                flows_on[link] = []
            if link in ls:  # a route never usefully crosses a link twice
                continue
            ls.append(link)
            flows_on[link].append(i)
        links_of.append(ls)

    count = {link: len(flows) for link, flows in flows_on.items()}
    active: Dict[int, None] = {}
    for i in range(n):
        if links_of[i]:
            active[i] = None
        else:
            rates[i] = float("inf") if caps[i] is None else max(0.0, float(caps[i]))

    def freeze(i: int, rate: float) -> None:
        rates[i] = rate
        for link in links_of[i]:
            remaining[link] = max(0.0, remaining[link] - rate)
            count[link] -= 1
        del active[i]

    while active:
        share = None
        for link, c in count.items():
            if c > 0:
                s = remaining[link] / c
                if share is None or s < share:
                    share = s
        if share is None:  # pragma: no cover - every active flow has links
            for i in list(active):
                freeze(i, 0.0)
            break
        tol = share + _REL_EPS * max(1.0, abs(share))
        # Flows whose own cap binds below the common share freeze first;
        # their spare capacity is then redistributed.
        capped = [i for i in active if caps[i] is not None and caps[i] <= tol]
        if capped:
            for i in capped:
                freeze(i, max(0.0, float(caps[i])))
            continue
        # Otherwise the bottleneck links saturate: freeze every flow
        # crossing one of them at the common share.
        froze = False
        for link in list(count):
            if count[link] > 0 and remaining[link] / count[link] <= tol:
                for i in flows_on[link]:
                    if i in active:
                        freeze(i, share)
                        froze = True
        if not froze:  # pragma: no cover - numerical safety valve
            for i in list(active):
                freeze(i, share)
            break
    return rates


class Flow(Event):
    """An in-flight transfer occupying every link along its route."""

    __slots__ = (
        "fabric",
        "route",
        "nbytes",
        "remaining",
        "max_rate",
        "rate",
        "cls",
        "src",
        "dst",
        "started",
        "span",
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
        self.remaining = float(nbytes)
        self.max_rate = max_rate
        self.rate = 0.0
        self.cls = cls
        self.src = src
        self.dst = dst
        self.started = fabric.env.now
        #: Ambient trace context of the process that opened the flow, so
        #: net.flow events carry span attribution (monitor.tracing).
        proc = fabric.env._active_proc
        self.span = proc.span_ctx if proc is not None else None

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
        #: Insertion-ordered set of flows currently crossing this link.
        self._flows: Dict[Flow, None] = {}
        #: Cached aggregate rate across crossing flows (kept by Fabric).
        self._agg_rate = 0.0
        self._cls_rate: Dict[str, float] = {}
        # statistics
        self.bytes_moved = 0.0
        self.bytes_by_class: Dict[str, float] = {}
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
        return len(self._flows)

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
        self.fabric._advance()
        self._capacity = float(capacity)
        self.fabric._touch((self,))

    def utilization(self) -> float:
        """Mean fraction of capacity in use since the link was created."""
        self.fabric._advance()
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
        victims = [f for f in self._flows if f._value is PENDING]
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
            f"flows={len(self._flows)}>"
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
        #: Insertion-ordered set of all live flows.
        self._flows: Dict[Flow, None] = {}
        #: Links whose flow set / capacity changed since the last flush.
        self._dirty: Dict[Link, None] = {}
        self._pending = False
        #: Links with non-zero aggregate rate (the only ones advanced).
        self._active_links: Dict[Link, None] = {}
        self._last = env.now
        self._timer_gen = 0
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
        self._advance()
        self._flows[flow] = None
        down_after = None
        for link in links:
            link._flows[flow] = None
            if link._outage:
                fa = link._fail_after
                down_after = fa if down_after is None else min(down_after, fa)
        self.flows_started += 1
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
        self._advance()
        self._detach(flow)
        self._touch(flow.route)
        flow._defused = True
        moved = flow.nbytes - flow.remaining
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
        self._advance()
        eps = _EPS
        done = [
            f for f in self._flows if f.remaining <= eps * max(1.0, f.nbytes)
        ]
        for f in done:
            self._detach(f)
        if self._dirty:
            links, flows = self._component()
            self._dirty.clear()
            if flows:
                rates = waterfill(
                    {l: l._capacity for l in links},
                    [f.route for f in flows],
                    [f.max_rate for f in flows],
                )
                for f, r in zip(flows, rates):
                    f.rate = r
            for link in links:
                agg = 0.0
                cls_rate: Dict[str, float] = {}
                for f in link._flows:
                    r = f.rate
                    agg += r
                    if r:
                        cls_rate[f.cls] = cls_rate.get(f.cls, 0.0) + r
                link._agg_rate = agg
                link._cls_rate = cls_rate
                if agg > 0:
                    self._active_links[link] = None
                else:
                    self._active_links.pop(link, None)
        now = self.env.now
        # Flush narration is batched: one net.flow event per coalesced
        # timestamp carrying every flow completed in this flush (a
        # ``flows`` list of per-flow records), instead of one event per
        # flow.  Consumers (collector, tracer, records) expand the list.
        narrate = self._flow_port.on
        records: List[Dict] = []
        for f in done:
            self.flows_completed += 1
            f.rate = 0.0
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

    def _component(self) -> Tuple[List[Link], List[Flow]]:
        """The closure of dirty links under "shares a flow with"."""
        links: Dict[Link, None] = dict(self._dirty)
        flows: Dict[Flow, None] = {}
        frontier: List[Link] = list(links)
        while frontier:
            nxt: List[Link] = []
            for link in frontier:
                for f in link._flows:
                    if f not in flows:
                        flows[f] = None
                        for other in f.route:
                            if other not in links:
                                links[other] = None
                                nxt.append(other)
            frontier = nxt
        return list(links), list(flows)

    def _detach(self, flow: Flow) -> None:
        for link in flow.route:
            if flow not in link._flows:
                continue
            del link._flows[flow]
            link._agg_rate = max(0.0, link._agg_rate - flow.rate)
            if flow.rate and flow.cls in link._cls_rate:
                link._cls_rate[flow.cls] = max(
                    0.0, link._cls_rate[flow.cls] - flow.rate
                )
            self._dirty[link] = None
        self._flows.pop(flow, None)

    def _advance(self) -> None:
        """Progress all flows and link statistics to the current time."""
        now = self.env.now
        dt = now - self._last
        if dt <= 0:
            return
        for f in self._flows:
            if f.rate:
                f.remaining = max(0.0, f.remaining - f.rate * dt)
        for link in self._active_links:
            moved = link._agg_rate * dt
            link.bytes_moved += moved
            by_cls = link.bytes_by_class
            for cls, r in link._cls_rate.items():
                by_cls[cls] = by_cls.get(cls, 0.0) + r * dt
        self._last = now

    def _arm_timer(self) -> None:
        """(Re)arm the single fabric-wide completion timer."""
        self._timer_gen += 1
        gen = self._timer_gen
        horizon = float("inf")
        for f in self._flows:
            if f.rate > 0:
                h = f.remaining / f.rate
                if h < horizon:
                    horizon = h
        if horizon == float("inf"):
            return
        now = self.env.now
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
            f"flows={len(self._flows)}>"
        )
