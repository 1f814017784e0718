"""Chirp user-level file server (paper §4.2, §4.4; Fig 11 stage-out waves).

Chirp is a plain-user file server Lobster runs in front of the local
storage element (a Hadoop cluster at Notre Dame) so that thousands of
tasks can stage outputs without overwhelming Work Queue's own transfer
path.  Its characteristic behaviour at scale:

* a *bounded number of concurrent connections* — the knob that keeps the
  underlying hardware responsive (paper §5: "adjusting the number of
  concurrent connections permitted");
* connections beyond the bound queue and are served in order, so
  synchronized waves of finishing tasks produce periodic spikes in
  stage-out time (Fig 11, second-to-last panel);
* transfers behind an accepted connection share the server NIC.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from ..desim import Environment, Resource, Topics
from ..net import Fabric, TrafficClass

__all__ = ["ChirpError", "ChirpServer"]

GBIT = 125_000_000.0


class ChirpError(Exception):
    """A Chirp transfer failed (queue timeout or server trouble)."""


class ChirpServer:
    """A file server with bounded concurrency in front of the local SE."""

    _ids = count()

    def __init__(
        self,
        env: Environment,
        bandwidth: float = 10 * GBIT,
        max_connections: int = 32,
        accept_latency: float = 0.5,
        queue_timeout: float = 3_600.0,
        name: Optional[str] = None,
        fabric: Optional[Fabric] = None,
        spindle_bandwidth: Optional[float] = None,
    ):
        if max_connections <= 0:
            raise ValueError("max_connections must be positive")
        if queue_timeout <= 0:
            raise ValueError("queue_timeout must be positive")
        self.env = env
        self.name = name or f"chirp{next(self._ids):02d}"
        self.fabric = fabric if fabric is not None else Fabric(env)
        self.link = self.fabric.attach(
            f"{self.name}.nic", bandwidth, node=self.name
        )
        #: The SE disk array behind the server: slightly narrower than
        #: the NIC, so spindles are the bottleneck under full load.
        self.store_node = f"{self.name}.store"
        self.spindles = self.fabric.attach(
            f"{self.name}.spindles",
            spindle_bandwidth if spindle_bandwidth is not None else 0.8 * bandwidth,
            node=self.store_node,
            parent=self.name,
        )
        self.connections = Resource(env, capacity=max_connections)
        self.accept_latency = accept_latency
        self.queue_timeout = queue_timeout
        # Per-topic fast paths: a chirp.queue event per transfer is one
        # of the densest stage-out topics; skip payloads when unwanted.
        self._queue_port = env.bus.port(Topics.CHIRP_QUEUE)
        self._transfer_port = env.bus.port(Topics.LINK_TRANSFER)
        # statistics
        self.transfers = 0
        self.failures = 0
        self.bytes_in = 0.0
        self.bytes_out = 0.0
        #: (time, queue depth) samples for the monitoring timeline.
        self.queue_samples = []

    @property
    def queue_depth(self) -> int:
        return len(self.connections.queue)

    def put(self, nbytes: float, client_link=None, cls: str = TrafficClass.OUTPUT):
        """DES process: upload *nbytes* (task stage-out). Returns elapsed.

        With *client_link* (the worker node's NIC) the bytes occupy both
        ends of the connection concurrently — a slow client slows its own
        transfer without consuming extra server bandwidth.  When the
        client NIC is on the same shared fabric, the upload is one
        end-to-end flow client → trunk → core → server NIC → spindles.
        """
        elapsed = yield from self._transfer(
            nbytes, inbound=True, client_link=client_link, cls=cls
        )
        return elapsed

    def get(self, nbytes: float, client_link=None, cls: str = TrafficClass.STAGING):
        """DES process: download *nbytes* (merge input, MC overlay)."""
        elapsed = yield from self._transfer(
            nbytes, inbound=False, client_link=client_link, cls=cls
        )
        return elapsed

    def _transfer(
        self,
        nbytes: float,
        inbound: bool,
        client_link=None,
        cls: str = TrafficClass.OUTPUT,
    ):
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        start = self.env.now
        self.queue_samples.append((start, self.queue_depth))
        port = self._queue_port
        if port.on:
            extra = {}
            proc = self.env._active_proc
            ctx = proc.span_ctx if proc is not None else None
            if ctx is not None:
                extra["trace_id"] = ctx.trace_id
                extra["parent_span"] = ctx.span_id
            port.emit(
                server=self.name,
                depth=self.queue_depth,
                inbound=inbound,
                nbytes=nbytes,
                **extra,
            )
        req = self.connections.request()
        deadline = self.env.timeout(self.queue_timeout)
        try:
            result = yield req | deadline
        except BaseException:
            req.cancel()
            raise
        if req not in result:
            req.cancel()
            self.failures += 1
            raise ChirpError(
                f"{self.name}: connection not accepted within "
                f"{self.queue_timeout:.0f}s (queue depth {self.queue_depth})"
            )
        try:
            yield self.env.timeout(self.accept_latency)
            if (
                client_link is not None
                and client_link.fabric is self.fabric
                and client_link.node is not None
            ):
                # One end-to-end flow between the client and the SE
                # spindles, crossing every link on the way.
                src = client_link.node if inbound else self.store_node
                dst = self.store_node if inbound else client_link.node
                flows = [self.fabric.transfer(nbytes, src=src, dst=dst, cls=cls)]
            else:
                flows = [self.link.transfer(nbytes, cls=cls)]
                if client_link is not None:
                    flows.append(client_link.transfer(nbytes, cls=cls))
            try:
                if len(flows) == 1:
                    yield flows[0]
                else:
                    yield flows[0] & flows[1]
            except BaseException:
                for f in flows:
                    f.cancel()
                raise
        finally:
            self.connections.release(req)
        self.transfers += 1
        if inbound:
            self.bytes_in += nbytes
        else:
            self.bytes_out += nbytes
        port = self._transfer_port
        if port.on:
            port.emit(
                link=self.name,
                inbound=inbound,
                nbytes=nbytes,
                elapsed=self.env.now - start,
            )
        return self.env.now - start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ChirpServer {self.name} conns={self.connections.count}"
            f"/{self.connections.capacity} queued={self.queue_depth}>"
        )
