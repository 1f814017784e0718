"""The Frontier conditions-data service (paper §4.2).

"HEP analysis jobs also depend on configuration and calibration
information, which is distributed from CERN through a network of
proxies, using the Frontier protocol."  Conditions are keyed by
*interval of validity* (IOV): every task processing runs within the same
IOV needs the same payload, so the squid tier absorbs almost all of the
load once the first task has pulled each payload from the origin.
"""

from __future__ import annotations

from typing import Optional, Set, Union

from ..desim import Environment
from ..net import Fabric, TrafficClass, TransferCancelled
from .squid import ProxyFarm, SquidProxy, SquidTimeout

__all__ = ["FrontierService"]

MB = 1_000_000.0
GBIT = 125_000_000.0


class FrontierService:
    """Conditions distribution: origin at CERN behind the squid tier."""

    def __init__(
        self,
        env: Environment,
        proxies: Union[SquidProxy, ProxyFarm],
        origin_bandwidth: float = 0.5 * GBIT,
        origin_latency: float = 1.5,
        payload_bytes: float = 50 * MB,
        payload_requests: int = 40,
        iov_runs: int = 100,
        fabric: Optional[Fabric] = None,
    ):
        """*iov_runs*: how many consecutive runs share one conditions IOV."""
        if payload_bytes < 0 or payload_requests < 0:
            raise ValueError("payload sizes must be non-negative")
        if iov_runs <= 0:
            raise ValueError("iov_runs must be positive")
        self.env = env
        self.proxies = proxies
        self.fabric = fabric if fabric is not None else Fabric(env)
        #: The long-haul link to the CERN origin (misses only).  On a
        #: shared fabric the origin sits beyond the WAN, so origin pulls
        #: cross the campus uplink too — and die with it in an outage.
        parent = "world" if self.fabric.has_node("world") else None
        self.origin = self.fabric.attach(
            "frontier-origin", origin_bandwidth, node="frontier-origin", parent=parent
        )
        self.origin_latency = origin_latency
        self.payload_bytes = payload_bytes
        self.payload_requests = payload_requests
        self.iov_runs = iov_runs
        #: IOV keys already cached in the squid tier.
        self._cached: Set[int] = set()
        self.hits = 0
        self.misses = 0

    def iov_key(self, run: int) -> int:
        """The IOV a run's conditions belong to."""
        return run // self.iov_runs

    def warm(self, run: int = 0) -> None:
        """Mark *run*'s IOV as already cached in the squid tier (as if
        an earlier task had pulled it from the origin)."""
        self._cached.add(self.iov_key(run))

    def fetch(self, run: int, client_link=None):
        """DES process: obtain conditions for *run*; returns elapsed time.

        A squid-cache miss pulls the payload from the CERN origin first
        (slow, shared link — crossing the campus uplink on a shared
        fabric); hits are served by the proxy tier alone.  Raises
        :class:`~repro.cvmfs.SquidTimeout` under proxy overload or when
        the origin becomes unreachable (e.g. a WAN outage).
        """
        start = self.env.now
        key = self.iov_key(run)
        if key not in self._cached:
            self.misses += 1
            yield self.env.timeout(self.origin_latency)
            flow = self.fabric.transfer(
                self.payload_bytes,
                src="frontier-origin",
                dst=self.fabric.root,
                cls=TrafficClass.FRONTIER,
            )
            try:
                yield flow
            except TransferCancelled as exc:
                raise SquidTimeout(f"frontier origin unreachable: {exc}") from None
            except BaseException:
                flow.cancel()
                raise
            self._cached.add(key)
        else:
            self.hits += 1
        yield from self.proxies.fetch(
            self.payload_requests,
            self.payload_bytes,
            client_link=client_link,
            cls=TrafficClass.FRONTIER,
        )
        return self.env.now - start

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FrontierService iovs={len(self._cached)} hit_rate={self.hit_rate:.2f}>"
