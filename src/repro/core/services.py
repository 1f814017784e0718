"""The bundle of infrastructure services a Lobster run talks to.

Collects the substrate handles (CVMFS repo, squid farm, WAN, XrootD
federation, Chirp server, storage element, optional Hadoop) so they can
be wired once and passed around, and provides a one-call default stack
with paper-scale parameters.

``Services.default`` also owns the shared network :class:`~repro.net.Fabric`:
the WAN uplink, squid NICs, Chirp NIC + SE spindles, the Frontier
origin and (with Hadoop) the HDFS datanode disks and NICs all attach to
one campus fabric, so CVMFS, Frontier, XrootD, staging and merge traffic
are accounted in one place and contend on the links they share.
Pass ``services.fabric`` to ``MachinePool.homogeneous`` and ``Master``
to put the compute side on the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cvmfs import CVMFSRepository, FrontierService, ProxyFarm
from ..desim import Environment
from ..dbs import DBS, DBSClient
from ..hadoop import HDFS, MapReduceEngine
from ..net import Fabric, TopologySpec
from ..storage import (
    ChirpServer,
    StorageElement,
    WideAreaNetwork,
    XrootdFederation,
)

__all__ = ["Services"]

GBIT = 125_000_000.0


@dataclass
class Services:
    """Handles to every external system one Lobster run uses."""

    env: Environment
    repository: CVMFSRepository
    proxies: ProxyFarm
    wan: WideAreaNetwork
    xrootd: XrootdFederation
    chirp: ChirpServer
    se: StorageElement
    dbs: Optional[DBSClient] = None
    hdfs: Optional[HDFS] = None
    mapreduce: Optional[MapReduceEngine] = None
    #: Conditions-data service; when None the wrapper falls back to a
    #: plain proxy fetch of the configured conditions volume.
    frontier: Optional[FrontierService] = None
    #: The shared network fabric every byte producer routes through.
    fabric: Optional[Fabric] = None

    @classmethod
    def default(
        cls,
        env: Environment,
        n_proxies: int = 1,
        wan_bandwidth: float = 10 * GBIT,
        outages=None,
        chirp_connections: int = 32,
        with_hadoop: bool = False,
        dbs: Optional[DBS] = None,
        seed: int = 0,
        topology: Optional[TopologySpec] = None,
    ) -> "Services":
        """A standard Notre-Dame-like stack on one shared fabric."""
        topology = topology if topology is not None else TopologySpec(
            wan_bandwidth=wan_bandwidth
        )
        fabric = Fabric(env)
        # Attach order matters only for the WAN: the ``world`` node must
        # exist before the Frontier origin hangs off it.
        wan = WideAreaNetwork(
            env, bandwidth=topology.wan_bandwidth, outages=outages, fabric=fabric
        )
        hdfs = HDFS(env, seed=seed, fabric=fabric) if with_hadoop else None
        proxies = ProxyFarm.deploy(env, n_proxies, fabric=fabric)
        return cls(
            env=env,
            repository=CVMFSRepository(),
            proxies=proxies,
            wan=wan,
            xrootd=XrootdFederation(env, wan),
            chirp=ChirpServer(
                env,
                max_connections=chirp_connections,
                fabric=fabric,
                spindle_bandwidth=topology.se_spindle_bandwidth,
            ),
            se=StorageElement(env=env),
            dbs=DBSClient(dbs, env=env) if dbs is not None else None,
            hdfs=hdfs,
            mapreduce=MapReduceEngine(env, hdfs) if hdfs is not None else None,
            frontier=FrontierService(env, proxies, fabric=fabric),
            fabric=fabric,
        )
