"""``repro.net`` — the shared network fabric.

A topology of named links (worker NIC → rack switch → campus core →
WAN; squid NICs and SE spindles attached) on which every traffic
producer in the simulator moves its bytes.  One :class:`Flow` occupies
every link along its route simultaneously at the bottleneck max-min
rate, so CVMFS cold-cache fills, XrootD streams, stage-in/out and merge
writes genuinely contend on the links they share — the paper's Fig 10
campus-uplink saturation arises from cross-traffic, not per-protocol
modelling.
"""

from .allocator import waterfill
from .fabric import Fabric, Flow, Link, LinkDown, TrafficClass, TransferCancelled
from .topology import TopologySpec, rack_for

__all__ = [
    "Fabric",
    "Flow",
    "Link",
    "LinkDown",
    "TrafficClass",
    "TransferCancelled",
    "TopologySpec",
    "rack_for",
    "waterfill",
]
