"""Store-and-forward transfer helper for the WQ hierarchy.

A hop moves bytes off the sender's NIC and onto the receiver's NIC.
When both NICs are nodes of the same network fabric the hop is one
end-to-end flow crossing every link between the two nodes (rack trunks,
the campus core); otherwise the two links are occupied concurrently
(pipelined), so the hop takes as long as the more congested side.  On
interrupt (eviction) the flows are cancelled so no phantom traffic
keeps consuming capacity.

When the caller supplies both the expected digest (what the producer
computed) and the delivered digest (what actually crossed the wire),
the hop verifies them after the bytes land and raises
:class:`~repro.storage.integrity.IntegrityError` on mismatch — the
WQ-level checksum check on staged outputs.

Under causal tracing the flows a hop creates attribute themselves to
the calling process's ambient span context (see
``repro.monitor.tracing``): the worker wraps its stage-in/stage-out
around :func:`ship` in ``wq.stage_in`` / ``wq.stage_out`` spans, so
every byte moved here lands under the task attempt that moved it.
"""

from __future__ import annotations

from ..net import TrafficClass
from ..storage.integrity import IntegrityError

__all__ = ["ship"]


def ship(
    src,
    dst,
    nbytes: float,
    cls: str = TrafficClass.STAGING,
    expect_digest: str = "",
    payload_digest: str = "",
    name: str = "",
):
    """DES process: move *nbytes* across one hop (src NIC → dst NIC)."""
    if nbytes <= 0:
        return 0.0
    env = src.env
    start = env.now
    if src.fabric is dst.fabric and src.node is not None and dst.node is not None:
        flow = src.fabric.transfer(nbytes, src=src.node, dst=dst.node, cls=cls)
        try:
            yield flow
        except BaseException:
            flow.cancel()
            raise
    else:
        a = src.transfer(nbytes, cls=cls)
        b = dst.transfer(nbytes, cls=cls)
        try:
            yield a & b
        except BaseException:
            a.cancel()
            b.cancel()
            raise
    if expect_digest and payload_digest and payload_digest != expect_digest:
        bus = env.bus
        if bus:
            from ..desim.bus import Topics

            # Lazy publish: the corrupt-hop payload is only built when
            # a subscriber (or the ring) actually wants integrity.*.
            bus.publish_lazy(
                Topics.INTEGRITY_CORRUPT,
                lambda: dict(
                    name=name,
                    expected=expect_digest,
                    actual=payload_digest,
                    where="wq-transfer",
                ),
            )
        raise IntegrityError(name, expect_digest, payload_digest, where="wq-transfer")
    return env.now - start
