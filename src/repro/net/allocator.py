"""Incremental max-min water-filling over multi-link routes.

A flow occupies *every* link along its route simultaneously; its rate is
set by progressive filling (water-filling): raise all unfrozen flows
together until either a flow hits its own cap or some link saturates,
freeze the affected flows at that level, subtract their rates from the
links they cross, and repeat.  The result is the unique max-min fair
allocation: no flow's rate can be raised without lowering that of a flow
with an equal or smaller rate.

:func:`waterfill` is a pure function over hashable link keys so it can
be property-tested in isolation; :class:`~repro.net.fabric.Fabric` calls
it with live :class:`~repro.net.fabric.Link` objects restricted to the
connected component of links actually touched by a change, one weighted
route per route class (flows sharing route, cap and traffic class).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

__all__ = ["Allocation", "waterfill"]

_REL_EPS = 1e-12


class Allocation(list):
    """The rates :func:`waterfill` returns, one per route, plus the
    number of filling rounds it took."""

    rounds = 0


def waterfill(
    capacities: Dict[Hashable, float],
    routes: Sequence[Sequence[Hashable]],
    max_rates: Optional[Sequence[Optional[float]]] = None,
    weights: Optional[Sequence[int]] = None,
) -> Allocation:
    """Max-min fair rates for *routes* over shared *capacities*.

    *capacities* maps link keys to capacity (bytes/second).  Each route
    is a sequence of link keys the flow crosses (duplicates are
    collapsed); *max_rates* holds each flow's own rate cap (``None`` =
    uncapped).  A flow crossing no known link is unconstrained and gets
    its cap (or ``inf``).  *weights* makes route ``i`` stand for
    ``weights[i]`` identical flows (default 1 each), which max-min
    fairness always gives one common rate; the result equals the plain
    call on the problem expanded to one route per flow.  Returns one
    per-flow rate per route.
    """
    n = len(routes)
    rates = Allocation([0.0] * n)
    if n == 0:
        return rates
    caps: List[Optional[float]] = (
        list(max_rates) if max_rates is not None else [None] * n
    )
    ws: Sequence[int] = weights if weights is not None else [1] * n
    if len(caps) != n or len(ws) != n:
        raise ValueError("max_rates and weights must match routes in length")

    remaining: Dict[Hashable, float] = {}
    flows_on: Dict[Hashable, List[int]] = {}
    links_of: List[List[Hashable]] = []
    active: Dict[int, None] = {}
    for i, route in enumerate(routes):
        ls: List[Hashable] = []
        for link in route:
            # a route never usefully crosses a link twice
            if link in ls or link not in capacities:
                continue
            ls.append(link)
            if link in flows_on:
                flows_on[link].append(i)
            else:
                remaining[link] = float(capacities[link])
                flows_on[link] = [i]
        links_of.append(ls)
        if ls:
            active[i] = None
        else:
            rates[i] = float("inf") if caps[i] is None else max(0.0, float(caps[i]))
    #: Sum of the weights of the still-unfrozen routes crossing a link.
    count = {
        link: len(fl) if weights is None else sum(ws[i] for i in fl)
        for link, fl in flows_on.items()
    }

    def freeze(i: int, rate: float) -> None:
        rates[i] = rate
        w = ws[i]
        used = rate * w
        for link in links_of[i]:
            remaining[link] = max(0.0, remaining[link] - used)
            count[link] -= w
        del active[i]

    rounds = 0
    while active:
        rounds += 1
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
    rates.rounds = rounds
    return rates
