"""Price real virtual-MPI traffic on a modelled machine.

The missing bridge between tier 1 (real execution, exact message counts)
and tier 3 (closed-form costs): take the
:class:`~repro.mpi.counters.CommCounters` of an actual run and charge every
operation to a :class:`~repro.machine.bluegene.MachineSpec`'s networks.
The result is "what this exact communication schedule would have cost on
Blue Gene" — used to sanity-check the analytic model's communication terms
against a run's true traffic instead of its expected rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PerfModelError
from repro.machine.bluegene import MachineSpec
from repro.mpi.counters import OpCount

__all__ = ["PricedTraffic", "price_counters"]


@dataclass(frozen=True)
class PricedTraffic:
    """Modelled communication cost of one run's real traffic.

    Attributes
    ----------
    collective_seconds:
        Cost of all tree collectives (bcast/reduce/gather legs at their
        logical payload sizes).
    point_to_point_seconds:
        Cost of the point-to-point messages *not* accounted to collectives,
        each charged the torus average distance.
    """

    collective_seconds: float
    point_to_point_seconds: float

    @property
    def total_seconds(self) -> float:
        """All communication."""
        return self.collective_seconds + self.point_to_point_seconds


def price_counters(
    counters: dict[str, OpCount], machine: MachineSpec, n_ranks: int
) -> PricedTraffic:
    """Charge a counter snapshot to ``machine``'s networks.

    Collectives are priced per call at their average payload; the residual
    point-to-point messages (total sends minus the messages the collectives
    account for) are priced as torus traffic at average distance.
    """
    if n_ranks < 1:
        raise PerfModelError(f"n_ranks must be >= 1, got {n_ranks}")
    part = machine.partition(n_ranks)
    n_nodes = part.n_nodes
    tree = machine.tree
    torus = machine.torus(n_ranks)

    collective = 0.0
    accounted_messages = 0
    for op, pricer, msgs_per_call in (
        ("bcast", tree.bcast_time, n_nodes - 1),
        ("reduce", tree.reduce_time, n_nodes - 1),
        ("gather", tree.reduce_time, n_nodes - 1),
    ):
        count = counters.get(op)
        if count is None or count.calls == 0:
            continue
        avg_payload = count.bytes / count.calls
        collective += count.calls * pricer(n_nodes, int(avg_payload))
        accounted_messages += count.calls * msgs_per_call

    sends = counters.get("send", OpCount())
    residual_msgs = max(0, sends.messages - accounted_messages)
    if sends.messages:
        avg_bytes = sends.bytes / sends.messages
        p2p = residual_msgs * torus.average_message_time(0, int(avg_bytes))
    else:
        p2p = 0.0
    return PricedTraffic(collective_seconds=collective, point_to_point_seconds=p2p)
