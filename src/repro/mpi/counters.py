"""Communication counters: the virtual network's observable traffic.

The paper's scaling behaviour is a story about communication structure —
how many messages the Nature Agent's broadcasts and fitness gathers put on
the collective tree and torus networks.  Because our MPI is virtual, we can
count *exactly*: every point-to-point message, every collective call, every
byte.  The tests assert the program's communication pattern (e.g. a window
costs each worker one frame down and one report up), and the performance
model is calibrated against these counts.

Fault injection and fault tolerance report through the same tallies:

* ``fault_drop`` / ``fault_delay`` / ``fault_duplicate`` / ``fault_corrupt``
  — injected message faults, one call per fired fault;
* ``fault_crash`` / ``fault_hang`` — injected rank deaths at
  :meth:`~repro.mpi.comm.Comm.fault_point`;
* ``reliable_send`` / ``reliable_retry`` / ``reliable_dedup`` /
  ``reliable_corrupt`` / ``reliable_ack`` — the acknowledged-messaging
  layer's traffic (frames confirmed delivered, resends after missing acks,
  duplicate frames re-acknowledged and discarded, frames failing their
  checksum, explicit ack frames — sent when no reply is due to carry it);
* ``heartbeat`` / ``degradation`` — the fault-tolerant runner's liveness
  checks and graceful-degradation steps;
* ``net.*`` — the TCP transport's socket-level traffic
  (:mod:`repro.mpi.tcp`): ``net.connect`` / ``net.reconnect`` (dial-ins,
  with bytes = 0), ``net.frames`` (data frames on the wire, bytes =
  framed length), ``net.heartbeat`` (liveness pings),
  ``net.partition`` / ``net.conn_reset`` / ``net.slow_link`` (injected
  network faults that fired), and ``net.peer_unreachable`` (a peer host
  crossed its grace deadline).  Absorbed into run metrics as
  ``mpi.net.*`` and rendered by ``python -m repro.obs.report``.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["OpCount", "CommCounters"]


@dataclass
class OpCount:
    """Message and byte tally for one operation type."""

    calls: int = 0
    messages: int = 0
    bytes: int = 0

    def add(self, messages: int, nbytes: int) -> None:
        self.calls += 1
        self.messages += messages
        self.bytes += nbytes


@dataclass
class CommCounters:
    """Thread-safe per-communicator traffic statistics.

    Point-to-point traffic is tallied under ``"send"``; each collective is
    tallied both as its own logical operation (``"bcast"``, ``"gather"``,
    ...) and through the point-to-point messages it is built from.
    """

    ops: dict[str, OpCount] = field(default_factory=lambda: defaultdict(OpCount))
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, op: str, messages: int = 1, nbytes: int = 0) -> None:
        """Tally one call of ``op`` carrying ``messages`` messages / ``nbytes`` bytes."""
        with self._lock:
            self.ops[op].add(messages, nbytes)

    def get(self, op: str) -> OpCount:
        """The tally for ``op`` (zeros when never recorded)."""
        with self._lock:
            found = self.ops.get(op)
            return OpCount(found.calls, found.messages, found.bytes) if found else OpCount()

    def snapshot(self) -> dict[str, OpCount]:
        """A consistent copy of all tallies."""
        with self._lock:
            return {k: OpCount(v.calls, v.messages, v.bytes) for k, v in self.ops.items()}

    def absorb(self, snapshot: dict[str, OpCount]) -> None:
        """Fold another counter set's :meth:`snapshot` into this one.

        The process-backend executor tallies traffic per rank process and
        merges the per-process snapshots into the world's counters here.
        """
        with self._lock:
            for op, count in snapshot.items():
                tally = self.ops[op]
                tally.calls += count.calls
                tally.messages += count.messages
                tally.bytes += count.bytes

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{k}={v.calls}c/{v.messages}m/{v.bytes}B" for k, v in sorted(self.snapshot().items())
        )
        return f"CommCounters({parts})"
