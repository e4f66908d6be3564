"""Virtual MPI runtime — the message-passing substrate of the reproduction.

The paper runs C/MPI on Blue Gene; here the same SPMD programs run on a
virtual communicator with faithful semantics and fully observable traffic:

* :mod:`repro.mpi.comm` — :class:`World`, the one holder of a job's state,
  and :class:`Comm` (point-to-point + tree-based collectives).
* :mod:`repro.mpi.executor` — :func:`run_spmd`, the ``mpiexec`` stand-in
  and the only entry point, whatever the backend.
* :mod:`repro.mpi.topology` — Cartesian/torus rank layouts.
* :mod:`repro.mpi.counters` — per-operation message/byte tallies.
* :mod:`repro.mpi.status` — matching wildcards and delivery metadata.
* :mod:`repro.mpi.faults` — seeded fault injection (drops, delays,
  duplicates, corruptions, rank crashes, hangs and network link faults:
  partitions, slow links, connection resets) for chaos testing.
* :mod:`repro.mpi.tcp` — length-prefixed framed socket transport with
  rendezvous bootstrap, reconnecting per-host channels and heartbeat
  liveness; :class:`Comm`'s reliable layer heals the frames a socket
  fault loses.
* :mod:`repro.mpi.hostexec` — the one launcher behind every backend: ranks
  as threads on hosts, one host in the calling process (``"thread"``) or
  OS-process hosts joined by loopback TCP, one per rank (``"process"``) or
  ``n_hosts`` of them (``"tcp"``).
"""

from repro.mpi.comm import Comm, World, backoff_wait, payload_nbytes
from repro.mpi.counters import CommCounters, OpCount
from repro.mpi.executor import SPMDResult, run_spmd
from repro.mpi.faults import (
    CorruptedPayload,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultRecord,
)
from repro.mpi.status import ANY_SOURCE, ANY_TAG, MAX_USER_TAG, Status
from repro.mpi.tcp import NetHello, NetWelcome
from repro.mpi.topology import CartTopology

__all__ = [
    "Comm",
    "World",
    "backoff_wait",
    "payload_nbytes",
    "CommCounters",
    "OpCount",
    "SPMDResult",
    "run_spmd",
    "NetHello",
    "NetWelcome",
    "ANY_SOURCE",
    "ANY_TAG",
    "MAX_USER_TAG",
    "Status",
    "CartTopology",
    "CorruptedPayload",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
]
