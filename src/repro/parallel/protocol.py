"""Wire protocol of the parallel runner.

The paper's population dynamics are a broadcast down the collective tree and
two point-to-point fitness returns, and only a pairwise comparison needs a
fitness.  :mod:`repro.perf` prices that tree for the paper's tables; the
program that executes is a reliable point-to-point star that moves in the
same windows.  Nothing Nature draws between two adoption decisions depends on
one (:meth:`~repro.population.nature.NatureAgent.advance`) and every PC's is
a function of Nature's own replica, so a window — up to the cap, the next
checkpoint, or the last generation — exchanges, with every live worker:

1. **Frame** (Nature -> worker, :meth:`~repro.mpi.comm.Comm.post_reliable`):
   ``(closed, [(generation, AdoptionDecision | MutationSelection), ...],
   FTHeader)`` — every decision and mutation Nature drew in generations
   ``closed + 1`` (where the previous frame stopped) through the header's,
   in order.  The events are the serial driver's own
   (:mod:`repro.population.nature`): the frame is the list
   :meth:`~repro.population.dynamics.EvolutionDriver.draft` filled.
2. **Report** (worker -> Nature): a :class:`WorkerReport`, the window's
   heartbeat.

Workers replay the events in order on their population replica, so every
rank ends the window with an identical global strategy view — the paper's
"all nodes need to maintain an up to date view of the strategies assigned to
all other SSets".

Both event types are slotted dataclasses that pickle as their values alone;
a strategy table travels as its raw bytes, so the virtual network counts its
true size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TAG_CONTROL",
    "TAG_REPORT",
    "FTHeader",
    "FTShutdown",
    "FTFinal",
    "FTHello",
    "FTRejoin",
    "WorkerReport",
    "DegradationEvent",
    "RecoveryEvent",
]

#: Reliable-channel tag for Nature -> worker control messages.
TAG_CONTROL = 11

#: Reliable-channel tag for worker -> Nature reports.
TAG_REPORT = 12

#: Plain-channel tag for a respawned worker announcing itself to Nature.
#: Deliberately *not* reliable: the replacement keeps resending the hello
#: until Nature answers, which is the whole retry scheme — and Nature must
#: not ack a hello for a rank it has not yet declared dead.
TAG_HELLO = 13

#: Reliable-channel tag for Nature -> replacement rejoin state transfer.
TAG_RECOVERY = 14


# -- the star ---------------------------------------------------------------------
#
# Frames go to every live worker before Nature waits for anyone.  A worker
# replays the window in order — per generation its fault point, its slates,
# then the generation's events — and posts one WorkerReport.  Only an eager
# run has workers; every other run is Nature alone.  Nature decides every PC
# on its own replica, the one the workers hold, and asks no one.  All of it
# travels on the reliable layer (Comm.post_reliable /
# recv_reliable_owing: the report acknowledges the frame it answers and the
# next frame the report), so injected drops, duplicates and corruptions
# cannot desynchronise it.


@dataclass(frozen=True)
class FTHeader:
    """Header of a star frame (Nature -> each live worker): a window's work order.

    ``generation`` is the window's last generation.  ``failed_ranks`` is the
    cumulative failure set; workers derive their (possibly reassigned) SSet
    ownership from it with
    :func:`~repro.parallel.decomposition.owner_map_with_failures`.
    """

    generation: int
    failed_ranks: tuple[int, ...] = ()


@dataclass(frozen=True)
class WorkerReport:
    """Report up (worker -> Nature): the heartbeat of one window.

    ``generation`` is the last generation of the window it answers.
    """

    rank: int
    generation: int


@dataclass(frozen=True)
class FTShutdown:
    """Nature -> worker, in a frame's header place: send an FTFinal, exit.

    It follows the last window's frame, so it carries no events.
    """

    generation: int


@dataclass(frozen=True)
class FTFinal:
    """Worker -> Nature at shutdown: replica digest and work accounting.

    No frame answers it, so Nature acknowledges this one explicitly.
    """

    rank: int
    digest: bytes
    games_played: int


@dataclass(frozen=True)
class FTHello:
    """Respawned worker -> Nature (plain send, retried): "I exist again".

    ``incarnation`` is the replacement's process incarnation (1 for the
    first respawn of a rank), carried into the matching
    :class:`RecoveryEvent` for the log.
    """

    rank: int
    incarnation: int = 0


@dataclass(frozen=True)
class FTRejoin:
    """Nature -> replacement (reliable): everything needed to rejoin.

    ``generation`` is the window boundary whose state ``matrix`` holds; the
    replacement starts participating at ``generation + 1`` and ignores any
    stale control traffic, and any event, at or before ``generation``.  The
    matrix is Nature's authoritative full strategy view (every rank keeps a
    full replica), so the replacement's SSet block is re-seeded implicitly;
    its RNG needs no state transfer at all because worker randomness is
    keyed by ``(generation, sset)`` — pure functions of the seed.
    """

    generation: int
    matrix: np.ndarray


@dataclass(frozen=True)
class DegradationEvent:
    """One graceful-degradation step, seen at ``generation``: its window's last."""

    generation: int
    rank: int
    reason: str
    reassigned_ssets: tuple[int, ...]


@dataclass(frozen=True)
class RecoveryEvent:
    """One successful heal: a respawned rank rejoined the computation.

    The mirror image of :class:`DegradationEvent`: ``generation`` is the
    window boundary whose state the replacement was seeded with (it
    participates from ``generation + 1``), and ``restored_ssets`` are the
    SSets that return to the rank's ownership.
    """

    generation: int
    rank: int
    incarnation: int
    restored_ssets: tuple[int, ...]
