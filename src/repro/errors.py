"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with one ``except`` clause.  Sub-families
mirror the package layout: game construction, configuration, the virtual MPI
runtime, the machine model, and the performance model each get their own
branch.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "GameError",
    "PayoffError",
    "StrategyError",
    "StateSpaceError",
    "PopulationError",
    "ScheduleError",
    "MPIError",
    "CommAbortError",
    "TagMismatchError",
    "RankError",
    "RecvTimeoutError",
    "RankFailedError",
    "PeerUnreachableError",
    "RankCrashError",
    "FaultPlanError",
    "MachineModelError",
    "PartitionError",
    "PerfModelError",
    "CalibrationError",
    "ExperimentError",
    "CheckpointError",
    "SupervisorError",
    "RunStoreError",
    "ServiceError",
    "QuotaError",
    "UnknownRunError",
    "StaleLeaseError",
    "DrainingError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigError(ReproError, ValueError):
    """A configuration value is missing, out of range, or inconsistent."""


class GameError(ReproError):
    """Base class for errors in game construction or play."""


class PayoffError(GameError, ValueError):
    """A payoff matrix violates the Prisoner's Dilemma constraints."""


class StrategyError(GameError, ValueError):
    """A strategy table is malformed (wrong length, bad values, bad memory)."""


class StateSpaceError(GameError, ValueError):
    """A state index or history view is invalid for the given memory depth."""


class PopulationError(ReproError):
    """Base class for errors in population dynamics."""


class ScheduleError(PopulationError, ValueError):
    """An SSet-to-rank schedule cannot be constructed (e.g. no ranks or SSets)."""


class MPIError(ReproError):
    """Base class for errors in the virtual MPI runtime."""


class CommAbortError(MPIError, RuntimeError):
    """A rank called ``abort`` or the SPMD program crashed on some rank."""


class TagMismatchError(MPIError, RuntimeError):
    """Internal consistency failure when matching messages by tag."""


class RankError(MPIError, ValueError):
    """A rank index is outside the communicator's size."""


class RecvTimeoutError(MPIError, TimeoutError):
    """A ``recv`` gave up waiting for a matching message.

    Carries the source/tag the receiver was matching on, so retry loops and
    failure detectors can report exactly which channel went quiet.  ``rank``
    is the peer being waited on (``None`` for wildcard receives) and
    ``deadline`` the seconds budget that expired; both are ``None`` when the
    raise site predates the attribute or has nothing meaningful to report.

    The timeout taxonomy, from most to least recoverable:

    * :class:`RecvTimeoutError` — the peer may be merely slow; retrying is
      legitimate (the reliable layer does exactly that).
    * :class:`PeerUnreachableError` — the peer is *locally* unobservable
      (network partition past its grace deadline); the global view may
      still believe it alive.  Degrade or die quietly and rejoin.
    * :class:`RankFailedError` — the peer has been globally declared dead;
      waiting any longer is pointless.
    """

    def __init__(
        self, message: str = "", *, rank: int | None = None, deadline: float | None = None
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.deadline = deadline


class RankFailedError(MPIError, RuntimeError):
    """A peer rank is dead or unresponsive (no message, no acknowledgement).

    ``rank`` names the dead peer and ``deadline`` the seconds budget that
    was exhausted waiting on it (``None`` where not meaningful).
    """

    def __init__(
        self, message: str = "", *, rank: int | None = None, deadline: float | None = None
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.deadline = deadline


class PeerUnreachableError(RankFailedError):
    """A peer rank is unreachable over the network past its grace deadline.

    Raised by the TCP transport (:mod:`repro.mpi.tcp`) when a peer host's
    connection has been down longer than its ``_UNREACHABLE_GRACE`` — a
    *local* observation, unlike :class:`RankFailedError`'s global verdict:
    the peer may be alive on the far side of a partition.  Subclasses
    :class:`RankFailedError` so every existing degradation path (worker
    SSet redistribution, quiet death + FTHello/FTRejoin) handles it
    unchanged.  Carries the peer ``rank`` and the grace ``deadline``.
    """


class RankCrashError(MPIError, RuntimeError):
    """An injected fault terminated this rank (raised *inside* the victim).

    Under ``run_spmd(..., on_rank_failure="continue")`` this is the one
    exception that kills a single rank without aborting the whole world.
    """


class FaultPlanError(MPIError, ValueError):
    """A fault-injection plan is malformed or inconsistent."""


class MachineModelError(ReproError):
    """Base class for errors in the Blue Gene machine model."""


class PartitionError(MachineModelError, ValueError):
    """A partition shape cannot be built for the requested node count."""


class PerfModelError(ReproError):
    """Base class for errors in the performance model."""


class CalibrationError(PerfModelError, RuntimeError):
    """Cost-model calibration failed (e.g. degenerate timing samples)."""


class ExperimentError(ReproError):
    """An experiment driver was misconfigured or its inputs are inconsistent."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file is missing, corrupt, or from an incompatible run."""


class SupervisorError(ReproError, RuntimeError):
    """A supervised run exhausted its restart budget without completing."""


class RunStoreError(ReproError, RuntimeError):
    """A run-store operation failed (bad key, missing run, corrupt record)."""


class ServiceError(ReproError, RuntimeError):
    """Base class for errors raised by the run service (:mod:`repro.service`)."""


class QuotaError(ServiceError):
    """A tenant tried to exceed its admission quota."""


class UnknownRunError(ServiceError, KeyError):
    """A service operation named a run the job queue does not know."""


class StaleLeaseError(ServiceError):
    """This queue's store lease has been claimed by a newer queue (fenced).

    Raised at the *write* site — journal appends, status writes, worker
    dispatch — so a superseded queue can never double-dispatch a run or
    clobber records the current owner is writing.  ``epoch`` is the fenced
    queue's own epoch and ``current`` the epoch that displaced it (``None``
    where unknown, e.g. an unreadable lease file).
    """

    def __init__(
        self, message: str = "", *, epoch: int | None = None, current: int | None = None
    ) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.current = current


class DrainingError(ServiceError):
    """The service is draining and admits no new work (HTTP 503 material).

    ``retry_after`` is the seconds hint the HTTP layer surfaces as a
    ``Retry-After`` header — roughly the drain grace window.
    """

    def __init__(self, message: str = "", *, retry_after: float = 30.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)
