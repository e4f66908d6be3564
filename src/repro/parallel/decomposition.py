"""Work decomposition: SSets and agents onto ranks (paper §V, Table VIII).

The paper maps one rank to the Nature Agent and block-distributes the SSets
(and their agents) over the remaining ranks; every rank computes its own
assignment from its rank id alone.  :class:`SSetDecomposition` reproduces
that arithmetic, plus the agents-per-processor accounting behind Table VIII
(with the paper's agents-per-SSet = SSets rule, the population is SSets²
agents, so agents/processor = SSets²/workers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ScheduleError

__all__ = [
    "SSetDecomposition",
    "agents_per_processor",
    "owner_map_with_failures",
    "table8_rows",
]


@dataclass(frozen=True)
class SSetDecomposition:
    """Block distribution of ``n_ssets`` SSets over ``n_ranks - 1`` workers.

    Rank 0 is the Nature Agent and owns no SSets; worker ``r`` (1-based
    rank) owns a contiguous block, with the first ``n_ssets % workers``
    workers taking one extra.  All methods are pure arithmetic — any rank
    answers ownership questions without communication, as the paper's
    implementation does.

    More workers than SSets is legal: the surplus workers own empty blocks
    (``ssets_of_rank`` returns an empty array) and :meth:`owner_of` never
    names them, so they simply idle through the fitness steps while still
    participating in the collectives.
    """

    n_ssets: int
    n_ranks: int

    def __post_init__(self) -> None:
        if self.n_ranks < 2:
            raise ScheduleError(
                f"need >= 2 ranks (Nature Agent + 1 worker), got {self.n_ranks}"
            )
        if self.n_ssets < 1:
            raise ScheduleError(f"n_ssets must be >= 1, got {self.n_ssets}")

    @property
    def nature_rank(self) -> int:
        """The Nature Agent's rank (always 0, as in the paper's mapping)."""
        return 0

    @property
    def n_workers(self) -> int:
        """Ranks that host SSets."""
        return self.n_ranks - 1

    def _bounds(self, worker: int) -> tuple[int, int]:
        """Half-open SSet range of worker index ``worker`` (0-based)."""
        base, extra = divmod(self.n_ssets, self.n_workers)
        if worker < extra:
            lo = worker * (base + 1)
            return lo, lo + base + 1
        lo = extra * (base + 1) + (worker - extra) * base
        return lo, lo + base

    def ssets_of_rank(self, rank: int) -> np.ndarray:
        """SSet ids owned by ``rank`` (empty for the Nature rank)."""
        if not 0 <= rank < self.n_ranks:
            raise ScheduleError(f"rank {rank} out of range [0, {self.n_ranks})")
        if rank == self.nature_rank:
            return np.empty(0, dtype=np.intp)
        lo, hi = self._bounds(rank - 1)
        return np.arange(lo, hi, dtype=np.intp)

    def owner_of(self, sset: int) -> int:
        """The rank owning ``sset``."""
        if not 0 <= sset < self.n_ssets:
            raise ScheduleError(f"SSet {sset} out of range [0, {self.n_ssets})")
        base, extra = divmod(self.n_ssets, self.n_workers)
        head = extra * (base + 1)
        if sset < head:
            worker = sset // (base + 1)
        elif base == 0:
            raise ScheduleError("internal: SSet beyond all blocks")
        else:
            worker = extra + (sset - head) // base
        return worker + 1

    def validate(self) -> None:
        """Assert the blocks tile the SSet range and agree with :meth:`owner_of`.

        Used by tests; also the guard behind the zero-SSet-worker contract —
        a decomposition whose ``owner_of`` named a rank outside that rank's
        own block would strand a fitness request on a worker that will never
        answer it.
        """
        seen: list[int] = []
        for rank in range(1, self.n_ranks):
            block = self.ssets_of_rank(rank)
            seen.extend(block.tolist())
            for sset in block:
                owner = self.owner_of(int(sset))
                if owner != rank:
                    raise ScheduleError(
                        f"owner_of({int(sset)}) = {owner} disagrees with"
                        f" ssets_of_rank({rank})"
                    )
        if seen != list(range(self.n_ssets)):
            raise ScheduleError("worker blocks do not tile the SSet range")


def owner_map_with_failures(
    n_ssets: int, n_ranks: int, failed_ranks: tuple[int, ...] = ()
) -> np.ndarray:
    """Owner rank of every SSet after redistributing failed workers' blocks.

    Starts from the block decomposition and, for each failed worker in
    ascending rank order, deals its SSets round-robin over the surviving
    workers.  Pure arithmetic: every rank computes the same map from the
    same failure set without communication, which is what lets the
    fault-tolerant runner degrade without a recovery collective.
    """
    decomp = SSetDecomposition(n_ssets, n_ranks)
    owners = np.empty(n_ssets, dtype=np.intp)
    for rank in range(1, n_ranks):
        owners[decomp.ssets_of_rank(rank)] = rank
    failed = sorted({int(r) for r in failed_ranks})
    for rank in failed:
        if not 1 <= rank < n_ranks:
            raise ScheduleError(
                f"failed rank {rank} out of worker range [1, {n_ranks})"
                " (the Nature rank cannot be redistributed)"
            )
    live = [r for r in range(1, n_ranks) if r not in failed]
    if not live:
        raise ScheduleError("no surviving workers to own SSets")
    for dead in failed:
        for i, sset in enumerate(np.flatnonzero(owners == dead)):
            owners[sset] = live[i % len(live)]
    return owners


def agents_per_processor(n_ssets: int, n_procs: int, agents_per_sset: int | None = None) -> int:
    """Agents handled per processor (the quantity behind the paper's Table VIII).

    With the paper's §V-C rule the population is ``n_ssets`` agents per SSet
    (so ``n_ssets**2`` total); they spread over the processors evenly
    (busiest-processor count returned).  The published Table VIII is
    internally inconsistent (its 1,024-processor column exceeds its
    256-processor column); this function computes the self-consistent
    ``ceil(n_ssets * agents_per_sset / n_procs)``.
    """
    if n_procs < 1:
        raise ScheduleError(f"n_procs must be >= 1, got {n_procs}")
    if n_ssets < 1:
        raise ScheduleError(f"n_ssets must be >= 1, got {n_ssets}")
    a = n_ssets if agents_per_sset is None else agents_per_sset
    if a < 1:
        raise ScheduleError(f"agents_per_sset must be >= 1, got {a}")
    return -(-n_ssets * a // n_procs)


def table8_rows(
    sset_counts: tuple[int, ...] = (1024, 2048, 4096, 8192, 16384, 32768),
    proc_counts: tuple[int, ...] = (256, 512, 1024, 2048),
) -> list[tuple[int, list[int]]]:
    """Rows of (our, self-consistent) Table VIII: agents per processor."""
    return [
        (s, [agents_per_processor(s, p) for p in proc_counts]) for s in sset_counts
    ]
