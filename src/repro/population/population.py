"""Population state: which strategy every SSet currently plays.

The paper's Nature Agent keeps one strategy id per SSet; after learning
spreads a successful strategy, many SSets share a table.  We therefore store
strategies *deduplicated*: SSets map to slots in a unique-strategy pool,
with reference counts.  That is both the paper's memory optimisation ("only
strategies currently held by other SSets at the given generation are kept in
memory") and the key to fast fitness evaluation — pair fitness only needs
computing per unique pair, not per SSet pair.

The pool has ``n_ssets + 1`` slots, allocated once: at most ``n_ssets``
strategies are live at rest, and :meth:`Population.set_strategy` interns
the new table before it releases the old one.  The free list hands out
the lowest slot first and a released slot next.  Every mutation of
the population bumps a version counter, and every slot carries an
allocation stamp, so downstream caches (the slot x slot pair memo in
:mod:`repro.population.fitness`) can invalidate precisely.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.config import SimulationConfig
from repro.errors import PopulationError, StrategyError
from repro.game.states import StateSpace
from repro.game.strategy import Strategy

__all__ = ["Population", "strategy_row_digest"]


def strategy_row_digest(row: np.ndarray) -> bytes:
    """Stable 16-byte identity for one strategy table row."""
    h = hashlib.blake2b(digest_size=16)
    h.update(row.dtype.str.encode())
    h.update(np.ascontiguousarray(row).tobytes())
    return h.digest()


class Population:
    """Deduplicated strategy assignment for all SSets.

    Parameters
    ----------
    config:
        Simulation configuration (memory depth, SSet count, strategy kind).
    matrix:
        Initial (n_ssets, n_states) strategy matrix; dtype uint8 for pure
        populations, float64 for mixed ones.

    Notes
    -----
    Use :meth:`Population.random` to draw the paper's random initial
    population from a seeded generator.
    """

    def __init__(self, config: SimulationConfig, matrix: np.ndarray) -> None:
        self.config = config
        self.space: StateSpace = config.space
        arr = np.asarray(matrix)
        if arr.shape != (config.n_ssets, self.space.n_states):
            raise PopulationError(
                f"matrix must be ({config.n_ssets}, {self.space.n_states}), got {arr.shape}"
            )
        if config.strategy_kind == "pure":
            if not np.issubdtype(arr.dtype, np.integer):
                raise PopulationError("pure populations need an integer 0/1 matrix")
            arr = arr.astype(np.uint8)
            if arr.size and arr.max() > 1:
                raise PopulationError("pure strategy entries must be 0 or 1")
            self._dtype = np.uint8
        else:
            arr = arr.astype(np.float64)
            if arr.size and (arr.min() < 0 or arr.max() > 1 or not np.all(np.isfinite(arr))):
                raise PopulationError("mixed strategy entries must lie in [0, 1]")
            self._dtype = np.float64

        n = config.n_ssets
        capacity = n + 1
        self._tables = np.zeros((capacity, self.space.n_states), dtype=self._dtype)
        self._counts = np.zeros(capacity, dtype=np.int64)
        self._stamps = np.zeros(capacity, dtype=np.int64)
        self._digests: list[bytes | None] = [None] * capacity
        self._slot_by_digest: dict[bytes, int] = {}
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self._assign = np.empty(n, dtype=np.intp)
        self._next_stamp = 1
        self.version = 0

        for sset in range(n):
            self._assign[sset] = self._intern(arr[sset])

    # -- construction ----------------------------------------------------------

    @classmethod
    def random(cls, config: SimulationConfig, rng: np.random.Generator) -> "Population":
        """Draw the random initial population of the paper's setup phase."""
        shape = (config.n_ssets, config.space.n_states)
        if config.strategy_kind == "pure":
            matrix = rng.integers(0, 2, size=shape, dtype=np.uint8)
        else:
            matrix = rng.random(shape)
        return cls(config, matrix)

    @classmethod
    def uniform(cls, config: SimulationConfig, strategy: Strategy) -> "Population":
        """A monomorphic population where every SSet plays ``strategy``."""
        if strategy.space != config.space:
            raise PopulationError(
                f"strategy memory {strategy.memory} does not match config memory {config.memory}"
            )
        table = np.asarray(strategy.table)
        if config.strategy_kind == "mixed":
            table = table.astype(np.float64)
        elif not strategy.is_pure:
            raise PopulationError("cannot place a mixed strategy in a pure population")
        matrix = np.repeat(table[None, :], config.n_ssets, axis=0)
        return cls(config, matrix)

    # -- slot management ----------------------------------------------------------

    def _intern(self, table: np.ndarray) -> int:
        """Return the slot holding ``table``, allocating and refcounting as needed."""
        digest = strategy_row_digest(np.ascontiguousarray(table, dtype=self._dtype))
        slot = self._slot_by_digest.get(digest)
        if slot is None:
            slot = self._free.pop()
            self._tables[slot] = table
            self._digests[slot] = digest
            self._slot_by_digest[digest] = slot
            self._stamps[slot] = self._next_stamp
            self._next_stamp += 1
        self._counts[slot] += 1
        return slot

    def _release(self, slot: int) -> None:
        self._counts[slot] -= 1
        if self._counts[slot] == 0:
            digest = self._digests[slot]
            assert digest is not None
            del self._slot_by_digest[digest]
            self._digests[slot] = None
            self._stamps[slot] = 0
            self._free.append(slot)

    # -- queries ---------------------------------------------------------------

    @property
    def n_ssets(self) -> int:
        """Number of SSets (constant through the run)."""
        return self.config.n_ssets

    @property
    def n_unique(self) -> int:
        """Number of distinct strategies currently in the population."""
        return len(self._slot_by_digest)

    @property
    def capacity(self) -> int:
        """Allocated unique-strategy slots: ``n_ssets + 1``, fixed for life."""
        return self._tables.shape[0]

    def slot_of(self, sset: int) -> int:
        """Unique-strategy slot currently assigned to ``sset``."""
        return int(self._assign[self._check_sset(sset)])

    def slot_stamps(self) -> np.ndarray:
        """Read-only view of every slot's allocation stamp (0 when free).

        A slot's stamp changes whenever the slot is reused for another
        strategy; the view follows the population as it changes.
        """
        view = self._stamps.view()
        view.flags.writeable = False
        return view

    def slot_table(self, slot: int) -> np.ndarray:
        """Read-only view of a slot's strategy table."""
        if self._counts[slot] <= 0:
            raise PopulationError(f"slot {slot} is free")
        view = self._tables[slot]
        view.flags.writeable = False
        return view

    def slot_count(self, slot: int) -> int:
        """How many SSets currently hold this slot's strategy."""
        return int(self._counts[slot])

    def live_slots(self) -> np.ndarray:
        """Sorted array of occupied slot indices."""
        return np.flatnonzero(self._counts > 0)

    def assignment(self) -> np.ndarray:
        """Copy of the SSet -> slot mapping."""
        return self._assign.copy()

    def counts(self) -> np.ndarray:
        """Read-only view of per-slot reference counts (0 for free slots).

        Like :meth:`slot_stamps`, the view follows the population as it changes.
        """
        view = self._counts.view()
        view.flags.writeable = False
        return view

    def table_of(self, sset: int) -> np.ndarray:
        """Read-only view of the strategy table played by ``sset``."""
        return self.slot_table(self.slot_of(sset))

    def strategy_of(self, sset: int) -> Strategy:
        """The :class:`~repro.game.strategy.Strategy` object for ``sset``."""
        return Strategy(self.space, self.table_of(sset).copy())

    def matrix(self) -> np.ndarray:
        """Materialise the full (n_ssets, n_states) strategy matrix (a copy)."""
        return self._tables[self._assign].copy()

    def tables_view(self) -> np.ndarray:
        """The raw slot-table array (capacity, n_states); rows of free slots are stale."""
        return self._tables

    def digest_of_slot(self, slot: int) -> bytes:
        """Digest identity of an occupied slot's table."""
        d = self._digests[slot]
        if d is None:
            raise PopulationError(f"slot {slot} is free")
        return d

    def _check_sset(self, sset: int) -> int:
        s = int(sset)
        if not 0 <= s < self.n_ssets:
            raise PopulationError(f"SSet index {sset} out of range [0, {self.n_ssets})")
        return s

    # -- mutation -----------------------------------------------------------------

    def adopt(self, learner: int, teacher: int) -> bool:
        """Make ``learner`` play ``teacher``'s strategy (the PC learning step).

        Returns True when the assignment actually changed.
        """
        learner = self._check_sset(learner)
        teacher = self._check_sset(teacher)
        src = self._assign[teacher]
        dst = self._assign[learner]
        if src == dst:
            return False
        self._counts[src] += 1
        self._release(int(dst))
        self._assign[learner] = src
        self.version += 1
        return True

    def set_strategy(self, sset: int, table: np.ndarray) -> int:
        """Assign a brand-new strategy table to ``sset`` (the mutation step).

        Returns the slot now holding the table (existing identical strategies
        are shared, not duplicated).
        """
        sset = self._check_sset(sset)
        arr = np.ascontiguousarray(table, dtype=self._dtype)
        if arr.shape != (self.space.n_states,):
            raise StrategyError(
                f"table must have {self.space.n_states} entries, got shape {arr.shape}"
            )
        if self._dtype == np.uint8:
            if arr.size and arr.max() > 1:
                raise StrategyError("pure strategy entries must be 0 or 1")
        elif arr.size and (arr.min() < 0 or arr.max() > 1 or not np.all(np.isfinite(arr))):
            raise StrategyError("mixed strategy entries must lie in [0, 1]")
        old = int(self._assign[sset])
        new = self._intern(arr)
        if new != old:
            self._release(old)
            self._assign[sset] = new
            self.version += 1
        else:
            # _intern bumped the refcount of the slot we already held.
            self._counts[new] -= 1
        return new

    def random_strategy_table(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a random strategy table of this population's kind (mutation draw).

        Pure populations draw each state's move as a fair coin.  Mixed
        populations follow ``config.mutation_distribution``: iid uniform
        probabilities, or the corner-concentrated Beta(0.1, 0.1) draw of
        the Nowak-Sigmund WSLS study.
        """
        if self._dtype == np.uint8:
            return rng.integers(0, 2, size=self.space.n_states, dtype=np.uint8)
        if self.config.mutation_distribution == "ushaped":
            return rng.beta(0.1, 0.1, self.space.n_states)
        return rng.random(self.space.n_states)

    # -- diagnostics ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert internal consistency (used by tests and property checks)."""
        counts = np.zeros_like(self._counts)
        for slot in self._assign:
            counts[slot] += 1
        if not np.array_equal(counts, self._counts):
            raise PopulationError("refcounts out of sync with assignment")
        for digest, slot in self._slot_by_digest.items():
            if self._digests[slot] != digest:
                raise PopulationError("digest map out of sync")
            if self._counts[slot] <= 0:
                raise PopulationError("digest map points at a free slot")
        live = set(self.live_slots().tolist())
        if live != set(self._slot_by_digest.values()):
            raise PopulationError("live slots and digest map disagree")
        free = set(self._free)
        if free & live or len(free) + len(live) != self.capacity:
            raise PopulationError("free list corrupt")

    def __repr__(self) -> str:
        return (
            f"Population(n_ssets={self.n_ssets}, memory={self.space.memory},"
            f" kind={self.config.strategy_kind}, unique={self.n_unique},"
            f" version={self.version})"
        )
