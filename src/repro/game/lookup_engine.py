"""Paper-faithful IPD engine with per-round linear state search.

The paper's pseudocode (§IV-C) keeps a ``current_view`` array — the agent's
perspective of the last *n* rounds — and each round calls ``find_state``,
which searches the globally defined ``states`` table for the row matching
the view.  §VI-B-1 attributes the steep runtime growth with memory steps to
exactly this search: "The increase in runtime actually comes from
identifying this state."

We implement that algorithm verbatim so that (a) results can be
cross-checked against the O(1)-per-round incremental engine in
:mod:`repro.game.engine`, and (b) the cost difference can be measured — the
ablation bench ``benchmarks/test_ablation_state_lookup.py`` regenerates the
paper's Fig. 4 runtime shape from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GameError, StateSpaceError
from repro.game.engine import DEFAULT_ROUNDS, GameResult
from repro.game.noise import NO_NOISE, NoiseModel, _segment_flips
from repro.game.payoff import PAPER_PAYOFFS, PayoffMatrix
from repro.game.states import StateSpace
from repro.game.strategy import Strategy
from repro.obs.tracer import get_tracer

__all__ = ["StatesTable", "build_states_table", "find_state", "play_ipd_lookup"]


@dataclass(frozen=True)
class StatesTable:
    """The explicit global ``states`` array of the paper.

    ``rows[s, k, 0]`` / ``rows[s, k, 1]`` are the agent's / opponent's moves
    ``k`` rounds ago in state ``s`` (``k = 0`` is the most recent round).
    This is the structure the paper must keep in every node's memory, whose
    footprint — ``4**n * n * 2`` entries — is what capped Blue Gene/L runs
    at memory-six (§VI-B-1).
    """

    space: StateSpace
    rows: np.ndarray

    @property
    def nbytes(self) -> int:
        """Memory footprint of the table (what the paper stores per node)."""
        return int(self.rows.nbytes)


def build_states_table(space: StateSpace) -> StatesTable:
    """Materialise all ``4**n`` state descriptions for linear searching."""
    if space.memory == 0:
        raise StateSpaceError("the lookup engine needs memory >= 1")
    rows = np.empty((space.n_states, space.memory, 2), dtype=np.uint8)
    for s in space.iter_states():
        for k, (my, opp) in enumerate(space.rounds(s)):
            rows[s, k, 0] = my
            rows[s, k, 1] = opp
    rows.setflags(write=False)
    return StatesTable(space=space, rows=rows)


def find_state(table: StatesTable, current_view: np.ndarray) -> int:
    """The paper's ``find_state``: scan the states table for the matching row.

    The scan is vectorised (one pass of element-compares over the whole
    table) but remains Θ(``4**n``) work per call — the cost structure the
    paper measures.  Returns the state index.
    """
    matches = (table.rows == current_view).all(axis=(1, 2))
    idx = int(np.argmax(matches))
    if not matches[idx]:
        raise StateSpaceError(f"current_view {current_view.tolist()} matches no state")
    return idx


def play_ipd_lookup(
    strat_a: Strategy,
    strat_b: Strategy,
    payoff: PayoffMatrix = PAPER_PAYOFFS,
    rounds: int = DEFAULT_ROUNDS,
    noise: NoiseModel = NO_NOISE,
    rng: np.random.Generator | None = None,
    states_table: StatesTable | None = None,
) -> GameResult:
    """Play one IPD exactly as the paper's pseudocode does.

    Maintains per-player ``current_view`` histories and re-identifies the
    state each round by linear search.  Produces games identical to
    :func:`repro.game.engine.play_ipd` (the tests assert this) at
    Θ(``rounds * 4**n``) cost instead of Θ(``rounds``).

    Parameters are as in :func:`repro.game.engine.play_ipd`; ``states_table``
    may be passed to reuse a prebuilt table across games, mirroring the
    paper's global initialisation step.
    """
    if strat_a.space != strat_b.space:
        raise GameError(f"strategies disagree on memory: {strat_a.space} vs {strat_b.space}")
    if rounds <= 0:
        raise GameError(f"rounds must be positive, got {rounds}")
    stochastic = not (strat_a.is_pure and strat_b.is_pure and noise.is_noiseless)
    if stochastic and rng is None:
        raise GameError("mixed strategies or noise require an rng")

    space = strat_a.space
    table = states_table if states_table is not None else build_states_table(space)
    if table.space != space:
        raise GameError("states_table was built for a different memory depth")
    tracer = get_tracer()
    trace_t0 = tracer.now() if tracer.enabled else 0.0

    pay = payoff.table
    n = space.memory
    # current_view[k] = (my move, opp move) k rounds ago; zero-filled like the paper.
    view_a = np.zeros((n, 2), dtype=np.uint8)
    view_b = np.zeros((n, 2), dtype=np.uint8)

    fitness_a = 0.0
    fitness_b = 0.0
    # The game's execution errors, all drawn before its first mixed move.
    flips = [(0, 0)] * rounds if noise.is_noiseless else next(
        _segment_flips([rng], [0, 1], rounds, noise.rate, rounds)).reshape(rounds, 2).tolist()
    for r in range(rounds):
        state_a = find_state(table, view_a)
        state_b = find_state(table, view_b)
        if strat_a.is_pure:
            move_a = int(strat_a.table[state_a])
        else:
            move_a = int(rng.random() < strat_a.table[state_a])  # type: ignore[union-attr]
        if strat_b.is_pure:
            move_b = int(strat_b.table[state_b])
        else:
            move_b = int(rng.random() < strat_b.table[state_b])  # type: ignore[union-attr]
        move_a ^= flips[r][0]
        move_b ^= flips[r][1]

        fitness_a += pay[move_a, move_b]
        fitness_b += pay[move_b, move_a]

        # Shift histories one round into the past and record the new round.
        view_a[1:] = view_a[:-1]
        view_a[0, 0], view_a[0, 1] = move_a, move_b
        view_b[1:] = view_b[:-1]
        view_b[0, 0], view_b[0, 1] = move_b, move_a

    if tracer.enabled:
        tracer.complete(
            "play_ipd_lookup", cat="game", ts=trace_t0, dur=tracer.now() - trace_t0,
            args={"rounds": rounds, "memory": space.memory},
        )
    return GameResult(fitness_a=fitness_a, fitness_b=fitness_b, rounds=rounds)
