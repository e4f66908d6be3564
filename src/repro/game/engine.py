"""Scalar reference engine for the two-player Iterated Prisoner's Dilemma.

This is the readable, obviously-correct implementation of the paper's
``IPD(myStrat, oppStrat)`` pseudocode (§IV-C), with one algorithmic upgrade:
instead of re-identifying the current state each round by searching the
global ``states`` table (the paper's bottleneck — see
:mod:`repro.game.lookup_engine` for that faithful variant), the state index
is carried incrementally in O(1) per round.  Both produce identical games;
the test suite cross-checks them.

The production path for whole tournaments is the vectorised
:mod:`repro.game.vector_engine`; this module is the ground truth it is
validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GameError
from repro.game.noise import NO_NOISE, NoiseModel, _segment_flips
from repro.game.payoff import PAPER_PAYOFFS, PayoffMatrix
from repro.game.strategy import Strategy
from repro.obs.tracer import get_tracer

__all__ = ["GameResult", "play_ipd", "DEFAULT_ROUNDS"]

#: Rounds per generation used throughout the paper (§V-C, after [34]).
DEFAULT_ROUNDS = 200


@dataclass(frozen=True)
class GameResult:
    """Outcome of one Iterated Prisoner's Dilemma between two strategies.

    Attributes
    ----------
    fitness_a, fitness_b:
        Total payoff accumulated by each player over all rounds.
    rounds:
        Number of rounds played.
    moves_a, moves_b:
        Per-round moves (only recorded when requested; otherwise empty).
    """

    fitness_a: float
    fitness_b: float
    rounds: int
    moves_a: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint8))
    moves_b: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint8))



def play_ipd(
    strat_a: Strategy,
    strat_b: Strategy,
    payoff: PayoffMatrix = PAPER_PAYOFFS,
    rounds: int = DEFAULT_ROUNDS,
    noise: NoiseModel = NO_NOISE,
    rng: np.random.Generator | None = None,
    record_moves: bool = False,
) -> GameResult:
    """Play one Iterated Prisoner's Dilemma between two strategies.

    Parameters
    ----------
    strat_a, strat_b:
        The two strategies.  They must share a memory depth (the paper's
        populations are homogeneous in memory).
    payoff:
        Payoff matrix; defaults to the paper's f[R,S,T,P] = [3,0,4,1].
    rounds:
        Rounds per game; the paper fixes 200.
    noise:
        Execution-error model applied independently to both players' moves.
    rng:
        Random generator, required when either strategy is mixed or noise is
        active.  Deterministic pure noiseless games need no randomness.
    record_moves:
        When true, the per-round move sequences are kept on the result.

    Returns
    -------
    GameResult

    Notes
    -----
    Both players start from the all-cooperate fictitious history (state 0),
    matching the paper's zero-initialised ``current_view``.  Moves are
    simultaneous within a round: both players read their state, choose,
    then both histories advance.
    """
    if strat_a.space != strat_b.space:
        raise GameError(
            f"strategies disagree on memory: {strat_a.space} vs {strat_b.space}"
        )
    if rounds <= 0:
        raise GameError(f"rounds must be positive, got {rounds}")
    stochastic = not (strat_a.is_pure and strat_b.is_pure and noise.is_noiseless)
    if stochastic and rng is None:
        raise GameError("mixed strategies or noise require an rng")

    tracer = get_tracer()
    trace_t0 = tracer.now() if tracer.enabled else 0.0
    space = strat_a.space
    table_a = strat_a.table
    table_b = strat_b.table
    pay = payoff.table
    state_a = space.initial_state
    state_b = space.initial_state

    fitness_a = 0.0
    fitness_b = 0.0
    rec_a = np.empty(rounds, dtype=np.uint8) if record_moves else None
    rec_b = np.empty(rounds, dtype=np.uint8) if record_moves else None

    # The game's execution errors, all drawn before its first mixed move.
    flips = [(0, 0)] * rounds if noise.is_noiseless else next(
        _segment_flips([rng], [0, 1], rounds, noise.rate, rounds)).reshape(rounds, 2).tolist()
    for r in range(rounds):
        if strat_a.is_pure:
            move_a = int(table_a[state_a])
        else:
            move_a = int(rng.random() < table_a[state_a])  # type: ignore[union-attr]
        if strat_b.is_pure:
            move_b = int(table_b[state_b])
        else:
            move_b = int(rng.random() < table_b[state_b])  # type: ignore[union-attr]
        move_a ^= flips[r][0]
        move_b ^= flips[r][1]

        fitness_a += pay[move_a, move_b]
        fitness_b += pay[move_b, move_a]
        if record_moves:
            rec_a[r] = move_a  # type: ignore[index]
            rec_b[r] = move_b  # type: ignore[index]

        state_a = space.push(state_a, move_a, move_b)
        state_b = space.push(state_b, move_b, move_a)

    if tracer.enabled:
        tracer.complete(
            "play_ipd", cat="game", ts=trace_t0, dur=tracer.now() - trace_t0,
            args={"rounds": rounds},
        )
    return GameResult(
        fitness_a=fitness_a,
        fitness_b=fitness_b,
        rounds=rounds,
        moves_a=rec_a if record_moves else np.empty(0, dtype=np.uint8),
        moves_b=rec_b if record_moves else np.empty(0, dtype=np.uint8),
    )
