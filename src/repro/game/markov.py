"""Exact expected payoffs for (possibly mixed, possibly noisy) IPD pairs.

A pair of memory-*n* strategies induces a Markov chain on the ``4**n`` game
states: from state ``s`` player A defects with probability ``tableA[s]`` and
player B with probability ``tableB[opponent_view(s)]``, and the four
possible joint moves each lead to a successor state.  Propagating the state
distribution for the fixed 200 rounds gives each player's *expected* total
payoff exactly — no sampling noise.

This is the classical analytical treatment (Nowak & Sigmund's memory-one
studies work in exactly this chain); here it is vectorised over G pairs at
once and doubles as the ``fitness_mode="expected"`` evaluator of the
population dynamics.  Execution errors fold in exactly: a move intended
with defection probability p is executed as defection with probability
``p(1-ε) + (1-p)ε``.

Cost is Θ(rounds x G x 4**n), a round being a reshape and three array
additions (no scatter); it is the right tool for memory ≤ 3 and batches of
a few thousand pairs, while sampled play covers the rest.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GameError
from repro.game.engine import DEFAULT_ROUNDS
from repro.game.noise import NO_NOISE, NoiseModel
from repro.game.payoff import PAPER_PAYOFFS, PayoffMatrix
from repro.game.states import StateSpace
from repro.game.vector_engine import as_table_matrix

__all__ = ["expected_pair_payoffs", "effective_defect_probs", "stationary_cooperation"]


def effective_defect_probs(table: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Fold execution errors into per-state defection probabilities."""
    probs = np.asarray(table, dtype=np.float64)
    if noise.is_noiseless:
        return probs
    eps = noise.rate
    return probs * (1.0 - 2.0 * eps) + eps


def _push(flux: np.ndarray) -> np.ndarray:
    """Next round's state distribution from the ``(..., S, 4)`` joint-move flux.

    ``((s << 2) | m) & mask`` drops the top two bits of ``s``, so the flux
    viewed as ``(..., prefix, S/4, m)`` sums over its four prefixes, left to
    right: the order a scatter over increasing ``s`` adds them in.
    """
    *lead, n_states, _ = flux.shape
    f = flux.reshape(*lead, 4, n_states // 4, 4)
    summed = f[..., 0, :, :] + f[..., 1, :, :] + f[..., 2, :, :] + f[..., 3, :, :]
    return summed.reshape(*lead, n_states)


def expected_pair_payoffs(
    space: StateSpace,
    tables: np.ndarray,
    ia: np.ndarray,
    ib: np.ndarray,
    payoff: PayoffMatrix = PAPER_PAYOFFS,
    rounds: int = DEFAULT_ROUNDS,
    noise: NoiseModel = NO_NOISE,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected total payoffs for each requested pair over ``rounds`` rounds.

    Parameters mirror :meth:`repro.game.vector_engine.VectorEngine.play`;
    the strategy matrix may be pure (then this returns the deterministic
    outcome exactly) or mixed.

    Returns
    -------
    (expected_a, expected_b):
        Float arrays, one entry per pair.
    """
    mat = as_table_matrix(space, tables).astype(np.float64, copy=False)
    mat = effective_defect_probs(mat, noise)
    ia = np.asarray(ia, dtype=np.intp)
    ib = np.asarray(ib, dtype=np.intp)
    if ia.shape != ib.shape or ia.ndim != 1:
        raise GameError(f"ia/ib must be equal-length 1-D arrays, got {ia.shape}, {ib.shape}")
    if rounds <= 0:
        raise GameError(f"rounds must be positive, got {rounds}")
    n_pairs = ia.size
    n_states = space.n_states
    if n_pairs == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy()

    opp_view = space.opponent_view_array(np.arange(n_states))
    # Per-pair, per-state defection probabilities for each player.
    p_a = mat[ia]                      # (G, n_states), A's view indexes directly
    p_b = mat[ib][:, opp_view]         # B sees the mirrored state

    # Joint-move probabilities per state: order (CC, CD, DC, DD) as
    # (A's move << 1 | B's move).
    q_cc = (1 - p_a) * (1 - p_b)
    q_cd = (1 - p_a) * p_b
    q_dc = p_a * (1 - p_b)
    q_dd = p_a * p_b
    move_probs = np.stack([q_cc, q_cd, q_dc, q_dd], axis=2)  # (G, n_states, 4)

    pay = payoff.table
    pay_a = np.array([pay[0, 0], pay[0, 1], pay[1, 0], pay[1, 1]])
    pay_b = np.array([pay[0, 0], pay[1, 0], pay[0, 1], pay[1, 1]])
    # Expected per-round payoff conditional on being in each state: (G, n_states)
    r_a = move_probs @ pay_a
    r_b = move_probs @ pay_b

    dist = np.zeros((n_pairs, n_states), dtype=np.float64)
    dist[:, space.initial_state] = 1.0
    exp_a = np.zeros(n_pairs, dtype=np.float64)
    exp_b = np.zeros(n_pairs, dtype=np.float64)

    for _ in range(rounds):
        exp_a += np.einsum("gs,gs->g", dist, r_a)
        exp_b += np.einsum("gs,gs->g", dist, r_b)
        dist = _push(dist[:, :, None] * move_probs)

    return exp_a, exp_b


def stationary_cooperation(
    space: StateSpace,
    table_a: np.ndarray,
    table_b: np.ndarray,
    rounds: int = DEFAULT_ROUNDS,
    noise: NoiseModel = NO_NOISE,
) -> float:
    """Average cooperation probability of player A over the game's rounds.

    Useful for checking classic results (e.g. two WSLS players under noise
    re-establish cooperation, two TFT players do not).
    """
    mat = np.vstack([np.asarray(table_a, dtype=np.float64), np.asarray(table_b, dtype=np.float64)])
    mat = effective_defect_probs(as_table_matrix(space, mat).astype(np.float64), noise)
    opp_view = space.opponent_view_array(np.arange(space.n_states))
    p_a = mat[0]
    p_b = mat[1][opp_view]

    q = np.stack([(1 - p_a) * (1 - p_b), (1 - p_a) * p_b, p_a * (1 - p_b), p_a * p_b], axis=1)

    dist = np.zeros(space.n_states)
    dist[space.initial_state] = 1.0
    coop = 0.0
    for _ in range(rounds):
        coop += float(dist @ (1.0 - p_a))
        dist = _push(dist[:, None] * q)
    return coop / rounds
