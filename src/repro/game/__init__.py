"""Game-dynamics substrate: payoffs, memory-*n* state spaces, strategies, engines.

This subpackage implements everything the paper's *game dynamics* layer needs:

* :mod:`repro.game.moves` — the Cooperate/Defect move alphabet.
* :mod:`repro.game.payoff` — Prisoner's Dilemma payoff matrices (Table I).
* :mod:`repro.game.states` — memory-*n* state spaces (Tables II, V).
* :mod:`repro.game.bitpack` — bit-packed pure-strategy storage.
* :mod:`repro.game.strategy` — pure and mixed strategies, named classics.
* :mod:`repro.game.strategy_space` — enumeration/counting (Tables III, IV).
* :mod:`repro.game.noise` — execution-error model (§III-E).
* :mod:`repro.game.engine` — scalar reference IPD engine.
* :mod:`repro.game.lookup_engine` — paper-faithful linear state-search engine.
* :mod:`repro.game.vector_engine` — vectorised many-pair tournament engine.
* :mod:`repro.game.batch_engine` — bit-packed batched kernel.
* :mod:`repro.game.markov` — exact expected payoffs via the joint-state chain.
* :mod:`repro.game.tournament` — Axelrod-style round-robin tournaments.
* :mod:`repro.game.zd` — Press-Dyson zero-determinant strategies.
"""

from repro.game.moves import Move, COOPERATE, DEFECT
from repro.game.payoff import PayoffMatrix, PAPER_PAYOFFS, AXELROD_PAYOFFS
from repro.game.states import StateSpace
from repro.game.strategy import Strategy, named_strategy, NAMED_STRATEGIES
from repro.game.strategy_space import StrategySpace
from repro.game.engine import play_ipd, GameResult
from repro.game.vector_engine import VectorEngine
from repro.game.batch_engine import BatchEngine, make_engine
from repro.game.tournament import Tournament, TournamentResult
from repro.game.zd import extortionate, generous, zd_strategy

__all__ = [
    "Move",
    "COOPERATE",
    "DEFECT",
    "PayoffMatrix",
    "PAPER_PAYOFFS",
    "AXELROD_PAYOFFS",
    "StateSpace",
    "Strategy",
    "named_strategy",
    "NAMED_STRATEGIES",
    "StrategySpace",
    "play_ipd",
    "GameResult",
    "VectorEngine",
    "BatchEngine",
    "make_engine",
    "Tournament",
    "TournamentResult",
    "extortionate",
    "generous",
    "zd_strategy",
]
