"""Execution errors in game play (paper §III-E).

An error flips a player's intended move with probability ``rate``, turning a
planned cooperation into defection or vice versa.  The paper motivates
memory and the WSLS strategy by exactly this perturbation: a single slip is
fatal to TFT (it locks two TFT players into mutual defection or alternating
retaliation) while WSLS recovers.

Every engine draws a batch's errors with :func:`_segment_flips`, as the gaps
between flips of a Bernoulli process over its moves: one uniform per flip,
not per move, all drawn before any mixed move's uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigError

__all__ = ["NoiseModel", "NO_NOISE"]


@dataclass(frozen=True)
class NoiseModel:
    """Independent per-move execution errors at a fixed rate.

    Parameters
    ----------
    rate:
        Probability in ``[0, 1]`` that an intended move is flipped.
    """

    rate: float = 0.0

    def __post_init__(self) -> None:
        r = float(self.rate)
        if not (0.0 <= r <= 1.0) or not np.isfinite(r):
            raise ConfigError(f"noise rate must lie in [0, 1], got {self.rate}")
        object.__setattr__(self, "rate", r)

    @property
    def is_noiseless(self) -> bool:
        """True when errors never occur (deterministic pure play)."""
        return self.rate == 0.0


#: Shared noiseless model.
NO_NOISE = NoiseModel(0.0)

#: Most doubles drawn by one ``rng.random`` call of a round loop.
_DRAW_DOUBLES = 1 << 13


def _segment_flips(rngs, bounds, rounds: int, rate: float, block: int) -> Iterator[np.ndarray]:
    """Each ``block`` of rounds' execution errors: a ``(rounds, 2, games)`` uint8 flip mask.

    Segment ``s`` holds the ``k`` games ``bounds[s]:bounds[s + 1]`` and draws
    from ``rngs[s]`` alone.  Its ``n = 2 * rounds * k`` moves are positions
    ordered ``(round, seat, game)``, each flipping with probability ``rate``,
    drawn gap by gap: a uniform ``u = 1 - rng.random()`` skips
    ``floor(log u / log1p(-rate))`` positions and flips the next (rate 1
    flips every position and draws nothing).  Uniforms come ``chunk`` at a
    time, a size set by ``n`` and ``rate`` alone, until a flip lands at or
    past the last position, so a generator ends in the same state however
    the rounds are blocked.  Blocks are drawn lazily, at most
    ``_DRAW_DOUBLES`` uniforms (or one chunk) a step, each block carrying
    the flips it drew past its end into the next.
    """
    k, lo = np.diff(bounds), np.asarray(bounds[:-1])
    n = 2 * rounds * k
    want = (n * rate + 4 * np.sqrt(n * rate)).astype(int) + 8  # 4 sigma past the mean
    chunk = np.minimum(want, np.minimum(n, _DRAW_DOUBLES))
    last = np.full(k.size, -1)  # each segment's last flip drawn
    held, owner = np.empty(0, dtype=int), np.empty(0, dtype=int)  # drawn past the block
    for r0 in range(0, rounds, block):
        r1 = min(r0 + block, rounds)
        out = np.zeros((r1 - r0, 2, bounds[-1]), dtype=np.uint8)
        pos, own, carry = held, owner, []
        while True:
            now = pos < (2 * k * r1)[own]
            seg, at = own[now], pos[now] - (2 * k * r0)[own[now]]
            # Position ``at = seat_round * k + game`` is cell ``seat_round * games + lo + game``.
            out.reshape(-1)[at + at // k[seg] * (bounds[-1] - k[seg]) + lo[seg]] = 1
            keep = ~now & (pos < n[own])  # a flip past the last position never lands
            carry.append((pos[keep], own[keep]))
            if not (short := np.flatnonzero(last < 2 * k * r1 - 1)).size:
                break
            short = short[: max(1, np.searchsorted(chunk[short].cumsum(), _DRAW_DOUBLES, "right"))]
            gaps = np.zeros(chunk[short].sum())  # rate 1: every position flips
            if rate < 1:
                u = np.concatenate([rngs[s].random(chunk[s]) for s in short])
                gaps = np.log(1.0 - u) / np.log1p(-rate)
            # One running sum over every drawn chunk, restarted at each chunk.
            pos = np.cumsum(np.minimum(np.floor(gaps), n.max()).astype(int) + 1)
            ends = np.cumsum(chunk[short])
            pos -= np.repeat(np.concatenate(([0], pos[ends[:-1] - 1])) - last[short], chunk[short])
            last[short] = pos[ends - 1]
            own = np.repeat(short, chunk[short])
        held, owner = (np.concatenate(part) for part in zip(*carry))
        yield out
