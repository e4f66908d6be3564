"""Strategy-space counting (paper §III-D, Tables III and IV).

For memory-*n* there are ``4**n`` states and ``2**(4**n)`` pure strategies —
16 for memory-one, 65,536 for memory-two, and astronomically many beyond
(the paper quotes 1.84e19, 1.16e77, 2^2048 and 2^4096 for memory three
through six).  This module counts and describes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import StrategyError
from repro.game.states import StateSpace

__all__ = ["StrategySpace", "PAPER_TABLE4"]

#: The paper's Table IV, as printed: memory steps -> number of pure strategies.
PAPER_TABLE4 = {
    1: "16",
    2: "65536",
    3: "1.84*10^19",
    4: "1.16*10^77",
    5: "2^2048",
    6: "2^4096",
}


@dataclass(frozen=True)
class StrategySpace:
    """The space of strategies for a given memory depth.

    Examples
    --------
    >>> sp = StrategySpace(2)
    >>> sp.n_states, sp.n_pure
    (16, 65536)
    >>> StrategySpace(6).log10_n_pure  # doctest: +ELLIPSIS
    1233.0...
    """

    memory: int

    @property
    def space(self) -> StateSpace:
        """The underlying state space."""
        return StateSpace(self.memory)

    @property
    def n_states(self) -> int:
        """Number of game states, ``4**memory``."""
        return self.space.n_states

    @property
    def n_pure(self) -> int:
        """Exact count of pure strategies, ``2**n_states`` (arbitrary precision)."""
        return 1 << self.n_states

    @property
    def log10_n_pure(self) -> float:
        """``log10`` of the pure-strategy count (handles 2^4096 comfortably)."""
        return self.n_states * math.log10(2.0)

    def describe_n_pure(self) -> str:
        """Human-readable size in the style of the paper's Table IV.

        Small counts print exactly; mid-range counts print as mantissa x
        10^exp; huge counts print as a power of two.
        """
        if self.n_states <= 16:
            return str(self.n_pure)
        if self.log10_n_pure < 100:
            exp = int(self.log10_n_pure)
            mantissa = 10 ** (self.log10_n_pure - exp)
            return f"{mantissa:.2f}*10^{exp}"
        return f"2^{self.n_states}"

    # -- paper tables --------------------------------------------------------

    def table3_rows(self) -> list[tuple[int, str, str, str, str]]:
        """The paper's Table III: all 16 memory-one strategies.

        Rows are ordered by number of defecting states, then by the
        lexicographic order of the defecting-state combination — which
        matches the paper everywhere except its rows 13 and 14, which the
        paper prints transposed relative to this rule (a typesetting slip;
        the set of strategies is identical).
        """
        if self.memory != 1:
            raise StrategyError("Table III is defined for memory-one")
        strategies = sorted(
            range(16),
            key=lambda sid: (
                bin(sid).count("1"),
                tuple(s for s in range(4) if (sid >> s) & 1),
            ),
        )
        rows = []
        for rank, sid in enumerate(strategies, start=1):
            letters = [("D" if (sid >> s) & 1 else "C") for s in range(4)]
            rows.append((rank, *letters))
        return rows

    @staticmethod
    def table4_rows() -> list[tuple[int, str]]:
        """The paper's Table IV: (memory steps, number of pure strategies)."""
        return [(m, StrategySpace(m).describe_n_pure()) for m in range(1, 7)]

    def __repr__(self) -> str:
        return f"StrategySpace(memory={self.memory}, n_pure={self.describe_n_pure()})"
