"""Tests for strategy-space enumeration and counting (Tables III, IV)."""

import math

import pytest

from repro.errors import StrategyError
from repro.game.strategy_space import PAPER_TABLE4, StrategySpace


class TestCounting:
    @pytest.mark.parametrize(
        "memory,expected",
        [(1, 16), (2, 65536), (3, 1 << 64), (4, 1 << 256), (5, 1 << 1024), (6, 1 << 4096)],
    )
    def test_n_pure_exact(self, memory, expected):
        assert StrategySpace(memory).n_pure == expected

    def test_paper_table4_values_match_except_memory5(self):
        """Table IV's printed values agree with 2**(4**n) except memory-5.

        The paper prints 2^2048 for memory-five, but 4**5 = 1024 states
        gives 2^1024 strategies; its own memory-4 and memory-6 rows follow
        the 2^(4^n) rule, so 2^2048 is a typo we do not reproduce.
        """
        assert PAPER_TABLE4[6] == "2^4096"
        assert StrategySpace(6).describe_n_pure() == "2^4096"
        assert StrategySpace(5).describe_n_pure() == "2^1024"
        assert PAPER_TABLE4[5] == "2^2048"  # the paper's typo, kept as printed

    def test_describe_small_and_scientific(self):
        assert StrategySpace(1).describe_n_pure() == "16"
        assert StrategySpace(2).describe_n_pure() == "65536"
        assert StrategySpace(3).describe_n_pure() == "1.84*10^19"
        assert StrategySpace(4).describe_n_pure() == "1.16*10^77"

    def test_log10_memory6(self):
        # 2^4096 ~ 10^1233.
        assert StrategySpace(6).log10_n_pure == pytest.approx(4096 * math.log10(2))


class TestTable3:
    def test_sixteen_rows_numbered(self):
        rows = StrategySpace(1).table3_rows()
        assert [r[0] for r in rows] == list(range(1, 17))

    def test_first_rows_match_paper(self):
        rows = StrategySpace(1).table3_rows()
        assert rows[0][1:] == ("C", "C", "C", "C")
        assert rows[1][1:] == ("D", "C", "C", "C")
        assert rows[4][1:] == ("C", "C", "C", "D")
        assert rows[5][1:] == ("D", "D", "C", "C")
        assert rows[10][1:] == ("C", "C", "D", "D")
        assert rows[15][1:] == ("D", "D", "D", "D")

    def test_all_strategies_present_once(self):
        rows = StrategySpace(1).table3_rows()
        patterns = {r[1:] for r in rows}
        assert len(patterns) == 16

    def test_popcount_ordering(self):
        rows = StrategySpace(1).table3_rows()
        popcounts = [sum(1 for c in r[1:] if c == "D") for r in rows]
        assert popcounts == sorted(popcounts)

    def test_table3_needs_memory_one(self):
        with pytest.raises(StrategyError):
            StrategySpace(2).table3_rows()

    def test_table4_rows(self):
        rows = StrategySpace.table4_rows()
        assert rows[0] == (1, "16")
        assert rows[-1] == (6, "2^4096")
