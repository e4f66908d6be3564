"""Tests for SSet-to-rank decomposition and Table VIII accounting."""

import pytest

from repro.errors import ScheduleError
from repro.parallel.decomposition import (
    SSetDecomposition,
    agents_per_processor,
    table8_rows,
)


class TestBlocks:
    def test_nature_rank_owns_nothing(self):
        d = SSetDecomposition(n_ssets=10, n_ranks=4)
        assert d.ssets_of_rank(0).size == 0

    def test_blocks_tile_exactly(self):
        for s, p in [(10, 4), (16, 2), (7, 8), (1024, 17), (5, 6)]:
            SSetDecomposition(n_ssets=s, n_ranks=p).validate()

    def test_owner_inverse_of_blocks(self):
        d = SSetDecomposition(n_ssets=23, n_ranks=6)
        for rank in range(1, 6):
            for sset in d.ssets_of_rank(rank):
                assert d.owner_of(int(sset)) == rank

    def test_balanced_within_one(self):
        d = SSetDecomposition(n_ssets=23, n_ranks=6)
        sizes = [d.ssets_of_rank(r).size for r in range(1, 6)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_ssets(self):
        d = SSetDecomposition(n_ssets=3, n_ranks=10)
        d.validate()
        owned = [d.ssets_of_rank(r).size for r in range(1, 10)]
        assert sum(owned) == 3
        assert max(owned) == 1

    def test_surplus_workers_never_named_as_owners(self):
        # Regression: with 7 workers for 3 SSets, owner_of must only ever
        # name the first 3 workers — a fitness request routed to a
        # zero-block worker would never be answered.
        d = SSetDecomposition(n_ssets=3, n_ranks=8)
        d.validate()
        owners = {d.owner_of(s) for s in range(3)}
        assert owners == {1, 2, 3}
        for rank in range(4, 8):
            assert d.ssets_of_rank(rank).size == 0

    def test_owner_and_blocks_agree_over_shape_sweep(self):
        for n_ssets in range(1, 12):
            for n_ranks in range(2, 14):
                SSetDecomposition(n_ssets=n_ssets, n_ranks=n_ranks).validate()

    def test_validation(self):
        with pytest.raises(ScheduleError):
            SSetDecomposition(n_ssets=4, n_ranks=1)
        with pytest.raises(ScheduleError):
            SSetDecomposition(n_ssets=0, n_ranks=4)
        d = SSetDecomposition(n_ssets=4, n_ranks=3)
        with pytest.raises(ScheduleError):
            d.owner_of(4)
        with pytest.raises(ScheduleError):
            d.ssets_of_rank(3)


class TestAgentsPerProcessor:
    def test_paper_rule_squares(self):
        # agents/SSet = SSets, so 1,024 SSets over 1,024 procs = 1,024 each.
        assert agents_per_processor(1024, 1024) == 1024

    def test_table8_consistent_column_monotonicity(self):
        """Our self-consistent Table VIII decreases along each row.

        (The published table does not — its 1,024-processor column exceeds
        its 256-processor column, which is impossible.)
        """
        for s, vals in table8_rows():
            assert vals == sorted(vals, reverse=True)

    def test_table8_known_values(self):
        rows = dict(table8_rows())
        assert rows[1024] == [4096, 2048, 1024, 512]
        assert rows[32768] == [4194304, 2097152, 1048576, 524288]

    def test_matches_published_256_column(self):
        """The published 256-processor column is uncorrupted; match it."""
        published_256 = {1024: 4096, 2048: 16384, 4096: 65536,
                         8192: 262144, 16384: 1048576, 32768: 4194304}
        for s, expected in published_256.items():
            assert agents_per_processor(s, 256) == expected

    def test_explicit_agent_count(self):
        assert agents_per_processor(100, 10, agents_per_sset=5) == 50

    def test_ceiling_division(self):
        assert agents_per_processor(3, 2, agents_per_sset=3) == 5

    def test_validation(self):
        with pytest.raises(ScheduleError):
            agents_per_processor(0, 4)
        with pytest.raises(ScheduleError):
            agents_per_processor(4, 0)
        with pytest.raises(ScheduleError):
            agents_per_processor(4, 2, agents_per_sset=0)
