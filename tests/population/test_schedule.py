"""Tests for the agent-to-opponent schedule (paper §IV-A)."""

import pytest

from repro.errors import ScheduleError
from repro.population.schedule import OpponentSchedule


class TestOpponents:
    def test_excludes_self_by_default(self):
        sched = OpponentSchedule(n_ssets=5, agents_per_sset=2)
        assert sched.opponents_of(2).tolist() == [0, 1, 3, 4]

    def test_include_self(self):
        """Self-play comes last: the order the fitness evaluator plays (and
        every stored trajectory was sampled in), not position order."""
        sched = OpponentSchedule(n_ssets=4, agents_per_sset=2, include_self=True)
        assert sched.opponents_of(1).tolist() == [0, 2, 3, 1]
        sched.validate_cover(1)
        for agent in range(2):
            for opp in sched.agent_opponents(1, agent):
                assert sched.agent_for_opponent(1, int(opp)) == agent

    def test_opponents_per_sset(self):
        assert OpponentSchedule(8, 2).opponents_per_sset == 7
        assert OpponentSchedule(8, 2, include_self=True).opponents_per_sset == 8


class TestChunking:
    def test_paper_default_one_game_per_agent(self):
        """§V-C: agents per SSet = SSets, so each agent handles <= 1 game."""
        sched = OpponentSchedule(n_ssets=16, agents_per_sset=16)
        games = [sched.games_of_agent(a) for a in range(16)]
        assert max(games) == 1
        assert sum(games) == 15  # one agent idles (no self-play)

    def test_balanced_chunks(self):
        sched = OpponentSchedule(n_ssets=11, agents_per_sset=3)
        games = [sched.games_of_agent(a) for a in range(3)]
        assert sum(games) == 10
        assert max(games) - min(games) <= 1

    def test_cover_exactly_once(self):
        for s, a in [(7, 3), (16, 16), (9, 2), (5, 10)]:
            sched = OpponentSchedule(n_ssets=s, agents_per_sset=a)
            for sset in range(s):
                sched.validate_cover(sset)

    def test_agent_for_opponent_inverse(self):
        sched = OpponentSchedule(n_ssets=9, agents_per_sset=4)
        for sset in range(9):
            for agent in range(4):
                for opp in sched.agent_opponents(sset, agent):
                    assert sched.agent_for_opponent(sset, int(opp)) == agent

    def test_self_opponent_rejected(self):
        sched = OpponentSchedule(n_ssets=4, agents_per_sset=2)
        with pytest.raises(ScheduleError):
            sched.agent_for_opponent(1, 1)

    def test_max_games_per_agent(self):
        # s/a rounded up, the paper's per-agent share.
        assert OpponentSchedule(1024, 1024).max_games_per_agent == 1
        assert OpponentSchedule(10, 3).max_games_per_agent == 3

    def test_totals(self):
        sched = OpponentSchedule(6, 2)
        assert sched.total_games_per_sset == 5
        assert sched.total_games_per_generation == 30


class TestValidation:
    def test_bad_counts(self):
        with pytest.raises(ScheduleError):
            OpponentSchedule(0, 1)
        with pytest.raises(ScheduleError):
            OpponentSchedule(4, 0)

    def test_bad_indices(self):
        sched = OpponentSchedule(4, 2)
        with pytest.raises(ScheduleError):
            sched.opponents_of(4)
        with pytest.raises(ScheduleError):
            sched.agent_opponents(0, 2)
