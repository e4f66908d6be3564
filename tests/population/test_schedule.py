"""Tests for the order an SSet plays its opponents in (paper §IV-A)."""

from repro.population.schedule import opponent_rows


class TestOpponents:
    def test_excludes_self_by_default(self):
        assert opponent_rows(5, [2], include_self=False).tolist() == [[0, 1, 3, 4]]

    def test_include_self(self):
        """Self-play comes last: the order the fitness evaluator plays (and
        every stored trajectory was sampled in), not position order."""
        assert opponent_rows(4, [1], include_self=True).tolist() == [[0, 2, 3, 1]]

    def test_opponents_per_sset(self):
        assert opponent_rows(8, [0, 5], include_self=False).shape == (2, 7)
        assert opponent_rows(8, [0, 5], include_self=True).shape == (2, 8)
