"""Tests for Prisoner's Dilemma payoff matrices (paper Table I)."""

import numpy as np
import pytest

from repro.errors import PayoffError
from repro.game.payoff import AXELROD_PAYOFFS, DONATION_GAME, PAPER_PAYOFFS, PayoffMatrix


class TestPaperPayoffs:
    def test_frstp_values(self):
        # f[R,S,T,P] = [3,0,4,1] (paper §III-A / §V-C).
        assert PAPER_PAYOFFS.as_fRSTP() == (3.0, 0.0, 4.0, 1.0)

    def test_table_layout(self):
        # table[my, opp]: CC=R, CD=S, DC=T, DD=P.
        assert PAPER_PAYOFFS.payoff(0, 0) == 3
        assert PAPER_PAYOFFS.payoff(0, 1) == 0
        assert PAPER_PAYOFFS.payoff(1, 0) == 4
        assert PAPER_PAYOFFS.payoff(1, 1) == 1

    def test_iterated_condition_holds(self):
        # 2R = 6 > T + S = 4: mutual cooperation beats alternation.
        r, s, t, p = PAPER_PAYOFFS.as_fRSTP()
        assert 2 * r > t + s
        PayoffMatrix(reward=r, sucker=s, temptation=t, punishment=p, require_iterated=True)

    def test_table_is_readonly(self):
        with pytest.raises(ValueError):
            PAPER_PAYOFFS.table[0, 0] = 99


class TestValidation:
    def test_rejects_non_dilemma_order(self):
        with pytest.raises(PayoffError, match="T > R > P > S"):
            PayoffMatrix(reward=4, sucker=0, temptation=3, punishment=1)

    def test_rejects_equalities(self):
        with pytest.raises(PayoffError):
            PayoffMatrix(reward=3, sucker=0, temptation=3, punishment=1)

    def test_rejects_nan(self):
        with pytest.raises(PayoffError, match="finite"):
            PayoffMatrix(reward=float("nan"), sucker=0, temptation=4, punishment=1)

    def test_allows_non_dilemma_when_asked(self):
        m = PayoffMatrix(reward=4, sucker=0, temptation=3, punishment=1, require_dilemma=False)
        assert m.payoff(0, 0) == 4

    def test_iterated_condition_enforced_on_request(self):
        # T + S = 6 == 2R: violates the strict inequality.
        with pytest.raises(PayoffError, match="2R"):
            PayoffMatrix(reward=3, sucker=1, temptation=5, punishment=2, require_iterated=True)


class TestVariants:
    def test_axelrod_values(self):
        assert AXELROD_PAYOFFS.as_fRSTP() == (3.0, 0.0, 5.0, 1.0)

    def test_donation_game(self):
        m = DONATION_GAME(benefit=2.0, cost=1.0)
        assert m.as_fRSTP() == (1.0, -1.0, 2.0, 0.0)

    def test_donation_game_rejects_bad_ratio(self):
        with pytest.raises(PayoffError):
            DONATION_GAME(benefit=1.0, cost=2.0)

    def test_render_mentions_all_labels(self):
        text = PAPER_PAYOFFS.render()
        for token in ("R=3", "S=0", "T=4", "P=1"):
            assert token in text

    def test_table_dtype(self):
        assert PAPER_PAYOFFS.table.dtype == np.float64
