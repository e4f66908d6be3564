"""Tests for the wire-protocol payloads."""

import pickle

import numpy as np
import pytest

from repro.parallel.protocol import FTHeader, WorkerReport
from repro.population.nature import AdoptionDecision, MutationSelection


class TestPayloadsPickleCleanly:
    """Payloads cross the virtual wire via the object channel."""

    def test_roundtrip(self):
        header = FTHeader(generation=1, failed_ranks=(2,))
        report = WorkerReport(rank=2, generation=1)
        decision = AdoptionDecision(
            teacher=0, learner=1, pi_teacher=5.0, pi_learner=2.0, probability=0.9,
            adopted=True,
        )
        for obj in (header, report, decision):
            assert pickle.loads(pickle.dumps(obj)) == obj
        for table in (np.array([0, 1, 1, 0], dtype=np.uint8), np.array([0.25, 1.0, 0.0])):
            back = pickle.loads(pickle.dumps(MutationSelection(sset=3, table=table)))
            assert back.sset == 3
            assert back.table.dtype == table.dtype
            assert np.array_equal(back.table, table)

    @pytest.mark.parametrize("protocol", [pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
    def test_a_mutation_pickles_to_its_table_bytes_plus_a_constant(self, protocol):
        """The table travels as raw bytes, not as an ndarray's pickle: the
        overhead is the same for memory 1, 2 and 3 and under 100 bytes."""
        overheads = set()
        for n_states in (4, 16, 64):
            table = np.zeros(n_states, dtype=np.uint8)
            size = len(pickle.dumps(MutationSelection(sset=7, table=table), protocol=protocol))
            overheads.add(size - table.nbytes)
        assert len(overheads) == 1
        assert overheads.pop() < 100
