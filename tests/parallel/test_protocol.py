"""Tests for the wire-protocol payloads."""

import pickle

import numpy as np

from repro.parallel.protocol import FTHeader, MutationUpdate, PCOutcome, WorkerReport


class TestPayloadsPickleCleanly:
    """Payloads cross the virtual wire via the object channel."""

    def test_roundtrip(self):
        header = FTHeader(generation=1, failed_ranks=(2,))
        report = WorkerReport(rank=2, generation=1)
        outcome = PCOutcome(
            teacher=0, learner=1, adopted=True, pi_teacher=5.0, pi_learner=2.0,
            probability=0.9,
        )
        for obj in (header, report, outcome):
            assert pickle.loads(pickle.dumps(obj)) == obj
        for table in (np.array([0, 1, 1, 0], dtype=np.uint8), np.array([0.25, 1.0, 0.0])):
            back = pickle.loads(pickle.dumps(MutationUpdate(sset=3, table=table)))
            assert back.sset == 3
            assert back.table.dtype == table.dtype
            assert np.array_equal(back.table, table)
