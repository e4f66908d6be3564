"""Nature drafts a window in one pass when nobody watches its generations.

A generation is watched when the tracer records ``generation`` spans (a full
tracer, or a tap whose names include it) or a fault injector is attached:
then Nature drafts one generation at a time, each in its span and behind
its fault point, for traces and for faults that land on a generation.
Unwatched, a window is one draft with one fault point.  The service's
progress tap reads Nature's ``window`` spans only, so it leaves a run
unwatched.  Either way the run is the serial driver's.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.mpi.comm import Comm
from repro.mpi.faults import FaultPlan
from repro.obs.stream import EventTap
from repro.parallel import ParallelSimulation
from repro.parallel.runner import _WINDOW_CAP
from repro.population.dynamics import EvolutionDriver
from repro.service.worker import PROGRESS_NAMES

CFG = SimulationConfig(
    memory=2, n_ssets=12, generations=2 * _WINDOW_CAP + 40, seed=9, rounds=40,
    pc_rate=0.5, mutation_rate=0.2,
)
GENERATIONS = list(range(1, CFG.generations + 1))
WINDOW_ENDS = [_WINDOW_CAP, 2 * _WINDOW_CAP, CFG.generations]


@pytest.fixture(scope="module")
def serial():
    driver = EvolutionDriver(CFG)
    driver.run()
    return driver


@pytest.mark.parametrize("watch", ["nobody", "progress-tap", "tracer", "drop-faults"])
def test_nature_drafts_a_window_a_pass_unless_generations_are_watched(watch, serial, monkeypatch):
    points = []
    fault_point = Comm.fault_point

    def spy(self, generation):
        if self.rank == 0:
            points.append(generation)
        return fault_point(self, generation)

    monkeypatch.setattr(Comm, "fault_point", spy)
    kwargs = {
        "nobody": {},
        "progress-tap": {"trace": EventTap(names=PROGRESS_NAMES)},
        "tracer": {"trace": True},
        "drop-faults": {"fault_plan": FaultPlan(seed=1, drop_p=0.3)},
    }[watch]
    result = ParallelSimulation(CFG, 1, **kwargs).run(timeout=120)
    assert np.array_equal(result.matrix, serial.population.matrix())
    nature = serial.nature
    assert (result.n_pc_events, result.n_adoptions, result.n_mutations) == (
        nature.n_pc_events, nature.n_adoptions, nature.n_mutations
    )
    unwatched = watch in ("nobody", "progress-tap")
    assert points == (WINDOW_ENDS if unwatched else GENERATIONS)
    events = [] if result.trace is None else result.trace.events()
    spans = [e.args["gen"] for e in events if e.name == "generation" and e.rank == 0]
    assert spans == (GENERATIONS if watch == "tracer" else [])
    windows = [e.args["gen"] for e in events if e.name == "window"]
    assert windows == (WINDOW_ENDS if watch in ("progress-tap", "tracer") else [])
