"""A world of one: Nature alone, the same program with nobody to tell.

In a world of one — ``n_ranks=1``, or any lazy run — Nature drafts every
window, settles every PC on its own replica and writes the checkpoints.  The
run must be the serial driver's, checkpoint by checkpoint, and its files must
resume in any world.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.game.noise import NoiseModel
from repro.io.checkpoints import ParallelCheckpoint, load_parallel_checkpoint, save_checkpoint
from repro.parallel import ParallelSimulation
from repro.population.dynamics import EvolutionDriver

pytestmark = pytest.mark.recovery

#: Noisy games, so a PC's fitness is sampled from slates Nature plays.
CFG = SimulationConfig(
    n_ssets=8, generations=60, seed=3, pc_rate=0.6, mutation_rate=0.4, rounds=20,
    noise=NoiseModel(0.02),
)
EVERY = 20


def _serial_states() -> list[ParallelCheckpoint]:
    """The serial driver's state at every checkpoint generation."""
    driver = EvolutionDriver(CFG)
    states = []
    while driver.generation < CFG.generations:
        driver.run(EVERY)
        states.append(ParallelCheckpoint.capture(driver.nature, driver.population.matrix()))
    return states


def _assert_same_state(state, expected) -> None:
    assert state.generation == expected.generation
    assert np.array_equal(state.matrix, expected.matrix)
    assert (state.n_pc_events, state.n_adoptions, state.n_mutations) == (
        expected.n_pc_events, expected.n_adoptions, expected.n_mutations
    )
    assert state.nature_rng_state == expected.nature_rng_state


@pytest.mark.parametrize(
    "eager, n_ranks",
    [(False, 1), (True, 1), (False, 3), (True, 3)],
    ids=["lazy", "eager", "lazy-asked-3", "eager-3"],
)
@pytest.mark.parametrize(
    "backend",
    ["thread", pytest.param("process", marks=pytest.mark.procexec),
     pytest.param("tcp", marks=pytest.mark.tcp)],
)
def test_a_world_of_one_is_the_serial_driver(tmp_path, backend, eager, n_ranks):
    """Asked for 3 ranks, a lazy run is still a world of one: no worker
    starts, nothing is sent and nobody is respawned, on any backend."""
    states = _serial_states()
    result = ParallelSimulation(
        CFG, n_ranks, eager, backend=backend, checkpoint_dir=tmp_path, checkpoint_every=EVERY
    ).run(timeout=120)
    end = states[-1]
    assert np.array_equal(result.matrix, end.matrix)
    assert (result.n_pc_events, result.n_adoptions, result.n_mutations) == (
        end.n_pc_events, end.n_adoptions, end.n_mutations
    )
    if eager and n_ranks > 1:
        assert result.n_ranks == n_ranks and result.games_played_per_rank[0] == 0
    else:
        assert result.games_played_per_rank == (0,)  # no worker: nobody plays a slate
        assert result.n_ranks == 1 and result.respawns == ()
        assert "send" not in result.counters
    written = [load_parallel_checkpoint(path) for path in result.checkpoints]
    assert [state.generation for state in written] == [20, 40, 60]
    for state, expected in zip(written, states):
        _assert_same_state(state, expected)


def test_resumes_serial_then_one_then_three(tmp_path):
    states = _serial_states()
    driver = EvolutionDriver(CFG)
    driver.run(EVERY)
    serial = save_checkpoint(driver, tmp_path / "serial.npz")
    one = ParallelSimulation.resume(
        serial, 1, checkpoint_dir=tmp_path / "one", checkpoint_every=EVERY
    ).run(timeout=120)
    three = ParallelSimulation.resume(
        tmp_path / "one" / f"ckpt_{2 * EVERY:08d}.npz", 3,
        checkpoint_dir=tmp_path / "three", checkpoint_every=EVERY,
    ).run(timeout=120)
    for result in (one, three):
        assert np.array_equal(result.matrix, states[-1].matrix)
    for path in (*one.checkpoints, *three.checkpoints):
        state = load_parallel_checkpoint(path)
        _assert_same_state(state, states[state.generation // EVERY - 1])
