"""Property test: ``NatureAgent.advance`` is the documented draw order.

An agent driven through ``advance`` with arbitrary ``upto`` cut points must
produce the events, counters and ``("nature",)`` stream position of an agent
driven generation by generation through ``select_pc`` / ``decide_adoption`` /
``select_mutation`` — whatever the rates, the PC rule or the table kind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.errors import PopulationError
from repro.population.nature import NatureAgent
from repro.population.population import Population
from repro.rng import StreamFactory


def fake_fitness(gen, selection):
    """A fixed stand-in for the evaluator: both branches of the paper rule occur."""
    return float((7 * gen + 3 * selection.teacher) % 11), float((5 * gen + selection.learner) % 11)


def make(cfg):
    streams = StreamFactory(cfg.seed)
    draw_table = Population.random(cfg, streams.fresh("init")).random_strategy_table
    return NatureAgent(cfg, streams), streams, draw_table


def facts(nature, streams):
    return (
        nature.n_pc_events, nature.n_adoptions, nature.n_mutations,
        streams.stream("nature").bit_generator.state,
    )


def by_hand(cfg):
    """The documented order, one generation at a time."""
    nature, streams, draw_table = make(cfg)
    events = []
    for gen in range(1, cfg.generations + 1):
        selection = nature.select_pc()
        if selection is not None:
            decision = nature.decide_adoption(selection, *fake_fitness(gen, selection))
            events.append((gen, "pc", selection.teacher, selection.learner, decision.adopted))
        mutation = nature.select_mutation(draw_table)
        if mutation is not None:
            events.append((gen, "mutation", mutation.sset, mutation.table.tobytes()))
    return events, facts(nature, streams)


def by_windows(cfg, cuts):
    nature, streams, draw_table = make(cfg)
    events = []
    for upto in [*cuts, cfg.generations]:
        stood = nature.closed
        while True:
            mutations, pc = nature.advance(draw_table, upto)
            events += [(gen, "mutation", m.sset, m.table.tobytes()) for gen, m in mutations]
            if pc is None:
                break
            gen, selection = pc
            assert gen == nature.closed + 1 <= upto
            decision = nature.decide_adoption(selection, *fake_fitness(gen, selection))
            events.append((gen, "pc", selection.teacher, selection.learner, decision.adopted))
        assert nature.closed == max(upto, stood)  # through ``upto``, never past it
    return events, facts(nature, streams)


@st.composite
def runs(draw):
    generations = draw(st.integers(1, 80))
    mixed = draw(st.booleans())
    cfg = SimulationConfig(
        memory=1,
        n_ssets=5,
        generations=generations,
        seed=draw(st.integers(0, 2**31 - 1)),
        pc_rate=draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0])),
        mutation_rate=draw(st.sampled_from([0.0, 0.05, 1.0])),
        pc_rule=draw(st.sampled_from(["paper", "fermi"])),
        strategy_kind="mixed" if mixed else "pure",
        mutation_distribution="ushaped" if mixed else "uniform",
    )
    # Any list will do: a cut at or before where the agent stands draws nothing.
    cuts = draw(st.lists(st.integers(0, generations), max_size=12))
    return cfg, cuts


@settings(max_examples=150, deadline=None)
@given(runs())
def test_advance_is_the_documented_draw_order(run):
    cfg, cuts = run
    events, end = by_windows(cfg, cuts)
    expected_events, expected_end = by_hand(cfg)
    assert events == expected_events
    assert end == expected_end


def test_advance_refuses_to_pass_an_undecided_pc():
    cfg = SimulationConfig(memory=1, n_ssets=5, generations=10, seed=3, pc_rate=1.0)
    nature, _, draw_table = make(cfg)
    mutations, (gen, selection) = nature.advance(draw_table, 10)
    assert (mutations, gen) == ([], 1)
    with pytest.raises(PopulationError, match="undecided"):
        nature.advance(draw_table, 10)
    nature.decide_adoption(selection, 1.0, 0.0)
    _, (gen, _) = nature.advance(draw_table, 10)  # closes 1, stops at 2's PC
    assert gen == 2 and nature.closed == 1


def test_one_call_can_take_a_whole_quiet_run():
    cfg = SimulationConfig(
        memory=1, n_ssets=5, generations=60, seed=8, pc_rate=0.0, mutation_rate=1.0
    )
    nature, _, draw_table = make(cfg)
    mutations, pc = nature.advance(draw_table, 60)
    assert pc is None and [gen for gen, _ in mutations] == list(range(1, 61))
    assert all(np.asarray(m.table).shape == (4,) for _, m in mutations)
