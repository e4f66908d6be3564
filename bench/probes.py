"""Per-layer probes: each layer timed from outside, at the call shapes runs issue.

A probe group calls public functions of one layer and reports its metrics
through :meth:`ProbeContext.put`.  Shapes follow the callers, not the layer's best
case: the kernel gets one SSet's 63-game slate (what ``FitnessEvaluator``
hands it), the transport gets a header and a 4 KiB row (what a generation
moves), the store gets one run's records.  The large-batch and 16 MiB
shapes are kept beside them as head-room figures no caller reaches today.

Groups are independent; ``python3 -m bench probe <group>`` runs one.
"""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.game.batch_engine import make_engine, pack_matrix
from repro.game.noise import NoiseModel
from repro.game.states import StateSpace
from repro.io.checkpoints import (
    ParallelCheckpoint,
    load_parallel_checkpoint,
    save_parallel_checkpoint,
)
from repro.io.runstore import RunKey, RunStore
from repro.mpi.executor import run_spmd
from repro.parallel import ParallelSimulation
from repro.population import EvolutionDriver
from repro.service.journal import QueueLease, ServiceJournal
from repro.service.server import RunServer, RunService
from repro.spatial.graph import GraphSpec
from repro.spatial.parallel import run_partitioned, run_reference
from repro.spatial.spec import SpatialRunSpec

from bench import PROBE_RANKS as N_RANKS
from bench.spans import SpanRecorder
from bench.stats import percentile, summary, time_calls
from bench.workloads import (
    EVO_SHAPES,
    OP_TIMEOUT_S,
    SEGMENTS,
    SVC_SHAPE,
    closed_loop,
    derive_seed,
    job_samples,
    scaled,
    serial_oracle,
)

BACKENDS = ("thread", "process", "tcp")
BIG_BYTES = 16 * 2**20


@dataclass
class ProbeContext:
    seed: int
    #: Seconds one in-process micro-probe may loop for.
    slice_s: float
    #: Size factor for run-based probes (1.0 in the benchmark, 1/50 in the smoke test).
    scale: float
    rec: SpanRecorder
    tmp: Path
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: name -> {"value", "q1", "q3", "n"}
    metrics: dict[str, dict] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one verified output; a wrong one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def put(self, name: str, values) -> None:
        """Report metric ``name`` from one value or a list of samples."""
        samples = [float(v) for v in values] if isinstance(values, (list, tuple)) else [float(values)]
        self.metrics[name] = summary(samples)

    def value(self, name: str) -> float:
        return self.metrics[name]["value"]

    def timed(self, span: str, fn, min_calls: int = 3) -> list[float]:
        """Seconds per call of ``fn``, looped for one time slice."""
        with self.rec.span(span):
            return time_calls(fn, self.slice_s, min_calls)


# -- game ---------------------------------------------------------------------


def game(ctx: ProbeContext) -> None:
    rng = np.random.default_rng(derive_seed(ctx.seed, "evo-eager", 7))
    slate = (np.zeros(63, dtype=np.intp), np.arange(1, 64, dtype=np.intp))
    slate16 = (slate[0][:15], slate[1][:15])  # one SSet's slate in a 16-SSet service job
    round_robin = np.triu_indices(64, k=1)

    def player(memory: int, noise: float, kind: str):
        space = StateSpace(memory)
        tables = rng.integers(0, 2, size=(64, space.n_states), dtype=np.uint8)
        engine = make_engine(space, noise=NoiseModel(noise), kind=kind)
        play_rng = np.random.default_rng(1) if noise else None
        return space, tables, lambda pairs: engine.play(tables, *pairs, rng=play_rng)

    space6, tables6, batch6 = player(6, 0.01, "batch")
    _, _, batch3 = player(3, 0.0, "batch")
    _, _, batch1 = player(1, 0.0, "batch")
    _, _, vector6 = player(6, 0.01, "vector")
    for name, play, pairs in (
        ("game.slate_m6_noisy_ms", batch6, slate),
        ("game.slate_m3_clean_ms", batch3, slate),
        ("game.slate_m1_clean_ms", batch1, slate16),
        ("game.vector_slate_m6_noisy_ms", vector6, slate),
    ):
        ctx.put(name, [1e3 * t for t in ctx.timed("game.slate", lambda: play(pairs))])
    kgames = round_robin[0].size / 1e3
    for name, play in (
        ("game.rr_m6_noisy_kgames_per_s", batch6),
        ("game.rr_m3_clean_kgames_per_s", batch3),
    ):
        ctx.put(name, [kgames / t for t in ctx.timed("game.round_robin", lambda: play(round_robin))])
    ctx.put("game.pack_matrix_ms",
            [1e3 * t for t in ctx.timed("game.pack_matrix", lambda: pack_matrix(space6, tables6))])


# -- population -----------------------------------------------------------------


def population(ctx: ProbeContext) -> None:
    steps = scaled(2000, ctx.scale)
    cfg = EVO_SHAPES["evo-lazy"].config(derive_seed(ctx.seed, "evo-lazy", 7), steps)
    driver = EvolutionDriver(cfg)
    with ctx.rec.span("population.step", steps=steps):
        t0 = time.perf_counter()
        for _ in range(steps):
            driver.step()
        ctx.put("population.step_us", 1e6 * (time.perf_counter() - t0) / steps)
    evaluator = driver.evaluator
    computed, lookups = evaluator.pairs_computed, evaluator.pair_lookups
    ctx.put("population.pairs_computed", computed)
    ctx.put("population.pair_hit_ratio", lookups / max(1, lookups + computed))
    # time_calls' warm-up call fills the memo for this pair; every timed call hits.
    hits = ctx.timed("population.fitness_hit", lambda: evaluator.fitness([0, 1], generation=steps))
    ctx.put("population.fitness_hit_us", [1e6 * t for t in hits])


# -- mpi ------------------------------------------------------------------------


def _mpi_program(comm, n_small: int, n_big: int) -> dict:
    """Bench-owned rank program: every loop timed inside, after a barrier."""
    t_in = time.perf_counter()
    rank = comm.rank
    out: dict = {}
    row = np.arange(4096, dtype=np.uint8)  # one memory-6 strategy row, the largest a generation moves
    frame = row[:64]  # one memory-3 row: the size of the fault-tolerant star's frames
    if n_small:
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(n_small):
            if rank == 0:
                comm.send(b"", 1, tag=1)
                comm.recv(1, tag=2)
            elif rank == 1:
                comm.recv(0, tag=1)
                comm.send(b"", 0, tag=2)
        out["pingpong"] = (time.perf_counter() - t0) / n_small
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(n_small):
            got = comm.bcast(row if rank == 0 else None, root=0)
        comm.barrier()
        out["bcast4k"] = (time.perf_counter() - t0) / n_small
        out["ok"] = bool(np.array_equal(got, row))
        t0 = time.perf_counter()
        for _ in range(n_small):
            if rank == 0:
                comm.send_reliable(frame, 1, tag=3)
            elif rank == 1:
                got = comm.recv_reliable(0, tag=3)
        out["reliable"] = (time.perf_counter() - t0) / n_small
        if rank == 1:
            out["ok"] = out["ok"] and bool(np.array_equal(got, frame))
    if n_big:
        # Fresh arrays, so no transport can serve a repeat from a cache.
        tables = [np.full(BIG_BYTES, i + 1, dtype=np.uint8) if rank == 0 else None
                  for i in range(n_big)]
        comm.barrier()
        t0 = time.perf_counter()
        checksum = 0
        for table in tables:
            got = comm.bcast(table, root=0)
            checksum += int(got[0]) + int(got[-1])
        comm.barrier()
        out["bcast16m"] = (time.perf_counter() - t0) / n_big
        out["checksum"] = checksum
    out["inside"] = time.perf_counter() - t_in
    return out


def _mpi_world(ctx: ProbeContext, backend: str, n_small: int, n_big: int, **kwargs) -> tuple[list[dict], float]:
    """Run the rank program; returns (per-rank results, launch + teardown seconds)."""
    with ctx.rec.span("mpi.run_spmd", backend=backend):
        t0 = time.perf_counter()
        res = run_spmd(N_RANKS, _mpi_program, args=(n_small, n_big), backend=backend,
                       timeout=OP_TIMEOUT_S, **kwargs)
        wall = time.perf_counter() - t0
    returns = res.returns
    if n_small:
        ctx.check(all(r["ok"] for r in returns[:2]), f"mpi {backend}: small payload corrupted")
    expected = sum(2 * (i + 1) for i in range(n_big))
    ctx.check(all(r["checksum"] == expected for r in returns), f"mpi {backend}: 16 MiB bcast corrupted")
    return returns, wall - max(r["inside"] for r in returns)


def mpi(ctx: ProbeContext) -> None:
    n_small, n_big = scaled(300, ctx.scale), scaled(3, ctx.scale)
    for backend in BACKENDS:
        returns, launch = _mpi_world(ctx, backend, n_small, n_big)
        ctx.put(f"mpi.{backend}.launch_s", launch)
        ctx.put(f"mpi.{backend}.pingpong_us", 1e6 * returns[0]["pingpong"])
        ctx.put(f"mpi.{backend}.reliable_rtt_us", 1e6 * returns[0]["reliable"])
        # A collective ends when its slowest rank has the data.
        ctx.put(f"mpi.{backend}.bcast4k_us", 1e6 * max(r["bcast4k"] for r in returns))
        ctx.put(f"mpi.{backend}.bcast16m_ms", 1e3 * max(r["bcast16m"] for r in returns))
    returns, _ = _mpi_world(ctx, "process", 0, n_big, shared_memory=False)
    ctx.put("mpi.process.bcast16m_noshm_ms", 1e3 * max(r["bcast16m"] for r in returns))


# -- parallel (protocol x backend, short runs of the evo-lazy configuration) -------


def _run_rate(ctx: ProbeContext, sim: ParallelSimulation, oracle: np.ndarray, what: str) -> float:
    """Generations per second of one complete run, checked against the oracle."""
    with ctx.rec.span("parallel.run", what=what):
        t0 = time.perf_counter()
        result = sim.run(timeout=OP_TIMEOUT_S)
        wall = time.perf_counter() - t0
    ctx.check(np.array_equal(result.matrix, oracle), f"{what}: matrix differs from the serial oracle")
    return sim.config.generations / wall


def parallel(ctx: ProbeContext) -> None:
    cfg = EVO_SHAPES["evo-lazy"].config(derive_seed(ctx.seed, "evo-lazy", 8), scaled(300, ctx.scale))
    oracle, _ = serial_oracle(cfg)
    for backend in BACKENDS:
        rate = {}
        for protocol, ft in (("plain", False), ("ft", True)):
            sim = ParallelSimulation(cfg, N_RANKS, backend=backend, fault_tolerant=ft)
            rate[protocol] = _run_rate(ctx, sim, oracle, f"{protocol}/{backend}")
            ctx.put(f"parallel.{protocol}_gen_per_s.{backend}", rate[protocol])
        ctx.put(f"parallel.ft_over_plain.{backend}", rate["ft"] / rate["plain"])
    traced = ParallelSimulation(cfg, N_RANKS, backend="process", fault_tolerant=False, trace=True)
    ctx.put("obs.trace_overhead",
            ctx.value("parallel.plain_gen_per_s.process") / _run_rate(ctx, traced, oracle, "plain/process traced"))

    ecfg = EVO_SHAPES["evo-eager"].config(derive_seed(ctx.seed, "evo-eager", 8), scaled(6, ctx.scale))
    eoracle, _ = serial_oracle(ecfg)
    rate = {}
    for n_ranks in (2, 3):
        sim = ParallelSimulation(ecfg, n_ranks, eager_games=True, backend="process")
        rate[n_ranks] = _run_rate(ctx, sim, eoracle, f"eager/{n_ranks} ranks")
    # Two workers against one: 1.0 is perfect scaling of the kernel-bound run.
    ctx.put("parallel.eager_scaling_eff", rate[3] / rate[2] / 2.0)


# -- io (checkpoints and the run store) -----------------------------------------------


def io(ctx: ProbeContext) -> None:
    cfg = EVO_SHAPES["evo-lazy"].config(derive_seed(ctx.seed, "evo-ft-ckpt", 7))
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    matrix = rng.integers(0, 2, size=(cfg.n_ssets, cfg.space.n_states), dtype=np.uint8)
    state = ParallelCheckpoint(cfg, 250, matrix, rng.bit_generator.state, 25, 12, 13)
    ckpt_dir = ctx.tmp / "io-ckpt"
    path = save_parallel_checkpoint(state, ckpt_dir)
    ctx.put("io.ckpt_bytes", path.stat().st_size)
    ctx.put("io.ckpt_save_ms",
            [1e3 * t for t in ctx.timed("io.ckpt_save", lambda: save_parallel_checkpoint(state, ckpt_dir))])
    ctx.put("io.ckpt_load_ms",
            [1e3 * t for t in ctx.timed("io.ckpt_load", lambda: load_parallel_checkpoint(path))])
    ctx.check(np.array_equal(load_parallel_checkpoint(path).matrix, matrix), "checkpoint round trip")

    store = RunStore(ctx.tmp / "io-store")
    spec = SVC_SHAPE.spec(cfg.seed)
    run_ids = itertools.count()
    key = RunKey("probe", "r0")  # created by the first create_run call below
    event = {"type": "progress", "generation": 1, "time": time.time()}
    result = SimpleNamespace(matrix=matrix, generation=250, n_pc_events=25, n_adoptions=12, n_mutations=13)
    for name, unit, span, fn in (
        ("io.store_create_run_ms", 1e3, "io.store_create_run",
         lambda: store.create_run(RunKey("probe", f"r{next(run_ids)}"), spec)),
        ("io.store_append_event_us", 1e6, "io.store_append_event", lambda: store.append_event(key, event)),
        ("io.store_append_event_durable_us", 1e6, "io.store_append_event",
         lambda: store.append_event(key, event, durable=True)),
        ("io.store_save_result_ms", 1e3, "io.store_save_result", lambda: store.save_result(key, result)),
        ("io.store_load_result_ms", 1e3, "io.store_load_result", lambda: store.load_result(key)),
    ):
        ctx.put(name, [unit * t for t in ctx.timed(span, fn)])
    ctx.check(np.array_equal(store.load_result(key).matrix, matrix), "store result round trip")


# -- service ------------------------------------------------------------------------------


def service(ctx: ProbeContext) -> None:
    shape = SVC_SHAPE.scaled(ctx.scale)
    specs = [shape.spec(derive_seed(ctx.seed, "svc-jobs", 7, i)) for i in range(4)]
    oracles = [serial_oracle(spec.config)[0] for spec in specs]
    # The svc-jobs closed loop, cut short: job latency and the five segments it is made of.
    store_root = ctx.tmp / "probe-store"
    with RunServer(store_root, max_workers=shape.max_workers) as server:
        server.start()
        jobs, _ = closed_loop(server.url, specs, oracles, shape.clients, ctx.rec, "p",
                              max_jobs=max(2, scaled(10, ctx.scale)))
    for job in jobs:
        ctx.check(not job["problems"], "; ".join(job["problems"][:1]))
    samples = job_samples(jobs)
    for segment in SEGMENTS:
        ctx.put(f"service.{segment}_ms", 1e3 * statistics.median(samples[f"segment.{segment}"]))
    ctx.put("service.job_p50_s", statistics.median(samples["job_s"]))
    ctx.put("service.job_p90_s", percentile(samples["job_s"], 90))
    ctx.put("service.first_event_p50_s", statistics.median(samples["first_event_s"]))

    inproc = []
    with RunService(ctx.tmp / "inproc-store", max_workers=shape.max_workers) as svc:
        for i, spec in enumerate(specs[:3]):
            with ctx.rec.span("service.inproc_job"):
                t0 = time.perf_counter()
                svc.submit("inproc", f"j{i}", spec)
                status = svc.queue.wait("inproc", f"j{i}", timeout=OP_TIMEOUT_S)
                inproc.append(time.perf_counter() - t0)
            stored = svc.store.load_result(RunKey("inproc", f"j{i}"))
            ctx.check(status.state == "done" and np.array_equal(stored.matrix, oracles[i]),
                      f"in-process job {i}: state {status.state}")
    ctx.put("service.inproc_job_s", inproc)

    # Recovery is the read beside the journal's writes: a fresh queue replays
    # the finished store, so its cost grows with whatever journaling adds.
    n_runs = sum(1 for _ in RunStore(store_root).iter_keys())
    svc = RunService(store_root, recover=False)
    try:
        with ctx.rec.span("service.recover", runs=n_runs):
            t0 = time.perf_counter()
            svc.queue.recover()
            recover_s = time.perf_counter() - t0
    finally:
        svc.close()
    ctx.put("service.recover_s_per_100_runs", recover_s * 100.0 / n_runs)

    lease = QueueLease(ctx.tmp / "journal-store")
    lease.claim()
    try:
        journal = ServiceJournal(lease.root, lease)
        key = RunKey("probe", "r0")
        appends = ctx.timed("service.journal_append",
                            lambda: journal.record("dispatched", key, durable=True, pid=0))
        ctx.put("service.journal_append_durable_us", [1e6 * t for t in appends])
    finally:
        lease.release()


# -- spatial ---------------------------------------------------------------------------------


def spatial(ctx: ProbeContext) -> None:
    side = 192 if ctx.scale >= 1.0 else 24
    steps = max(2, scaled(40, ctx.scale))
    spec = SpatialRunSpec(graph=GraphSpec("lattice", {"rows": side, "cols": side}), game="ipd",
                          seed=derive_seed(ctx.seed, 9), steps=steps)
    game_ = spec.build_game()
    with ctx.rec.span("spatial.step", steps=steps):
        t0 = time.perf_counter()
        for _ in range(steps):
            game_.step()
        ctx.put("spatial.ref_steps_per_s", steps / (time.perf_counter() - t0))

    # Complete runs, graph construction and world launch included: the pair a
    # caller choosing between one rank and two compares.
    def run_s(run, run_spec: SpatialRunSpec):
        with ctx.rec.span("spatial.run", ranks=run_spec.n_ranks):
            t0 = time.perf_counter()
            result = run(run_spec)
            return time.perf_counter() - t0, result

    ref_s, reference = run_s(run_reference, spec)
    part_s, partitioned = run_s(run_partitioned, spec.with_updates(n_ranks=2, backend="process"))
    ctx.check(np.array_equal(reference.matrix, game_.state.reshape(reference.matrix.shape))
              and np.array_equal(partitioned.matrix, reference.matrix),
              "spatial runs disagree (stepped game, reference, partitioned)")
    ctx.put("spatial.ref_run_s", ref_s)
    ctx.put("spatial.part2_run_s.process", part_s)


GROUPS = {
    "game": game,
    "population": population,
    "mpi": mpi,
    "parallel": parallel,
    "io": io,
    "service": service,
    "spatial": spatial,
}
