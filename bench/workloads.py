"""The four workloads: inputs from a seed, one measured round each, oracle checks.

A *round* is what one fresh subprocess does: set up (imports, input build,
one warm-up), then repeat the workload's unit of work until its time budget
is spent.  Every output is compared with the serial ``EvolutionDriver`` on the
same configuration — the program's bit-identity contract is the correctness
check, and a mismatch is a failed operation.

All workloads use 64 SSets (16 for service jobs), 200 rounds per game and the
paper's rates (``pc_rate`` 0.1, mutation 0.05).  Why each exists is recorded
in ``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import itertools
import os
import shutil
import threading
import time
import traceback
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.config import SimulationConfig
from repro.game.noise import NoiseModel
from repro.parallel import ParallelSimulation
from repro.parallel.spec import RunSpec
from repro.parallel.supervisor import SupervisedRun
from repro.population import EvolutionDriver
from repro.service.client import ServiceClient
from repro.service.server import RunServer

from bench.spans import SpanRecorder

#: Deadline for one run or one job; far above any healthy duration, so it only
#: turns a hang into a failed operation.
OP_TIMEOUT_S = 120.0


def derive_seed(seed: int, *path: object) -> int:
    """A config seed that is a pure function of ``--seed`` and its place in the run."""
    words = [int(seed) & 0xFFFFFFFF]
    for part in path:
        words.append(zlib.crc32(part.encode()) if isinstance(part, str) else int(part) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(words).generate_state(1)[0] & 0x7FFFFFFF)


def scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


@dataclass
class RoundResult:
    """What one round hands back to the parent."""

    setup_s: float = 0.0
    #: Units of work timed (complete runs, or jobs of one closed loop), the
    #: generations they delivered and the wall seconds they took.
    timed_units: int = 0
    generations: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Exact counts of the traced pass (messages, games, checkpoints), for ``share.*``.
    facts: dict = field(default_factory=dict)

    def timed(self, units: int, generations: int, wall_s: float) -> None:
        self.timed_units += units
        self.generations += generations
        self.wall_s += wall_s

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(problems[:3])


def serial_oracle(cfg: SimulationConfig) -> tuple[np.ndarray, int]:
    """Run ``cfg`` through the serial driver; returns (matrix, pairs computed)."""
    driver = EvolutionDriver(cfg)
    driver.run()
    return driver.population.matrix(), driver.evaluator.pairs_computed


# -- evolution workloads ------------------------------------------------------


@dataclass(frozen=True)
class EvoShape:
    """One ``evo-*`` workload: the configuration family and how it is launched."""

    memory: int
    noise: float
    generations: int
    warm_generations: int
    n_ranks: int
    backend: str
    eager: bool = False
    checkpoint_every: int = 0
    n_hosts: int = 2

    def scaled(self, scale: float) -> "EvoShape":
        if scale == 1.0:
            return self
        return replace(
            self,
            generations=scaled(self.generations, scale),
            warm_generations=scaled(self.warm_generations, scale),
            checkpoint_every=scaled(self.checkpoint_every, scale) if self.checkpoint_every else 0,
        )

    def config(self, seed: int, generations: int | None = None) -> SimulationConfig:
        return SimulationConfig(
            memory=self.memory,
            n_ssets=64,
            generations=self.generations if generations is None else generations,
            noise=NoiseModel(self.noise),
            seed=seed,
        )

    def simulation(self, cfg: SimulationConfig, checkpoint_dir: Path | None) -> ParallelSimulation:
        kwargs: dict = {"backend": self.backend, "eager_games": self.eager, "n_hosts": self.n_hosts}
        if checkpoint_dir is not None:
            kwargs.update(checkpoint_dir=checkpoint_dir, checkpoint_every=self.checkpoint_every)
        return ParallelSimulation(cfg, self.n_ranks, **kwargs)


EVO_SHAPES = {
    "evo-lazy": EvoShape(3, 0.0, 1500, 250, n_ranks=3, backend="process"),
    "evo-ft-ckpt": EvoShape(3, 0.0, 500, 250, n_ranks=3, backend="tcp", checkpoint_every=250),
    "evo-eager": EvoShape(6, 0.01, 8, 2, n_ranks=3, backend="process", eager=True),
}


def check_evo(shape: EvoShape, cfg: SimulationConfig, result, oracle: np.ndarray) -> list[str]:
    """Everything that makes one parallel run's output wrong."""
    problems = []
    if not np.array_equal(result.matrix, oracle):
        problems.append(f"matrix differs from the serial oracle (seed {cfg.seed})")
    if result.generation != cfg.generations:
        problems.append(f"ran {result.generation} of {cfg.generations} generations")
    if result.failed_ranks:
        problems.append(f"ranks failed: {result.failed_ranks}")
    if shape.eager:
        expected = cfg.generations * cfg.n_ssets * cfg.opponents_per_sset
        if sum(result.games_played_per_rank) != expected:
            problems.append(f"played {sum(result.games_played_per_rank)} games, expected {expected}")
    if shape.checkpoint_every:
        expected = cfg.generations // shape.checkpoint_every
        if len(result.checkpoints) != expected:
            problems.append(f"wrote {len(result.checkpoints)} checkpoints, expected {expected}")
    return problems


def _parallel_run(shape: EvoShape, cfg: SimulationConfig, tmp: Path, rec: SpanRecorder):
    """One complete ``ParallelSimulation(...).run()``: (result or None, wall, problems)."""
    ckpt_dir = tmp / f"ckpt-{cfg.seed}" if shape.checkpoint_every else None
    try:
        with rec.span("parallel.run", backend=shape.backend, generations=cfg.generations):
            t0 = time.perf_counter()
            result = shape.simulation(cfg, ckpt_dir).run(timeout=OP_TIMEOUT_S)
            return result, time.perf_counter() - t0, []
    except Exception as exc:  # noqa: BLE001 - a failed run is a failed operation, not a crash
        return None, 0.0, [f"{type(exc).__name__}: {exc}", traceback.format_exc(limit=3)]
    finally:
        if ckpt_dir is not None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)


def _serial_run(cfg: SimulationConfig, rec: SpanRecorder) -> tuple[np.ndarray, int]:
    with rec.span("population.serial_run", generations=cfg.generations):
        return serial_oracle(cfg)


def _record_run(shape: EvoShape, cfg: SimulationConfig, result, wall: float, pairs: int,
                out: RoundResult) -> None:
    out.timed(1, cfg.generations, wall)
    sends = result.counters.get("send")
    reliable = result.counters.get("reliable_send")
    for key, value in (
        ("wall_s", wall),
        ("generations", cfg.generations),
        ("messages", sends.messages if sends else 0),
        ("bytes", sends.bytes if sends else 0),
        ("reliable_sends", reliable.calls if reliable else 0),
        ("checkpoints", len(result.checkpoints)),
        # Games on the critical path: the busiest worker's slate under eager
        # play; under lazy play the pairs the serial memo had to compute.
        ("games", max(result.games_played_per_rank) if shape.eager else pairs),
    ):
        out.facts[key] = out.facts.get(key, 0) + value


def evo_round(
    name: str, seed: int, round_idx: int, budget_s: float, scale: float,
    rec: SpanRecorder, tmp: Path, started_at: float,
) -> RoundResult:
    """Parallel runs back to back, then the serial oracle of each.

    Two phases rather than serial/parallel pairs, so that what precedes a
    timed run is always a run of the same kind.  The latency-bound workloads
    (``evo-lazy``, ``evo-ft-ckpt``) are sensitive to it: on the sandbox they
    ran up to twice as fast in the first seconds after a quiet stretch as in
    steady state, and a CPU-bound serial run between every two of them made
    their speed depend on the interleaving.

    ``budget_s`` covers the whole round, set-up included, so a run takes the
    ``--seconds`` it was given.
    """
    shape = EVO_SHAPES[name].scaled(scale)
    out = RoundResult()
    out.facts.update(backend=shape.backend, fault_tolerant=bool(shape.checkpoint_every),
                     slate_metric="game.slate_m6_noisy_ms" if shape.noise else "game.slate_m3_clean_ms",
                     slate_games=63)
    with rec.span("bench.setup"):
        warm = shape.config(derive_seed(seed, name, round_idx, 0), shape.warm_generations)
        result, _, problems = _parallel_run(shape, warm, tmp, rec)
        oracle, _ = serial_oracle(warm)
        out.operation(problems or check_evo(shape, warm, result, oracle))
    out.setup_s = time.time() - started_at

    deadline = time.perf_counter() + budget_s - out.setup_s
    configs = (shape.config(derive_seed(seed, name, round_idx, rep)) for rep in itertools.count(1))
    first = next(configs)
    t0 = time.perf_counter()
    serial = [_serial_run(first, rec)]
    serial_cost = time.perf_counter() - t0  # what each further oracle will cost in the second phase
    runs = []
    longest = 0.0
    for cfg in itertools.chain([first], configs):
        runs.append((cfg, *_parallel_run(shape, cfg, tmp, rec)))
        longest = max(longest, runs[-1][2])
        # Leave room for the oracles; stop when less than half a run is left,
        # so a round overruns its budget by at most half of one.
        if time.perf_counter() + longest / 2 + len(runs) * serial_cost > deadline:
            break
    serial += [_serial_run(cfg, rec) for cfg, *_ in runs[1:]]
    for (cfg, result, wall, problems), (oracle, pairs) in zip(runs, serial):
        if result is not None:
            with rec.span("bench.check"):
                problems = check_evo(shape, cfg, result, oracle)
            _record_run(shape, cfg, result, wall, pairs, out)
        out.operation(problems)
    return out


# -- service workload -----------------------------------------------------------


@dataclass(frozen=True)
class SvcShape:
    """``svc-jobs``: many short supervised runs pushed through one ``RunServer``."""

    generations: int = 200
    checkpoint_every: int = 100
    n_specs: int = 16
    max_workers: int = 2
    n_clients: int = 2

    def scaled(self, scale: float) -> "SvcShape":
        if scale == 1.0:
            return self
        return replace(
            self,
            generations=scaled(self.generations, scale),
            checkpoint_every=scaled(self.checkpoint_every, scale),
            n_specs=max(2, scaled(self.n_specs, scale)),
        )

    def spec(self, seed: int) -> RunSpec:
        cfg = SimulationConfig(memory=1, n_ssets=16, generations=self.generations, seed=seed)
        return RunSpec(config=cfg, n_ranks=2, backend="thread", checkpoint_every=self.checkpoint_every)

    @property
    def clients(self) -> int:
        """Closed-loop client threads: never more threads or connections than cores."""
        return max(1, min(self.n_clients, os.cpu_count() or 1))


SVC_SHAPE = SvcShape()

SEGMENTS = ("submit", "dispatch", "worker_run", "sse_tail", "result_fetch")


def one_job(client: ServiceClient, tenant: str, run_id: str, spec: RunSpec,
            oracle: np.ndarray | None, rec: SpanRecorder) -> dict:
    """Submit, follow the SSE feed to ``end``, fetch and decode the result.

    Wall-clock ``time.time()`` throughout, because the segments join the
    client's timestamps with the ``time`` field the worker stamps on its
    ``worker-started`` and ``done`` events (same machine, same clock).  The
    five segments add up to the job latency exactly.
    """
    job: dict = {"problems": []}
    try:
        with rec.span("service.job", run=f"{tenant}/{run_id}"):
            t0 = time.time()
            with rec.span("service.submit"):
                client.submit(tenant, run_id, spec=spec)
            t_submitted = time.time()
            t_first = t_started = t_done = None
            with rec.span("service.stream"):
                for kind, payload in client.stream(tenant, run_id, timeout=OP_TIMEOUT_S):
                    if t_first is None:
                        t_first = time.time()
                    if kind == "worker-started" and t_started is None:
                        t_started = payload["time"]
                    elif kind == "done":
                        t_done = payload["time"]
            t_end = time.time()
            with rec.span("service.result"):
                fetched = client.result(tenant, run_id)
            t_fetched = time.time()
        if t_started is None or t_done is None:
            job["problems"].append(f"job {tenant}/{run_id} did not reach 'done'")
        else:
            job["segments"] = dict(zip(SEGMENTS, (
                t_submitted - t0, t_started - t_submitted, t_done - t_started,
                t_end - t_done, t_fetched - t_end,
            )))
            job["latency"] = t_fetched - t0
            job["first_event"] = t_first - t0
        job["matrix"] = fetched.matrix
        if fetched.generation != spec.config.generations:
            job["problems"].append(f"job {tenant}/{run_id} stored generation {fetched.generation}")
        if oracle is not None and not np.array_equal(fetched.matrix, oracle):
            job["problems"].append(f"job {tenant}/{run_id} differs from the serial oracle")
    except Exception as exc:  # noqa: BLE001 - an HTTP or service error is a failed operation
        job["problems"] += [f"{type(exc).__name__}: {exc}", traceback.format_exc(limit=3)]
    return job


def closed_loop(url: str, specs, oracles, n_clients: int, rec: SpanRecorder, tag: str,
                deadline: float | None = None, max_jobs: int | None = None) -> tuple[list[dict], float]:
    """``n_clients`` threads, one tenant each, each submitting its next job
    only after fetching the previous result.  Returns (jobs, wall seconds).

    Closed loop because that is what callers of the service do: each waits
    for its matrix before it has anything new to ask.
    """
    per_client: list[list[dict]] = [[] for _ in range(n_clients)]

    def client_loop(c: int) -> None:
        client = ServiceClient(url, timeout=OP_TIMEOUT_S)
        for i in itertools.count():
            if max_jobs is not None and i >= max_jobs:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            k = (c + i * n_clients) % len(specs)
            per_client[c].append(one_job(client, f"{tag}c{c}", f"j{i}", specs[k], oracles[k], rec))

    # Daemon threads: an interrupt in the joins below must not leave the
    # process waiting for clients that are waiting for a closing server.
    threads = [threading.Thread(target=client_loop, args=(c,), name=f"bench-client-{c}", daemon=True)
               for c in range(n_clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return [job for jobs in per_client for job in jobs], wall


def job_samples(jobs: list[dict]) -> dict[str, list[float]]:
    """Per-job latency, first-event latency and segments of the finished jobs."""
    finished = [job for job in jobs if "latency" in job]
    if not finished:
        return {}
    out = {
        "job_s": [job["latency"] for job in finished],
        "first_event_s": [job["first_event"] for job in finished],
    }
    for segment in SEGMENTS:
        out[f"segment.{segment}"] = [job["segments"][segment] for job in finished]
    return out


def wait_ready(client: ServiceClient, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not client.ready():
        if time.monotonic() > deadline:
            raise RuntimeError("run server did not become ready")
        time.sleep(0.01)


def svc_round(
    name: str, seed: int, round_idx: int, budget_s: float, scale: float,
    rec: SpanRecorder, tmp: Path, started_at: float,
) -> RoundResult:
    shape = SVC_SHAPE.scaled(scale)
    out = RoundResult()
    specs = [shape.spec(derive_seed(seed, name, round_idx, i)) for i in range(shape.n_specs)]
    server = RunServer(tmp / "store", max_workers=shape.max_workers)
    try:
        with rec.span("bench.setup"):
            server.start()
            client = ServiceClient(server.url, timeout=OP_TIMEOUT_S)
            wait_ready(client)
            warm = one_job(client, "warm", "j0", specs[0], None, rec)
        out.setup_s = time.time() - started_at

        deadline = time.perf_counter() + budget_s - out.setup_s  # the budget covers set-up too
        with rec.span("population.serial_run", generations=shape.generations * len(specs)):
            oracles, pairs = zip(*(serial_oracle(spec.config) for spec in specs))
        if "matrix" in warm and not np.array_equal(warm["matrix"], oracles[0]):
            warm["problems"].append("warm-up job differs from the serial oracle")
        out.operation(warm["problems"])

        # Stop submitting one typical job before the deadline: the loop's last
        # jobs finish after it, and the round must not overrun its budget.
        typical = warm.get("latency", 0.5)
        jobs, wall = closed_loop(server.url, specs, oracles, shape.clients, rec, f"r{round_idx}",
                                 deadline=max(deadline - typical, time.perf_counter() + typical))
    finally:
        server.close()
    for job in jobs:
        out.operation(job["problems"])
    finished = job_samples(jobs)
    if finished:
        out.timed(len(finished["job_s"]), len(finished["job_s"]) * shape.generations, wall)
    out.facts.update(backend="thread", fault_tolerant=True,
                     slate_metric="game.slate_m1_clean_ms", slate_games=15)
    if rec.enabled and finished:
        # A job's exact traffic: the service result does not carry counters,
        # so the traced pass runs one spec through the same SupervisedRun the
        # worker uses and reads them there.
        with rec.span("parallel.supervised_run"):
            direct = SupervisedRun.from_spec(specs[0], checkpoint_dir=tmp / "direct").run(
                timeout=OP_TIMEOUT_S).result
        sends, reliable = direct.counters.get("send"), direct.counters.get("reliable_send")
        out.facts.update(
            wall_s=float(np.median(finished["job_s"])),
            generations=shape.generations,
            games=pairs[0],
            checkpoints=len(direct.checkpoints),
            messages=sends.messages if sends else 0,
            bytes=sends.bytes if sends else 0,
            reliable_sends=reliable.calls if reliable else 0,
        )
    return out


ROUND_OF = {**dict.fromkeys(EVO_SHAPES, evo_round), "svc-jobs": svc_round}


def run_round(name: str, *args, **kwargs) -> RoundResult:
    """One round of workload ``name``."""
    if name not in ROUND_OF:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(ROUND_OF)})")
    return ROUND_OF[name](name, *args, **kwargs)
