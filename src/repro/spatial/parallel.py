"""Rank-partitioned spatial games: block decomposition plus halo exchange.

The graph's nodes are split into contiguous blocks, one per rank (the same
``divmod`` distribution the evolution runner uses for SSets).  Each rank
advances only its own block; the per-node quantities its block reads from
other ranks' nodes — boundary *strategies* before scoring, boundary
*scores* before imitation — arrive through two halo exchanges per
generation over the ordinary :class:`~repro.mpi.comm.Comm` point-to-point
API, so the same rank program runs unchanged on the thread, process and
tcp transports.

Bit-identity with the single-rank reference is by construction, not luck:
the :class:`~repro.spatial.graph_game.GraphGame` kernels accumulate per
node in stored neighbour order regardless of which block they are asked
for, so a rank computing rows ``[lo, hi)`` produces exactly the bits the
reference produces for those rows.  The parity tests assert equality of
final states and per-step counts across 1, 2 and 3 ranks on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.mpi.comm import Comm
from repro.mpi.executor import run_spmd
from repro.spatial.graph import InteractionGraph
from repro.spatial.spec import SpatialRunSpec

__all__ = [
    "GraphBlocks",
    "HaloPlan",
    "build_halo_plan",
    "halo_exchange",
    "SpatialRunResult",
    "run_reference",
    "run_partitioned",
]

#: Point-to-point tags for the two per-generation exchanges.
STATE_TAG = 1
SCORE_TAG = 2


class GraphBlocks:
    """Contiguous block distribution of ``n_nodes`` over ``n_ranks``.

    The first ``n_nodes % n_ranks`` ranks get one extra node — the same
    deterministic split :class:`~repro.parallel.decomposition.
    SSetDecomposition` uses for populations, so placement reasoning carries
    over.
    """

    def __init__(self, n_nodes: int, n_ranks: int) -> None:
        if n_ranks < 1 or n_ranks > n_nodes:
            raise ConfigError(
                f"n_ranks must lie in [1, n_nodes={n_nodes}], got {n_ranks}"
            )
        self.n_nodes = n_nodes
        self.n_ranks = n_ranks
        base, extra = divmod(n_nodes, n_ranks)
        starts = [0]
        for r in range(n_ranks):
            starts.append(starts[-1] + base + (1 if r < extra else 0))
        self._starts = starts

    def bounds(self, rank: int) -> tuple[int, int]:
        """The half-open node range ``[lo, hi)`` owned by ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise ConfigError(f"rank must lie in [0, {self.n_ranks}), got {rank}")
        return self._starts[rank], self._starts[rank + 1]

    def owners(self) -> np.ndarray:
        """Per-node owning rank, shape ``(n_nodes,)``."""
        out = np.empty(self.n_nodes, dtype=np.intp)
        for r in range(self.n_ranks):
            lo, hi = self.bounds(r)
            out[lo:hi] = r
        return out


@dataclass(frozen=True)
class HaloPlan:
    """One rank's halo-exchange schedule.

    For every peer rank (sorted, so all ranks agree on traversal order)
    this names the owned boundary nodes whose values the peer reads
    (``send_ids``) and the peer's nodes this rank reads (``recv_ids``).
    Both sides derive the plan independently from the same graph, and each
    id list is sorted ascending — so the flat payload arrays line up
    without any negotiation.
    """

    rank: int
    send_ids: dict[int, np.ndarray]
    recv_ids: dict[int, np.ndarray]

    @property
    def peers(self) -> list[int]:
        """Neighbouring ranks, ascending."""
        return sorted(self.send_ids)


def build_halo_plan(graph: InteractionGraph, blocks: GraphBlocks, rank: int) -> HaloPlan:
    """Derive ``rank``'s halo schedule from the graph and the block split.

    A node is sent to a peer iff at least one of its neighbours lives in
    the peer's block; symmetry of the interaction graph makes the reverse
    direction the peer's mirror image, so ``send_ids`` here equals the
    peer's ``recv_ids`` for this rank entry-for-entry.
    """
    owners = blocks.owners()
    lo, hi = blocks.bounds(rank)
    send: dict[int, set[int]] = {}
    recv: dict[int, set[int]] = {}
    for node in range(lo, hi):
        for j in graph.neighbors(node):
            owner = int(owners[j])
            if owner != rank:
                send.setdefault(owner, set()).add(node)
                recv.setdefault(owner, set()).add(int(j))
    return HaloPlan(
        rank=rank,
        send_ids={p: np.array(sorted(ids), dtype=np.intp) for p, ids in send.items()},
        recv_ids={p: np.array(sorted(ids), dtype=np.intp) for p, ids in recv.items()},
    )


def halo_exchange(comm: Comm, plan: HaloPlan, values: np.ndarray, tag: int) -> None:
    """Refresh this rank's ghost entries of ``values`` in place.

    Sends the owned boundary slice to every peer, then fills the ghost
    slots from the peers' matching sends.  Sends are posted non-blocking
    before any receive, so the exchange cannot deadlock regardless of peer
    ordering; per-peer payloads are dense arrays in the plan's agreed
    (sorted-id) order.
    """
    requests = [
        comm.isend(values[plan.send_ids[p]].copy(), dest=p, tag=tag)
        for p in plan.peers
    ]
    for p in plan.peers:
        values[plan.recv_ids[p]] = comm.recv(source=p, tag=tag)
    for req in requests:
        req.wait()


@dataclass(frozen=True)
class SpatialRunResult:
    """Outcome of a spatial run, shaped for the RunStore result contract.

    ``matrix`` is the final strategy configuration — ``(rows, cols)`` for
    lattice topologies, ``(n_nodes,)`` otherwise.  ``history`` holds the
    per-generation strategy counts (plain ints, JSON-safe).  The
    ``n_pc_events``/``n_mutations`` fields exist because
    :meth:`~repro.io.runstore.RunStore.save_result` stores one summary
    schema for every run family; spatial dynamics have no Nature phase, so
    both are zero.
    """

    matrix: np.ndarray
    names: tuple[str, ...]
    history: list[list[int]]
    generation: int
    n_adoptions: int
    n_pc_events: int = 0
    n_mutations: int = 0

    def counts(self) -> list[int]:
        """Final per-strategy node counts."""
        arr = np.bincount(self.matrix.reshape(-1), minlength=len(self.names))
        return [int(c) for c in arr]

    def shares(self) -> dict[str, float]:
        """Final per-strategy shares (plain floats, ``json.dumps``-able)."""
        n = self.matrix.size
        return {name: c / n for name, c in zip(self.names, self.counts())}


def _as_result(spec: SpatialRunSpec, state: np.ndarray, history: list, adoptions: int) -> SpatialRunResult:
    matrix = state
    if spec.graph.kind == "lattice":
        matrix = state.reshape(spec.graph.params["rows"], spec.graph.params["cols"])
    return SpatialRunResult(
        matrix=matrix,
        names=spec.strategy_names(),
        history=[[int(c) for c in counts] for counts in history],
        generation=spec.steps,
        n_adoptions=int(adoptions),
    )


def run_reference(spec: SpatialRunSpec) -> SpatialRunResult:
    """The single-process reference run (no Comm, no partitioning)."""
    game = spec.build_game()
    history = []
    adoptions = 0
    for _ in range(spec.steps):
        before = game.state.copy()
        game.step()
        adoptions += int(np.count_nonzero(game.state != before))
        history.append(game.counts())
    return _as_result(spec, game.state, history, adoptions)


def _spatial_rank_program(comm: Comm, spec_dict: dict):
    """One rank of a partitioned spatial run (module-level: must pickle).

    Every rank rebuilds the full graph, pair matrix and initial state from
    the spec (all deterministic), then owns one contiguous node block.  Per
    generation: refresh ghost strategies, score the owned block, refresh
    ghost scores, imitate on the owned block.  Rank 0 accumulates the
    per-generation global counts via a reduce and gathers the final blocks.
    """
    spec = SpatialRunSpec.from_dict(spec_dict)
    game = spec.build_game()
    graph = game.graph
    blocks = GraphBlocks(graph.n_nodes, comm.size)
    lo, hi = blocks.bounds(comm.rank)
    plan = build_halo_plan(graph, blocks, comm.rank)

    # Full-length working arrays; only the owned block plus the ghost
    # entries named by the plan are ever kept current.
    state = game.state.copy()
    scores = np.zeros(graph.n_nodes, dtype=np.float64)
    history = []
    adoptions = 0
    for _ in range(spec.steps):
        halo_exchange(comm, plan, state, STATE_TAG)
        scores[lo:hi] = game.block_payoffs(state, lo, hi)
        halo_exchange(comm, plan, scores, SCORE_TAG)
        new_block = game.block_imitate(state, scores, lo, hi)
        adoptions += int(np.count_nonzero(new_block != state[lo:hi]))
        state[lo:hi] = new_block
        local = np.bincount(state[lo:hi], minlength=game.n_strategies)
        counts = comm.reduce(local, root=0)
        if comm.rank == 0:
            history.append(counts)

    final_blocks = comm.gather(state[lo:hi], root=0)
    total_adoptions = comm.reduce(adoptions, root=0)
    if comm.rank != 0:
        return None
    return {
        "state": np.concatenate(final_blocks),
        "history": history,
        "adoptions": total_adoptions,
    }


def run_partitioned(spec: SpatialRunSpec) -> SpatialRunResult:
    """Run ``spec`` block-partitioned over its ranks and backend.

    ``n_ranks = 1`` short-circuits to :func:`run_reference`; larger worlds
    go through :func:`~repro.mpi.executor.run_spmd` on the spec's backend.
    Either way the returned state and counts are bit-identical to the
    reference — that is the module's contract, enforced by the parity
    tests.
    """
    if spec.n_ranks == 1:
        return run_reference(spec)
    result = run_spmd(
        spec.n_ranks,
        _spatial_rank_program,
        (spec.to_dict(),),
        backend=spec.backend,
        timeout=spec.attempt_timeout,
    )
    payload = result.returns[0]
    return _as_result(spec, payload["state"], payload["history"], payload["adoptions"])
