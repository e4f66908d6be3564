"""Run the parallel algorithm on *real* MPI via mpi4py.

The rank program (:func:`repro.parallel.runner._rank_program`) only touches
a small communicator surface — ``rank``, ``size``, ``send``, ``recv``,
``bcast``, ``allgather`` — chosen to match mpi4py's lower-case object API
exactly.  On a cluster with mpi4py installed, the same code that runs on
the virtual runtime runs on the real network:

.. code:: bash

    mpiexec -n 64 python -m repro.parallel.mpi4py_backend \\
        --n-ssets 1024 --generations 10000 --memory 1 --seed 7

This module has no hard mpi4py dependency; importing it without mpi4py is
fine, and :func:`main` raises a clear error.  The offline test suite checks
interface compatibility (the virtual ``Comm`` satisfies the same protocol
the rank program needs) rather than launching real MPI.
"""

from __future__ import annotations

import argparse
import inspect
from typing import Any, Protocol, runtime_checkable

from repro.config import SimulationConfig
from repro.errors import MPIError

__all__ = ["CommLike", "main", "run_on_comm"]


@runtime_checkable
class CommLike(Protocol):
    """The communicator surface the rank program needs.

    Both :class:`repro.mpi.comm.Comm` and ``mpi4py.MPI.Comm`` satisfy it
    (mpi4py exposes ``rank``/``size`` properties and the lower-case
    pickle-based methods with these signatures).
    """

    rank: int
    size: int

    def send(self, payload: Any, dest: int, tag: int = 0) -> None: ...  # pragma: no cover

    def recv(self, source: int = ..., tag: int = ...) -> Any: ...  # pragma: no cover

    def bcast(self, payload: Any, root: int = 0) -> Any: ...  # pragma: no cover

    def allgather(self, payload: Any) -> list: ...  # pragma: no cover


class _BlockingRecv:
    """A :class:`CommLike` whose ``recv`` accepts the rank program's
    ``timeout=`` and drops it: MPI's ``recv`` blocks until matched and has
    no deadline to give.  Everything else forwards."""

    def __init__(self, comm: CommLike) -> None:
        self._comm = comm

    def __getattr__(self, name: str) -> Any:
        return getattr(self._comm, name)

    def recv(self, source: int, tag: int, timeout: float | None = None) -> Any:
        return self._comm.recv(source=source, tag=tag)


def _recv_takes_timeout(comm: CommLike) -> bool:
    try:
        return "timeout" in inspect.signature(comm.recv).parameters
    except (TypeError, ValueError):  # a C-implemented method without a signature
        return False


def run_on_comm(comm: CommLike, config: SimulationConfig, eager_games: bool = False) -> dict:
    """Run the rank program on any conforming communicator.

    Returns the rank's output dict; rank 0's contains the final matrix and
    Nature Agent counters (see :mod:`repro.parallel.runner`).
    """
    from repro.parallel.runner import _rank_program

    if comm.size < 2:
        raise MPIError("need >= 2 ranks (Nature Agent + 1 worker)")
    if not _recv_takes_timeout(comm):
        comm = _BlockingRecv(comm)
    return _rank_program(comm, config, eager_games)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.mpi4py_backend",
        description="Run the evolutionary-game simulation under mpiexec.",
    )
    parser.add_argument("--memory", type=int, default=1)
    parser.add_argument("--n-ssets", type=int, default=64)
    parser.add_argument("--generations", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pc-rate", type=float, default=0.1)
    parser.add_argument("--mutation-rate", type=float, default=0.05)
    parser.add_argument("--eager-games", action="store_true",
                        help="play the full per-generation game load (paper-faithful)")
    parser.add_argument("--output", default=None,
                        help="rank 0 writes the final strategy matrix here (.npy)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """mpiexec entry point (requires mpi4py)."""
    try:
        from mpi4py import MPI
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise MPIError(
            "mpi4py is not installed; run on the virtual runtime via"
            " repro.parallel.ParallelSimulation instead"
        ) from exc

    args = _build_parser().parse_args(argv)
    config = SimulationConfig(
        memory=args.memory,
        n_ssets=args.n_ssets,
        generations=args.generations,
        seed=args.seed,
        pc_rate=args.pc_rate,
        mutation_rate=args.mutation_rate,
    )
    comm = MPI.COMM_WORLD
    out = run_on_comm(comm, config, eager_games=args.eager_games)
    if comm.rank == 0:  # pragma: no cover - needs real MPI
        print(
            f"done: {config.generations} generations on {comm.size} ranks;"
            f" pc={out['n_pc_events']} adoptions={out['n_adoptions']}"
            f" mutations={out['n_mutations']}"
        )
        if args.output:
            import numpy as np

            np.save(args.output, out["matrix"])
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
