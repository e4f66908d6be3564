"""End-to-end benchmark for the evolution runner and the run service.

``python3 -m bench --workload W --seed S --seconds T --trace 0|1`` is the
contract ``BENCHMARK.json`` names; ``python3 -m bench --seed S`` runs every
workload in both passes and writes a result file; ``python3 -m bench compare
A.json B.json`` applies the declared bounds.  See ``bench/README.md``.

The package imports the program from ``<checkout>/src`` only — never from an
installed copy — so a checkout without the program fails instead of timing
something else.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Ranks of the worlds the mpi and parallel probes launch.  The parent needs it
#: too: ``share.comm`` spreads a broadcast's cost over its ``PROBE_RANKS - 1`` messages.
PROBE_RANKS = 3


class BenchError(Exception):
    """The benchmark cannot run or produced an invalid result."""


def exit_on_sigterm() -> None:
    """Make SIGTERM unwind like Ctrl-C does, so servers, worlds and temp dirs
    are released by the same ``finally`` blocks."""

    def terminate(signum, frame) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)


def bootstrap() -> None:
    """Put the checkout's ``src`` first on the import path, here and in children."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    wanted = [src, str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(wanted + [p for p in inherited if p not in wanted])
