"""The paper's parallel algorithm on the virtual MPI runtime.

* :mod:`repro.parallel.decomposition` — SSets/agents onto ranks (Table VIII).
* :mod:`repro.parallel.protocol` — the per-window wire protocol.
* :mod:`repro.parallel.runner` — Nature rank + workers, one program for
  every run, bit-identical to the serial driver.
* :mod:`repro.parallel.supervisor` — self-healing runs: bounded restarts
  from crash-consistent checkpoints.
* :mod:`repro.parallel.spec` — declarative :class:`RunSpec`/:class:`FaultPolicy`
  consumed by ``ParallelSimulation.from_spec`` / ``SupervisedRun.from_spec``.
"""

from repro.parallel.decomposition import (
    SSetDecomposition,
    agents_per_processor,
    owner_map_with_failures,
    table8_rows,
)
from repro.parallel.protocol import DegradationEvent, RecoveryEvent
from repro.parallel.runner import ParallelRunResult, ParallelSimulation
from repro.parallel.spec import FaultPolicy, RunSpec
from repro.parallel.supervisor import RestartEvent, SupervisedResult, SupervisedRun

__all__ = [
    "SSetDecomposition",
    "agents_per_processor",
    "owner_map_with_failures",
    "table8_rows",
    "DegradationEvent",
    "RecoveryEvent",
    "ParallelRunResult",
    "ParallelSimulation",
    "FaultPolicy",
    "RunSpec",
    "SupervisedRun",
    "SupervisedResult",
    "RestartEvent",
]
