"""Run records, checkpointing and the keyed run store.

* :mod:`repro.io.records` — JSON run metadata and config records.
* :mod:`repro.io.checkpoints` — bit-exact save/resume of evolution runs.
* :mod:`repro.io.runstore` — tenant/run-keyed store of specs, checkpoints,
  event logs and digest-verified results (the run service's durable layer).
"""

from repro.io.checkpoints import CHECKPOINT_VERSION, load_checkpoint, save_checkpoint
from repro.io.records import (
    config_from_dict,
    config_to_dict,
    read_run_metadata,
    write_run_metadata,
)
from repro.io.runstore import RunKey, RunStore, StoredResult

__all__ = [
    "CHECKPOINT_VERSION",
    "load_checkpoint",
    "save_checkpoint",
    "RunKey",
    "RunStore",
    "StoredResult",
    "config_from_dict",
    "config_to_dict",
    "read_run_metadata",
    "write_run_metadata",
]
