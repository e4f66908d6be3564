"""Checkpoint and resume for long evolution runs.

The paper's science runs span 10^7 generations; being able to stop and
resume *bit-exactly* matters.  Every worker's randomness is keyed by
``(generation, sset)``, so a run's whole resumable cursor is the Nature
Agent's: the position of its ``("nature",)`` stream, its three event
counters, the generation it has closed, plus the population matrix and the
configuration.  :class:`ParallelCheckpoint` is exactly that, and it is the
one on-disk run state: the serial driver (:func:`save_checkpoint` /
:func:`load_checkpoint`) and the parallel runner write and read the same
file, so either resumes the other's checkpoint on the exact trajectory the
uninterrupted run would have produced (the tests assert this).

Format: a single ``.npz`` file holding the strategy matrix plus a JSON blob
for everything else (the stream state is a PCG64 state dict, plain
integers).  No pickle — checkpoints are safe to share.  Files from the
serial driver's earlier writer (no ``kind``; every cached stream under a
``streams`` dict) still load: only their ``'nature'`` entry is cursor state.

Crash consistency
-----------------
Checkpoints are written for the express purpose of surviving a crash, so
the write itself must survive one too.  The writer stages the file under a
temporary name in the destination directory, flushes and ``fsync`` s it,
then ``os.replace`` s it into place — on POSIX filesystems the final path
either holds the complete old file or the complete new one, never a torn
hybrid.  Each file also embeds a content digest (over the matrix bytes and
the metadata) that :func:`load_parallel_checkpoint` verifies, so silent
corruption raises :class:`~repro.errors.CheckpointError` naming the file
instead of resuming from garbage.  When a directory may still hold damaged
files from pre-atomic writers (or torn by hardware),
:func:`latest_valid_parallel_checkpoint` scans back to the newest file that
actually loads.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import SimulationConfig
from repro.errors import CheckpointError
from repro.io.records import config_from_dict, config_to_dict
from repro.population.dynamics import EvolutionDriver
from repro.population.nature import NatureAgent
from repro.population.population import Population
from repro.rng import stream_for

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
    "ParallelCheckpoint",
    "save_parallel_checkpoint",
    "load_parallel_checkpoint",
    "latest_valid_parallel_checkpoint",
    "write_torn_parallel_checkpoint",
]

#: Version 2 added the embedded content digest; version-1 files (no digest)
#: still load for backward compatibility.
CHECKPOINT_VERSION = 2

_COMPATIBLE_VERSIONS = (1, 2)

_CKPT_RE = re.compile(r"^ckpt_\d{8}\.npz$")

#: How the serial driver's earlier writer keyed the ``("nature",)`` stream.
_LEGACY_NATURE_KEY = json.dumps([repr("nature")])


def _content_digest(matrix: np.ndarray, meta: dict) -> str:
    """Digest over the matrix bytes and the metadata (minus the digest itself).

    The metadata is hashed in canonical form (sorted keys) so the digest is
    independent of dict ordering; the matrix contributes dtype, shape and
    raw bytes so a single flipped element is caught.
    """
    meta = {k: v for k, v in meta.items() if k != "digest"}
    h = hashlib.blake2b(digest_size=16)
    h.update(str(matrix.dtype).encode())
    h.update(repr(tuple(matrix.shape)).encode())
    h.update(np.ascontiguousarray(matrix).tobytes())
    h.update(json.dumps(meta, sort_keys=True).encode())
    return h.hexdigest()


def _savez_payload(matrix: np.ndarray, meta: dict) -> dict[str, np.ndarray]:
    return {
        "matrix": matrix,
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    }


def _atomic_savez(path: Path, matrix: np.ndarray, meta: dict) -> None:
    """Write the checkpoint arrays to ``path`` via temp file + atomic rename.

    The temp file lives in the destination directory (``os.replace`` must
    not cross filesystems) and is fsynced before the rename, so after a
    crash the final path holds either the previous complete checkpoint or
    the new one — never partial bytes.
    """
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **_savez_payload(matrix, meta))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    # Best-effort directory sync so the rename itself is durable.
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass


def _read_npz(path: Path) -> tuple[np.ndarray, dict]:
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path) as data:
            matrix = data["matrix"]
            meta = json.loads(bytes(data["meta"].tobytes()).decode())
    except (OSError, ValueError, KeyError, json.JSONDecodeError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    return matrix, meta


@dataclass(frozen=True)
class ParallelCheckpoint:
    """Resumable state of a run, serial or parallel.

    Because every rank's population replica is identical and all worker
    randomness is keyed by ``(generation, sset)``, the only cursor state a
    run carries is the Nature Agent's: its sequential ``("nature",)`` PCG64
    stream position and its event counters.  A resumed run therefore
    continues the exact trajectory from ``generation + 1`` in the serial
    driver or at *any* rank count, in a fresh world whose ranks are all
    alive.  (Files from writers that also stored the run's failed ranks
    still load; that key is not read.)
    """

    config: SimulationConfig
    generation: int
    matrix: np.ndarray
    nature_rng_state: dict
    n_pc_events: int
    n_adoptions: int
    n_mutations: int

    @classmethod
    def capture(cls, nature: NatureAgent, matrix: np.ndarray) -> "ParallelCheckpoint":
        """The cursor of a run whose Nature stands on a generation boundary."""
        return cls(
            nature.config, nature.closed, matrix, nature.rng_state,
            nature.n_pc_events, nature.n_adoptions, nature.n_mutations,
        )

    def restore(self, nature: NatureAgent) -> None:
        """Put a freshly built ``nature`` where this checkpoint's run stood."""
        nature.rng_state = self.nature_rng_state
        nature.n_pc_events = self.n_pc_events
        nature.n_adoptions = self.n_adoptions
        nature.n_mutations = self.n_mutations
        nature.closed = self.generation


def save_checkpoint(driver: EvolutionDriver, path: str | Path) -> Path:
    """Write the serial driver's resumable state to ``path`` (.npz); returns it.

    The file is :func:`save_parallel_checkpoint`'s, so the parallel runner
    resumes it too.
    """
    return save_parallel_checkpoint(
        ParallelCheckpoint.capture(driver.nature, driver.population.matrix()), path
    )


def load_checkpoint(path: str | Path) -> EvolutionDriver:
    """Rebuild a serial driver from any run checkpoint; it resumes the exact trajectory."""
    state = load_parallel_checkpoint(path)
    driver = EvolutionDriver(state.config, population=Population(state.config, state.matrix))
    state.restore(driver.nature)
    return driver


def _rng_state_to_json(state: dict) -> dict:
    return {
        "bit_generator": state["bit_generator"],
        "state": str(state["state"]["state"]),
        "inc": str(state["state"]["inc"]),
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }


def _rng_state_from_json(data: dict) -> dict:
    return {
        "bit_generator": data["bit_generator"],
        "state": {"state": int(data["state"]), "inc": int(data["inc"])},
        "has_uint32": int(data["has_uint32"]),
        "uinteger": int(data["uinteger"]),
    }


def _parallel_ckpt_path(state: ParallelCheckpoint, path: str | Path) -> Path:
    path = Path(path)
    if path.is_dir() or path.suffix != ".npz":
        path.mkdir(parents=True, exist_ok=True)
        path = path / f"ckpt_{state.generation:08d}.npz"
    return path


def _parallel_ckpt_meta(state: ParallelCheckpoint) -> dict:
    meta = {
        "version": CHECKPOINT_VERSION,
        "kind": "parallel",
        "config": config_to_dict(state.config),
        "generation": int(state.generation),
        "nature_rng": _rng_state_to_json(state.nature_rng_state),
        "nature": {
            "n_pc_events": int(state.n_pc_events),
            "n_adoptions": int(state.n_adoptions),
            "n_mutations": int(state.n_mutations),
        },
    }
    meta["digest"] = _content_digest(state.matrix, meta)
    return meta


def save_parallel_checkpoint(state: ParallelCheckpoint, path: str | Path) -> Path:
    """Write a run's resumable state to ``path`` (.npz); returns it.

    When ``path`` is a directory, the file is named ``ckpt_<generation>.npz``
    inside it, which is the layout :func:`latest_valid_parallel_checkpoint`
    scans.
    The write is crash-consistent (temp file + fsync + atomic rename) and
    the file embeds a content digest verified on load.
    """
    path = _parallel_ckpt_path(state, path)
    _atomic_savez(path, state.matrix, _parallel_ckpt_meta(state))
    return path


def write_torn_parallel_checkpoint(
    state: ParallelCheckpoint, path: str | Path, fraction: float = 0.5
) -> Path:
    """Deliberately leave a *torn* checkpoint file at the final path.

    Chaos tooling: this reproduces what a pre-atomic writer left behind when
    killed mid-write — the leading ``fraction`` of a valid ``.npz`` stream,
    directly at ``ckpt_<generation>.npz``.  Used by the
    ``kill_during_checkpoint`` fault and by recovery tests;
    :func:`latest_valid_parallel_checkpoint` must skip such files.
    """
    path = _parallel_ckpt_path(state, path)
    buf = io.BytesIO()
    np.savez_compressed(buf, **_savez_payload(state.matrix, _parallel_ckpt_meta(state)))
    blob = buf.getvalue()
    cut = max(1, min(len(blob) - 1, int(len(blob) * fraction)))
    with open(path, "wb") as fh:
        fh.write(blob[:cut])
        fh.flush()
        os.fsync(fh.fileno())
    return path


def load_parallel_checkpoint(path: str | Path) -> ParallelCheckpoint:
    """Read back a run checkpoint, verifying its version and content digest.

    Reads what :func:`save_parallel_checkpoint` writes and the serial
    driver's earlier files alike; any other ``kind`` raises
    :class:`~repro.errors.CheckpointError` naming the file.
    """
    path = Path(path)
    matrix, meta = _read_npz(path)
    kind = meta.get("kind")
    if kind == "parallel":
        rng = meta["nature_rng"]
    elif kind is None and isinstance(meta.get("streams"), dict):
        # The serial driver's earlier file: every other stream it cached is
        # drawn fresh per use, and a missing entry was never drawn from.
        rng = meta["streams"].get(_LEGACY_NATURE_KEY)
    else:
        raise CheckpointError(f"{path} is not a run checkpoint (kind={kind!r})")
    version = meta.get("version")
    if version not in _COMPATIBLE_VERSIONS:
        raise CheckpointError(
            f"checkpoint {path} version {version} unsupported"
            f" (expected one of {_COMPATIBLE_VERSIONS}, current {CHECKPOINT_VERSION})"
        )
    if version >= 2:  # version-1 files predate the digest
        stored, actual = meta.get("digest"), _content_digest(matrix, meta)
        if stored is None:
            raise CheckpointError(f"checkpoint {path} (version 2) is missing its content digest")
        if stored != actual:
            raise CheckpointError(
                f"checkpoint {path} failed its content check"
                f" (stored digest {stored}, computed {actual}) — the file is corrupt"
            )
    config = config_from_dict(meta["config"])
    nature = meta.get("nature", {})
    return ParallelCheckpoint(
        config=config,
        generation=int(meta["generation"]),
        matrix=matrix,
        nature_rng_state=(
            _rng_state_from_json(rng)
            if rng is not None
            else stream_for(config.seed, "nature").bit_generator.state
        ),
        n_pc_events=int(nature.get("n_pc_events", 0)),
        n_adoptions=int(nature.get("n_adoptions", 0)),
        n_mutations=int(nature.get("n_mutations", 0)),
    )


def latest_valid_parallel_checkpoint(directory: str | Path) -> Path | None:
    """The newest ``ckpt_*.npz`` in ``directory`` that actually loads.

    Scans highest generation first and returns the first file that passes
    :func:`load_parallel_checkpoint` (format, version, and content digest),
    stepping past files torn by a mid-write kill or corrupted on disk.
    Returns ``None`` when no checkpoint in the directory is usable.
    """
    # Eight zero-padded digits: name order is generation order.
    found = sorted(p for p in Path(directory).glob("ckpt_*.npz") if _CKPT_RE.match(p.name))
    for entry in reversed(found):
        try:
            load_parallel_checkpoint(entry)
        except CheckpointError:
            continue
        return entry
    return None
