"""Checkpoint and resume for long evolution runs.

The paper's science runs span 10^7 generations; being able to stop and
resume *bit-exactly* matters.  A checkpoint captures the configuration, the
population matrix, the generation counter, and — the subtle part — the
position of every random stream the run has consumed, so a resumed driver
continues the exact trajectory the uninterrupted run would have produced
(the tests assert this).

Format: a single ``.npz`` file holding the strategy matrix plus a JSON blob
for everything else (stream states are PCG64 state dicts, which are plain
integers).  No pickle — checkpoints are safe to share.

Crash consistency
-----------------
Checkpoints are written for the express purpose of surviving a crash, so
the write itself must survive one too.  Both writers stage the file under a
temporary name in the destination directory, flush and ``fsync`` it, then
``os.replace`` it into place — on POSIX filesystems the final path either
holds the complete old file or the complete new one, never a torn hybrid.
Each file also embeds a content digest (over the matrix bytes and the
metadata) that :func:`load_checkpoint`/:func:`load_parallel_checkpoint`
verify, so silent corruption raises :class:`~repro.errors.CheckpointError`
naming the file instead of resuming from garbage.  When a directory may
still hold damaged files from pre-atomic writers (or torn by hardware),
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
from repro.population.population import Population

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
    "ParallelCheckpoint",
    "save_parallel_checkpoint",
    "load_parallel_checkpoint",
    "latest_valid_parallel_checkpoint",
    "write_torn_parallel_checkpoint",
    "PARALLEL_CHECKPOINT_VERSION",
]

#: Version 2 added the embedded content digest; version-1 files (no digest)
#: still load for backward compatibility.
CHECKPOINT_VERSION = 2

PARALLEL_CHECKPOINT_VERSION = 2

_COMPATIBLE_VERSIONS = (1, 2)

_PARALLEL_CKPT_RE = re.compile(r"^ckpt_(\d{8})\.npz$")


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


def _verify_digest(path: Path, matrix: np.ndarray, meta: dict) -> None:
    """Check the embedded content digest (required from version 2 on)."""
    if int(meta.get("version", 0)) < 2:
        return  # version-1 files predate the digest
    stored = meta.get("digest")
    if stored is None:
        raise CheckpointError(f"checkpoint {path} (version 2) is missing its content digest")
    actual = _content_digest(matrix, meta)
    if stored != actual:
        raise CheckpointError(
            f"checkpoint {path} failed its content check"
            f" (stored digest {stored}, computed {actual}) — the file is corrupt"
        )


def _check_version(path: Path, meta: dict, expected: int) -> None:
    if meta.get("version") not in _COMPATIBLE_VERSIONS:
        raise CheckpointError(
            f"checkpoint {path} version {meta.get('version')} unsupported"
            f" (expected one of {_COMPATIBLE_VERSIONS}, current {expected})"
        )


def _stream_states(driver: EvolutionDriver) -> dict:
    """Serialise the positions of all streams the driver has touched."""
    out = {}
    for key, gen in driver.streams._cache.items():
        state = gen.bit_generator.state
        out[json.dumps([repr(k) for k in key])] = {
            "bit_generator": state["bit_generator"],
            "state": state["state"]["state"],
            "inc": state["state"]["inc"],
            "has_uint32": state["has_uint32"],
            "uinteger": state["uinteger"],
        }
    return out


def _restore_stream_states(driver: EvolutionDriver, states: dict) -> None:
    reverse = {json.dumps([repr(k) for k in key]): key for key in _expected_keys(driver, states)}
    for encoded, st in states.items():
        key = reverse.get(encoded)
        if key is None:
            raise CheckpointError(f"checkpoint stream key {encoded} cannot be re-derived")
        gen = driver.streams.stream(*key)
        gen.bit_generator.state = {
            "bit_generator": st["bit_generator"],
            "state": {"state": int(st["state"]), "inc": int(st["inc"])},
            "has_uint32": int(st["has_uint32"]),
            "uinteger": int(st["uinteger"]),
        }


def _expected_keys(driver: EvolutionDriver, states: dict) -> list[tuple]:
    """Reconstruct stream keys from their encoded forms.

    Keys used by the serial driver are tuples of strings/ints; the encoding
    stores ``repr`` of each component, which we parse back with a literal
    eval restricted to those types.
    """
    import ast

    keys = []
    for encoded in states:
        parts = json.loads(encoded)
        key = tuple(ast.literal_eval(p) for p in parts)
        keys.append(key)
    return keys


def save_checkpoint(driver: EvolutionDriver, path: str | Path) -> None:
    """Write the driver's full resumable state to ``path`` (.npz).

    The write is crash-consistent (temp file + fsync + atomic rename) and
    the file embeds a content digest verified by :func:`load_checkpoint`.
    """
    path = Path(path)
    matrix = driver.population.matrix()
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": config_to_dict(driver.config),
        "generation": driver.generation,
        "streams": _stream_states(driver),
        "nature": {
            "n_pc_events": driver.nature.n_pc_events,
            "n_adoptions": driver.nature.n_adoptions,
            "n_mutations": driver.nature.n_mutations,
        },
    }
    meta["digest"] = _content_digest(matrix, meta)
    _atomic_savez(path, matrix, meta)


def load_checkpoint(path: str | Path) -> EvolutionDriver:
    """Rebuild a driver from a checkpoint; it resumes the exact trajectory."""
    path = Path(path)
    matrix, meta = _read_npz(path)
    _check_version(path, meta, CHECKPOINT_VERSION)
    _verify_digest(path, matrix, meta)
    config = config_from_dict(meta["config"])
    population = Population(config, matrix)
    driver = EvolutionDriver(config, population=population)
    driver.generation = int(meta["generation"])
    _restore_stream_states(driver, meta["streams"])
    nature = meta.get("nature", {})
    driver.nature.n_pc_events = int(nature.get("n_pc_events", 0))
    driver.nature.n_adoptions = int(nature.get("n_adoptions", 0))
    driver.nature.n_mutations = int(nature.get("n_mutations", 0))
    return driver


# -- parallel (fault-tolerant) checkpoints --------------------------------------------


@dataclass(frozen=True)
class ParallelCheckpoint:
    """Resumable state of a :class:`~repro.parallel.runner.ParallelSimulation`.

    Because every rank's population replica is identical and all worker
    randomness is keyed by ``(generation, sset)``, the only cursor state a
    parallel run carries is the Nature Agent's: its sequential
    ``("nature",)`` PCG64 stream position and its event counters.  A resumed
    run therefore continues the exact trajectory from ``generation + 1`` at
    *any* rank count, in a fresh world whose ranks are all alive.  (Files
    from writers that also stored the run's failed ranks still load; that
    key is not read.)
    """

    config: SimulationConfig
    generation: int
    matrix: np.ndarray
    nature_rng_state: dict
    n_pc_events: int
    n_adoptions: int
    n_mutations: int


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
        "version": PARALLEL_CHECKPOINT_VERSION,
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
    """Write a parallel run's resumable state to ``path`` (.npz); returns it.

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
    """Read back a :func:`save_parallel_checkpoint` file."""
    path = Path(path)
    matrix, meta = _read_npz(path)
    if meta.get("kind") != "parallel":
        raise CheckpointError(f"{path} is not a parallel checkpoint (kind={meta.get('kind')!r})")
    _check_version(path, meta, PARALLEL_CHECKPOINT_VERSION)
    _verify_digest(path, matrix, meta)
    nature = meta.get("nature", {})
    return ParallelCheckpoint(
        config=config_from_dict(meta["config"]),
        generation=int(meta["generation"]),
        matrix=matrix,
        nature_rng_state=_rng_state_from_json(meta["nature_rng"]),
        n_pc_events=int(nature.get("n_pc_events", 0)),
        n_adoptions=int(nature.get("n_adoptions", 0)),
        n_mutations=int(nature.get("n_mutations", 0)),
    )


def _ranked_parallel_checkpoints(directory: str | Path) -> list[tuple[int, Path]]:
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _PARALLEL_CKPT_RE.match(entry.name)
        if match is not None:
            found.append((int(match.group(1)), entry))
    found.sort(reverse=True)
    return found


def latest_valid_parallel_checkpoint(directory: str | Path) -> Path | None:
    """The newest ``ckpt_*.npz`` in ``directory`` that actually loads.

    Scans highest generation first and returns the first file that passes
    :func:`load_parallel_checkpoint` (format, version, and content digest),
    stepping past files torn by a mid-write kill or corrupted on disk.
    Returns ``None`` when no checkpoint in the directory is usable.
    """
    for _, entry in _ranked_parallel_checkpoints(directory):
        try:
            load_parallel_checkpoint(entry)
        except CheckpointError:
            continue
        return entry
    return None
