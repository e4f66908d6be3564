"""The run store: evolve under a key, fetch or resume by key later.

A :class:`RunStore` is the durable side of the run service — a key-value
store over the filesystem where the key is ``tenant/run_id`` and the value
is everything a run is: its declarative spec, its crash-consistent
checkpoints, its streamed event log, and (once finished) its result with
the final strategy matrix.  The layout under ``root``::

    <root>/<tenant>/<run_id>/
        spec.json          # RunSpec.to_dict(), written once at admission
        status.json        # queue-owned lifecycle record (atomic replace)
        outcome.json       # worker-owned completion record (atomic replace)
        events.jsonl       # streamed progress/restart events (append-only)
        result.npz         # final matrix + summary, digest-verified
        checkpoints/       # ckpt_*.npz (repro.io.checkpoints format)

Everything is either atomically replaced (JSON records, the result — the
same temp-file + fsync + ``os.replace`` discipline as
:mod:`repro.io.checkpoints`) or append-only (the event log), so a store
shared between a scheduler process and SIGKILL-able worker processes never
holds a torn record at a final path.  Results embed a content digest
verified on load; a run retrieved by key years later either equals the
live result bit for bit or raises :class:`~repro.errors.RunStoreError`.

Keys are validated (a conservative ``[A-Za-z0-9._-]`` charset) so a tenant
name can never traverse out of the root.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import RunStoreError
from repro.io.checkpoints import _atomic_savez, _content_digest, _read_npz

__all__ = ["RunKey", "StoredResult", "RunStore", "RESULT_VERSION"]

RESULT_VERSION = 1

#: Conservative key charset: no separators, no dots-only names, no traversal.
_KEY_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


def _check_key_part(part: str, what: str) -> str:
    if not isinstance(part, str) or not _KEY_RE.match(part):
        raise RunStoreError(
            f"invalid {what} {part!r}: need 1-128 chars of [A-Za-z0-9._-],"
            " starting with an alphanumeric"
        )
    return part


@dataclass(frozen=True)
class RunKey:
    """The address of one run: ``tenant/run_id``."""

    tenant: str
    run_id: str

    def __post_init__(self) -> None:
        _check_key_part(self.tenant, "tenant")
        _check_key_part(self.run_id, "run_id")

    def __str__(self) -> str:
        return f"{self.tenant}/{self.run_id}"


@dataclass(frozen=True)
class StoredResult:
    """A result fetched back from the store by key.

    Attributes
    ----------
    matrix:
        The run's final (n_ssets, n_states) strategy matrix.
    generation:
        Generations completed.
    attempts:
        Supervisor launches the run took (1 = no restart).
    n_pc_events, n_adoptions, n_mutations:
        The Nature Agent's counters.
    meta:
        The full stored metadata record (digest, version, extras).
    """

    matrix: np.ndarray
    generation: int
    attempts: int
    n_pc_events: int
    n_adoptions: int
    n_mutations: int
    meta: dict


def _atomic_write_text(path: Path, text: str) -> None:
    """Same crash-consistency discipline as the checkpoint writer.

    The temp name carries pid *and* thread id: concurrent writers of the
    same record (two queues racing on the lease file, say) must never
    share a temp path, or one replaces the other's already-moved file.
    """
    tmp = path.with_name(
        f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _append_line(path: Path, line: str, *, durable: bool = False) -> None:
    """Append one newline-terminated record; ``durable`` fsyncs it to disk.

    One ``write`` call per line keeps the append atomic enough for JSONL
    (readers tolerate a torn trailing line either way); ``durable`` is for
    records that must survive a power loss, not just a process death —
    terminal and restart events, journal transitions.

    A file whose last byte is not a newline holds a torn tail from a
    writer that died mid-append; gluing the next record onto it would
    corrupt that record too, so the torn prefix is first sealed onto its
    own line (readers skip unparseable lines).
    """
    with open(path, "ab") as fh:
        prefix = b""
        if fh.tell() > 0:
            with open(path, "rb") as check:
                check.seek(-1, os.SEEK_END)
                if check.read(1) != b"\n":
                    prefix = b"\n"
        fh.write(prefix + line.encode("utf-8") + b"\n")
        fh.flush()
        if durable:
            os.fsync(fh.fileno())


class RunStore:
    """Filesystem-backed store of runs, keyed ``tenant/run_id``.

    Safe for concurrent use by one scheduler and many worker processes:
    every record is atomically replaced or append-only, and readers verify
    digests rather than trusting paths.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- write primitives (overridable; the fault layer hooks these) ---------

    def _write_text(self, path: Path, text: str) -> None:
        """Atomically replace ``path`` with ``text`` (temp + fsync + rename)."""
        _atomic_write_text(path, text)

    def _append_line(self, path: Path, line: str, *, durable: bool = False) -> None:
        """Append one record line to ``path`` (fsynced when ``durable``)."""
        _append_line(path, line, durable=durable)

    # -- paths ---------------------------------------------------------------

    def key(self, tenant: str, run_id: str) -> RunKey:
        """Validate and build the :class:`RunKey` for ``tenant/run_id``."""
        return RunKey(tenant, run_id)

    def run_dir(self, key: RunKey) -> Path:
        """The run's directory (may not exist yet)."""
        return self.root / key.tenant / key.run_id

    def checkpoint_dir(self, key: RunKey) -> Path:
        """Where the run's ``ckpt_*.npz`` files live."""
        return self.run_dir(key) / "checkpoints"

    def events_path(self, key: RunKey) -> Path:
        """The run's append-only JSONL event log."""
        return self.run_dir(key) / "events.jsonl"

    def exists(self, key: RunKey) -> bool:
        """Whether the run has been created (its spec is on disk)."""
        return (self.run_dir(key) / "spec.json").exists()

    # -- admission -----------------------------------------------------------

    def create_run(self, key: RunKey, spec) -> Path:
        """Admit a run: persist its spec under the key (exactly once).

        Re-creating an existing key raises :class:`~repro.errors.RunStoreError`
        — a key names one run forever; resubmission *resumes* it instead
        (the checkpoints are right there).
        """
        run_dir = self.run_dir(key)
        if self.exists(key):
            raise RunStoreError(f"run {key} already exists; keys are write-once")
        run_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoint_dir(key).mkdir(exist_ok=True)
        try:
            self._write_text(
                run_dir / "spec.json", json.dumps(spec.to_dict(), indent=2, sort_keys=True)
            )
        except OSError as exc:
            raise RunStoreError(f"cannot persist spec for run {key}: {exc}") from exc
        return run_dir

    def load_spec(self, key: RunKey):
        """Read back the run's spec (any kind — evolution or spatial)."""
        from repro.parallel.spec import spec_from_dict  # deferred: io must not need parallel

        path = self.run_dir(key) / "spec.json"
        if not path.exists():
            raise RunStoreError(f"no run {key} in this store (missing {path})")
        try:
            return spec_from_dict(json.loads(path.read_text(encoding="utf-8")))
        except (json.JSONDecodeError, OSError) as exc:
            raise RunStoreError(f"unreadable spec for run {key}: {exc}") from exc

    # -- lifecycle records ---------------------------------------------------

    def write_status(self, key: RunKey, status: dict) -> None:
        """Atomically replace the queue-owned ``status.json``."""
        try:
            self.run_dir(key).mkdir(parents=True, exist_ok=True)
            self._write_text(self.run_dir(key) / "status.json", json.dumps(status, indent=2))
        except OSError as exc:
            raise RunStoreError(f"cannot write status for run {key}: {exc}") from exc

    def read_status(self, key: RunKey) -> dict | None:
        """The last written status record, or ``None`` (absent or torn)."""
        return self._read_json_record(key, "status.json")

    def write_outcome(self, key: RunKey, outcome: dict) -> None:
        """Atomically replace the worker-owned ``outcome.json``."""
        try:
            self._write_text(self.run_dir(key) / "outcome.json", json.dumps(outcome, indent=2))
        except OSError as exc:
            raise RunStoreError(f"cannot write outcome for run {key}: {exc}") from exc

    def read_outcome(self, key: RunKey) -> dict | None:
        """The worker's completion record, or ``None`` (did not finish)."""
        return self._read_json_record(key, "outcome.json")

    def _read_json_record(self, key: RunKey, name: str) -> dict | None:
        """One JSON lifecycle record; ``None`` when absent or torn.

        A record that fails to *parse* is treated as absent (a torn write by
        a pre-atomic writer, recoverable by fsck); an ``OSError`` on a file
        that exists (EIO, a permissions regression) is a store fault and
        surfaces as :class:`~repro.errors.RunStoreError` naming the run.
        """
        path = self.run_dir(key) / name
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            return None
        except OSError as exc:
            raise RunStoreError(f"cannot read {name} for run {key}: {exc}") from exc

    def append_event(self, key: RunKey, event: dict, *, durable: bool = False) -> None:
        """Append one record to the run's event log (flushed immediately).

        ``durable=True`` additionally fsyncs the append — the discipline for
        terminal and restart events, which must survive a power loss, not
        just a process death.  IO failures (ENOSPC, EIO) surface as
        :class:`~repro.errors.RunStoreError` naming the run.
        """
        try:
            self.run_dir(key).mkdir(parents=True, exist_ok=True)
            self._append_line(self.events_path(key), json.dumps(event), durable=durable)
        except OSError as exc:
            raise RunStoreError(f"cannot append to event log for run {key}: {exc}") from exc

    def read_events(self, key: RunKey) -> list[dict]:
        """Every parseable event logged so far, oldest first."""
        from repro.obs.stream import read_events

        return read_events(self.events_path(key))

    # -- results -------------------------------------------------------------

    def save_result(self, key: RunKey, result, *, attempts: int = 1) -> Path:
        """Persist a finished run's result under the key (digest-embedded).

        ``result`` is a :class:`~repro.parallel.runner.ParallelRunResult`
        (or any object with the same ``matrix``/counter attributes);
        ``attempts`` comes from the supervisor.  The write is atomic.
        """
        path = self.run_dir(key) / "result.npz"
        matrix = np.asarray(result.matrix)
        meta = {
            "version": RESULT_VERSION,
            "kind": "result",
            "tenant": key.tenant,
            "run_id": key.run_id,
            "generation": int(result.generation),
            "attempts": int(attempts),
            "n_pc_events": int(result.n_pc_events),
            "n_adoptions": int(result.n_adoptions),
            "n_mutations": int(result.n_mutations),
        }
        meta["digest"] = _content_digest(matrix, meta)
        _atomic_savez(path, matrix, meta)
        return path

    def has_result(self, key: RunKey) -> bool:
        """Whether a result has been stored for the key."""
        return (self.run_dir(key) / "result.npz").exists()

    def load_result(self, key: RunKey) -> StoredResult:
        """Fetch a result by key, verifying its content digest."""
        path = self.run_dir(key) / "result.npz"
        try:
            matrix, meta = _read_npz(path)
        except Exception as exc:  # CheckpointError or worse
            raise RunStoreError(f"no readable result for run {key}: {exc}") from exc
        if meta.get("kind") != "result":
            raise RunStoreError(f"{path} is not a result record (kind={meta.get('kind')!r})")
        stored = meta.get("digest")
        if stored is None or stored != _content_digest(matrix, meta):
            raise RunStoreError(f"result for run {key} failed its content check")
        return StoredResult(
            matrix=matrix,
            generation=int(meta["generation"]),
            attempts=int(meta.get("attempts", 1)),
            n_pc_events=int(meta.get("n_pc_events", 0)),
            n_adoptions=int(meta.get("n_adoptions", 0)),
            n_mutations=int(meta.get("n_mutations", 0)),
            meta=meta,
        )

    # -- listing -------------------------------------------------------------

    def list_tenants(self) -> list[str]:
        """Tenants with at least one run, sorted."""
        return sorted(
            p.name for p in self.root.iterdir() if p.is_dir() and not p.name.startswith(".")
        )

    def list_runs(self, tenant: str) -> list[str]:
        """Run ids stored under ``tenant``, sorted."""
        tenant_dir = self.root / _check_key_part(tenant, "tenant")
        if not tenant_dir.is_dir():
            return []
        return sorted(
            p.name for p in tenant_dir.iterdir() if (p / "spec.json").exists()
        )

    def iter_keys(self) -> Iterator[RunKey]:
        """Every run key in the store, tenant-major order."""
        for tenant in self.list_tenants():
            for run_id in self.list_runs(tenant):
                yield RunKey(tenant, run_id)
