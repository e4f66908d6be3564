"""Minimal in-tree PEP 517/660 build backend (stdlib only).

This environment is offline, with setuptools 65 and no ``wheel`` package, so
the standard backends cannot build wheels — and ``pip install -e .`` fails.
This backend implements just enough of PEP 517/660 for this pure-Python
src-layout project:

* ``build_editable`` produces a wheel containing a ``.pth`` file pointing at
  ``src/`` (the classic editable mechanism) plus the dist-info metadata.
* ``build_wheel`` packages everything under ``src/`` into a proper wheel.
* ``build_sdist`` emits a plain tar.gz of the project tree.

Keep it boring: no configuration, no extension modules, metadata hard-coded
in :data:`METADATA_FIELDS` next to ``pyproject.toml``'s values.
"""

from __future__ import annotations

import base64
import hashlib
import io
import os
import tarfile
import zipfile

NAME = "repro"
VERSION = "1.0.0"
TAG = "py3-none-any"

METADATA_FIELDS = [
    ("Metadata-Version", "2.1"),
    ("Name", NAME),
    ("Version", VERSION),
    ("Summary", "Massively parallel model of evolutionary game dynamics (SC 2012 reproduction)"),
    ("License", "MIT"),
    ("Requires-Python", ">=3.10"),
    ("Requires-Dist", "numpy>=1.24"),
    ("Provides-Extra", "test"),
    ("Requires-Dist", 'pytest; extra == "test"'),
    ("Requires-Dist", 'pytest-benchmark; extra == "test"'),
    ("Requires-Dist", 'hypothesis; extra == "test"'),
]

ENTRY_POINTS = "[console_scripts]\nrepro-experiment = repro.experiments.cli:main\n"


def _metadata_text() -> str:
    return "".join(f"{key}: {value}\n" for key, value in METADATA_FIELDS)


def _wheel_text() -> str:
    return (
        "Wheel-Version: 1.0\n"
        f"Generator: {NAME}-inline-backend\n"
        "Root-Is-Purelib: true\n"
        f"Tag: {TAG}\n"
    )


def _record_hash(data: bytes) -> str:
    digest = hashlib.sha256(data).digest()
    return "sha256=" + base64.urlsafe_b64encode(digest).rstrip(b"=").decode()


class _WheelWriter:
    """Accumulates wheel members and writes the RECORD last."""

    def __init__(self, path: str) -> None:
        self.zf = zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED)
        self.records: list[str] = []

    def add(self, arcname: str, data: bytes) -> None:
        self.zf.writestr(arcname, data)
        self.records.append(f"{arcname},{_record_hash(data)},{len(data)}")

    def close(self, dist_info: str) -> None:
        record_name = f"{dist_info}/RECORD"
        body = "\n".join(self.records + [f"{record_name},,"]) + "\n"
        self.zf.writestr(record_name, body)
        self.zf.close()


def _dist_info() -> str:
    return f"{NAME}-{VERSION}.dist-info"


def _add_dist_info(writer: _WheelWriter) -> None:
    info = _dist_info()
    writer.add(f"{info}/METADATA", _metadata_text().encode())
    writer.add(f"{info}/WHEEL", _wheel_text().encode())
    writer.add(f"{info}/entry_points.txt", ENTRY_POINTS.encode())
    writer.add(f"{info}/top_level.txt", f"{NAME}\n".encode())


def _wheel_name() -> str:
    return f"{NAME}-{VERSION}-{TAG}.whl"


# -- PEP 517 hooks -----------------------------------------------------------


def get_requires_for_build_wheel(config_settings=None):  # noqa: D103
    return []


def get_requires_for_build_editable(config_settings=None):  # noqa: D103
    return []


def get_requires_for_build_sdist(config_settings=None):  # noqa: D103
    return []


def prepare_metadata_for_build_wheel(metadata_directory, config_settings=None):  # noqa: D103
    info = _dist_info()
    os.makedirs(os.path.join(metadata_directory, info), exist_ok=True)
    with open(os.path.join(metadata_directory, info, "METADATA"), "w") as fh:
        fh.write(_metadata_text())
    with open(os.path.join(metadata_directory, info, "entry_points.txt"), "w") as fh:
        fh.write(ENTRY_POINTS)
    return info


prepare_metadata_for_build_editable = prepare_metadata_for_build_wheel


def build_editable(wheel_directory, config_settings=None, metadata_directory=None):
    """Editable wheel: a .pth file that puts the live src/ tree on sys.path."""
    src = os.path.abspath(os.path.join(os.getcwd(), "src"))
    name = _wheel_name()
    writer = _WheelWriter(os.path.join(wheel_directory, name))
    writer.add(f"__editable__.{NAME}.pth", (src + "\n").encode())
    _add_dist_info(writer)
    writer.close(_dist_info())
    return name


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    """Regular wheel: every .py file under src/ plus package data."""
    src = os.path.abspath(os.path.join(os.getcwd(), "src"))
    name = _wheel_name()
    writer = _WheelWriter(os.path.join(wheel_directory, name))
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for fname in sorted(files):
            if fname.endswith(".pyc"):
                continue
            full = os.path.join(root, fname)
            arc = os.path.relpath(full, src).replace(os.sep, "/")
            with open(full, "rb") as fh:
                writer.add(arc, fh.read())
    _add_dist_info(writer)
    writer.close(_dist_info())
    return name


def build_sdist(sdist_directory, config_settings=None):
    """Plain tar.gz of the tracked project tree (src, tests, docs, config)."""
    base = f"{NAME}-{VERSION}"
    name = f"{base}.tar.gz"
    root = os.getcwd()
    keep = ("src", "tests", "benchmarks", "examples", "tools")
    top_files = ("pyproject.toml", "setup.py", "README.md", "DESIGN.md", "EXPERIMENTS.md")
    with tarfile.open(os.path.join(sdist_directory, name), "w:gz") as tf:
        for entry in top_files:
            path = os.path.join(root, entry)
            if os.path.exists(path):
                tf.add(path, arcname=f"{base}/{entry}")
        for entry in keep:
            path = os.path.join(root, entry)
            if os.path.isdir(path):
                tf.add(
                    path,
                    arcname=f"{base}/{entry}",
                    filter=lambda ti: None if "__pycache__" in ti.name else ti,
                )
        meta = io.BytesIO(_metadata_text().encode())
        info = tarfile.TarInfo(f"{base}/PKG-INFO")
        info.size = len(meta.getvalue())
        tf.addfile(info, meta)
    return name
