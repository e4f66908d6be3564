"""Machine metadata for a result file: what the numbers were measured on."""

from __future__ import annotations

import importlib.util
import multiprocessing
import os
import platform

from bench import ROOT


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly.

    No ``git`` subprocess: outside a repository it would search the parent
    directories, and the benchmark reads nothing outside its checkout.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy

    from repro.game.batch_engine import BatchEngine
    from repro.game.states import StateSpace

    methods = multiprocessing.get_all_start_methods()
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        # What a default run resolves to on this machine.
        "kernel": BatchEngine(StateSpace(1)).kernel,
        # The program's own rule (procexec, hostexec and the job queue share it).
        "start_method": "fork" if "fork" in methods else "spawn",
        "git_commit": git_commit(),
    }
