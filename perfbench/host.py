"""Host fingerprint stamped on every result document."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

__all__ = ["fingerprint", "fingerprint_warnings"]

#: fields that must agree before two results are compared
COMPARED = ("cpus", "cpu_model", "python", "numpy", "scipy")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of ``root`` if it is itself a git checkout, else ``"unknown"``.

    Git is kept from searching the directories above ``root``.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
    }


def fingerprint_warnings(a: dict, b: dict) -> list[str]:
    """One warning per fingerprint field on which two results differ."""
    return [
        f"WARNING: host {key} differs: {a.get(key)!r} vs {b.get(key)!r}; "
        "timings are not comparable"
        for key in COMPARED
        if a.get(key) != b.get(key)
    ]
