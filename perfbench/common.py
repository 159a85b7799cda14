"""Shared plumbing for the repo benchmark: paths, checks, child processes.

The benchmark imports the program from the checkout's ``src/`` tree, so
:func:`repo_src` must succeed before any ``repro`` import.  Every file
the benchmark writes lives under :data:`WORK_ROOT` inside the checkout
and is removed when the run ends.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: Seconds a child process gets to start or to exit after SIGINT.
CHILD_TIMEOUT_S = 30.0


class CheckFailed(Exception):
    """A correctness check broke; the run is invalid and must fail loudly.

    ``result`` carries what the run measured before the check, if anything.
    """

    result: dict | None = None


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def repo_src() -> Path:
    """Put the checkout's ``src/`` on ``sys.path``; exit 2 when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SRC


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src/`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    """The machine facts every result carries."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def launch(command: list[str], log_path: Path) -> tuple[subprocess.Popen, str]:
    """Start a CLI child and wait for its ``... on http://host:port`` banner.

    The child's stderr goes to ``log_path`` (never a pipe that could fill
    and block it).  Returns the process and the banner text after ``on``.
    """
    from repro.runtime.clock import monotonic

    with open(log_path, "wb") as log:
        process = subprocess.Popen(command, env=child_env(), stdout=subprocess.DEVNULL, stderr=log)
    deadline = monotonic() + CHILD_TIMEOUT_S
    while monotonic() < deadline and process.poll() is None:
        text = log_path.read_text(encoding="utf-8", errors="replace")
        if " on http://" in text:
            return process, text.split(" on ", 1)[1]
        time.sleep(0.02)
    stop_child(process)
    raise CheckFailed(f"{command[1:4]} did not start: {log_path.read_text(errors='replace')}")


def stop_child(process: subprocess.Popen) -> int:
    """SIGINT ``process`` (the CLIs' Ctrl-C path), escalate to kill, and reap it."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(CHILD_TIMEOUT_S)
    return process.returncode
