"""Subprocess servers and the scratch directory they run in.

Served workloads talk to ``python -m repro serve`` children on
ephemeral ports.  Every child is killed (SIGKILL) and waited for when
its context exits, and the scratch directory -- created inside the
checkout, because the benchmark may write nowhere else -- is removed.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".ledger_work"

#: How long a child may take to print its banner (bootstrap included).
START_TIMEOUT_S = 60.0


@contextlib.contextmanager
def work_dir():
    """A fresh scratch directory inside the checkout, removed on exit."""
    WORK_PARENT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()


def _child_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(SRC) if not inherited
                         else f"{SRC}{os.pathsep}{inherited}")
    # Same str-hash salt in every server (see __main__.py).
    env.setdefault("PYTHONHASHSEED", "0")
    return env


class ServerProcess:
    """One ``python -m repro serve`` child on an ephemeral port.

    The constructor returns once the child printed its ``serving on
    HOST:PORT`` banner; callers then wait for ``health`` over the wire.
    Use as a context manager: exit always SIGKILLs and reaps the child.
    """

    def __init__(self, *args: str, log: Path) -> None:
        self.spawned_at = time.perf_counter()
        self._log = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args,
             "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=_child_env(), cwd=ROOT)
        try:
            banner = self._read_banner()
        except BaseException:
            self.kill()
            raise
        host, _, port = banner.rpartition(" ")[2].rpartition(":")
        self.host, self.port = host, int(port)

    def _read_banner(self) -> str:
        # readline returns when the child prints its line or exits
        # (closing the pipe); the watchdog bounds a child that does
        # neither.
        watchdog = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            banner = self.proc.stdout.readline().strip()
        finally:
            watchdog.cancel()
        if not banner.startswith("serving on "):
            raise RuntimeError(
                f"server failed to start: {banner!r} "
                f"(stderr in {self._log.name})")
        return banner

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the child, in MiB (read while it is alive)."""
        return _vm_hwm_mb(self.proc.pid)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()


def _vm_hwm_mb(pid: int | str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def own_peak_rss_mb() -> float:
    """``VmHWM`` of this process, in MiB."""
    return _vm_hwm_mb("self")
