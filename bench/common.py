"""Paths, child-process launch and provenance shared by the bench scripts."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "afclink"
CONFIGS = ROOT / "configs"
DATA = PACKAGE / "data"
OUT = BENCH_DIR / "out"

# One process runs at a time, so its BLAS/OpenMP pools may use every core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    for var in THREAD_VARS:
        env[var] = str(cpu_count())
    return env


@dataclass(frozen=True)
class Exit:
    returncode: int
    spawn: float  # time.monotonic() just before the fork
    exit: float  # time.monotonic() just after the wait returned
    peak_rss_mb: float  # the child's and its waited-for children's peak RSS

    @property
    def wall_s(self) -> float:
        return self.exit - self.spawn


def spawn_and_wait(argv, stdout, stderr, timeout_s: float) -> Exit:
    """Run argv to completion; a child still running at timeout_s is killed."""
    spawn = time.monotonic()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Exit(proc.returncode, spawn, end, usage.ru_maxrss / 1024.0)


def _mem_total_mb() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def src_line_count() -> int:
    return sum(
        sum(1 for _ in path.open(encoding="utf-8")) for path in PACKAGE.rglob("*.py")
    )


def provenance() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "machine": {
            "platform": platform.platform(),
            "cpu": _cpu_model(),
            "cpus": cpu_count(),
            "mem_total_mb": _mem_total_mb(),
        },
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src_lines": src_line_count(),
        "unix_time": time.time(),
        "argv": sys.argv,
    }
