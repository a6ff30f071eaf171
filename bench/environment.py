"""The measurement environment: what ``bench/run.py`` fixes about the process
before it measures, and the fingerprint that records it.

None of it changes what the program computes.  Each pin is here because,
without it, runs of the same commit on this box differed by more than any
bound a benchmark could state (README, "noise").  Nothing here imports NumPy:
``pin()`` has to run before NumPy is first imported.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional

#: Library-internal threading pinned to one thread before NumPy is imported
#: (as ``benchmarks/conftest.py`` does): the only threads are the program's.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Whether ``pin()`` got glibc to keep freed memory (process-wide, like the
#: ``mallopt`` settings themselves).
ALLOCATOR_PINNED = False


def pin_allocator() -> bool:
    """Tell glibc malloc to keep freed memory instead of returning it to the
    kernel (no heap trim, big blocks from the heap rather than ``mmap``).

    The generated kernels allocate dozens of full-size temporaries per sweep.
    With the default allocator those are unmapped and re-faulted on every
    operation: ~39 000 page faults per PW n=96 run, and on this microVM a
    fresh page can cost tens of microseconds, which doubles the median and
    adds multi-second stalls that no run-to-run bound survives.  Pinned, an
    operation takes ~1 fault.
    """
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8
    try:
        libc = ctypes.CDLL(None)
        # One arena: a worker thread's own arena is a chain of 64 MB mmapped
        # heaps that are unmapped as soon as they empty, whatever the trim
        # threshold, which would re-fault the rank and tile threads' pages.
        return bool(libc.mallopt(m_arena_max, 1)
                    and libc.mallopt(m_mmap_threshold, 1 << 30)
                    and libc.mallopt(m_trim_threshold, 2 ** 31 - 1))
    except (OSError, AttributeError):
        return False


def set_affinity(cpus: Iterable[int]) -> None:
    """Move every thread of this process (pool workers too) onto ``cpus``."""
    cpus = set(cpus)
    for task in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(task), cpus)
        except ProcessLookupError:  # the thread ended since it was listed
            pass


def pin_cpu() -> None:
    """Run on one CPU, whatever the threads (where the platform can).

    This box's two virtual CPUs share one physical core for minutes at a
    time and have one each for others: two busy threads then take 31 ms or
    16 ms for the same work, and a 2-thread workload's median moves by 45 %
    between runs of the same commit.  On one CPU the threaded workloads do
    the same work through the same code and their time does not depend on
    which spell the run fell in.  What is measured is then total CPU work;
    the speed-up from a second core is ``parallel_executor.speedup_2t`` in
    the traced pass, which lifts the pin (``all_cpus``) for that probe.
    """
    if hasattr(os, "sched_setaffinity"):
        set_affinity({min(os.sched_getaffinity(0))})


@contextmanager
def all_cpus() -> Iterator[None]:
    """Inside: every CPU the process is allowed, then back to what it had."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    before = os.sched_getaffinity(0)
    set_affinity(range(os.cpu_count() or 1))
    try:
        yield
    finally:
        set_affinity(before)


def pin() -> None:
    """Every pin, for a process that exists to measure (``bench/run.py`` run
    as a script; never a process that imports ``bench``, such as pytest)."""
    global ALLOCATOR_PINNED
    for var in THREAD_PINS:
        os.environ.setdefault(var, "1")
    ALLOCATOR_PINNED = pin_allocator()
    pin_cpu()


def fingerprint(root: Path) -> Dict[str, object]:
    """Where the numbers were measured: enough to tell two boxes apart."""
    import numpy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    changed = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
        "allocator_pinned": ALLOCATOR_PINNED,
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git("rev-parse", "HEAD") or "unknown",
        # True: measured on a working tree that differs from that commit.
        "git_dirty": None if changed is None else bool(changed),
    }
