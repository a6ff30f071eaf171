"""Set-up and the end-to-end pass: what a user of the system would see.

Tracing is off here.  Every operation's output is checked bitwise, outside
the timed region.  Every timing is taken next to a reference timed 1:1 in
between the samples — the hand-NumPy computation for the warm operations, a
fixed piece of pure Python for compiles and reloads — and the metrics that
carry a bound are the ratios (README, "noise").
"""

from __future__ import annotations

import importlib
import re
import resource
import time
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import stats
from .workloads import Workload

#: Operations timed even when ``--seconds`` is already spent.
MIN_OPERATIONS = 10
#: A run is this many rounds of one set-up, compile samples, reload samples
#: and warm operations, so that all of them see the same mix of the box's fast
#: and slow spells (README, "noise"): sampled in one short window each, the
#: compile and reload medians moved by 25 % from run to run.
ROUNDS = 8


class Recorder:
    """Counts every operation attempted and every one that failed: raised,
    was rejected, or produced output that differs from the reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def timed(self, fn: Callable, check: Optional[Callable] = None,
              into: Optional[List[float]] = None, span=None
              ) -> Optional[float]:
        """Time ``fn()``; the check runs after the clock has stopped (and
        after ``span``, the traced pass's operation span, has closed)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if span is None:
                result = fn()
            else:
                with span:
                    result = fn()
        except Exception as exc:  # a failed operation is a result, not a crash
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        if check is not None:
            verdict = check(result)  # True, or False / the reason it is wrong
            if verdict is not True:
                self.failed += 1
                self.errors.append(verdict or "output is not bitwise equal to "
                                   "the NumPy reference")
        if into is not None:
            into.append(elapsed)
        return elapsed

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@contextmanager
def kernels_forgotten() -> Iterator[Optional[str]]:
    """Inside, the process-wide generated-kernel cache is empty, so that a
    first run pays kernel codegen again as a fresh process would; afterwards
    the kernels it held are back, so that a set-up taken in mid-run costs the
    warm operations around it nothing.

    The cache is not public API, so it is looked up by name: if a refactor
    moved it, the block runs with the reason as its value (recorded with the
    result) and the in-process set-ups simply exclude codegen.
    """
    try:
        module = importlib.import_module("repro.runtime.kernel_compiler")
        cache = module._SHARED_CACHE
        held = dict(cache)
        cache.clear()
    except (ImportError, AttributeError, TypeError) as exc:
        yield f"kernel cache not cleared ({type(exc).__name__}: {exc})"
        return
    try:
        yield None
    finally:
        cache.update(held)


def set_up(w: Workload, rec: Recorder, since: Optional[float] = None
           ) -> Tuple[Optional[float], Optional[str]]:
    """Cold-start the workload once: ``(seconds, note)``, seconds ``None``
    if it failed.

    One set-up is: generate source and inputs from the seed, compile on a
    fresh session, build the interpreter, generate the kernels, first run.
    The first one of a process is timed from ``since``, the process's start,
    and so also holds the imports and the first touch of every page; the
    later ones repeat the cold start in this process, which is what keeps
    their median steady on a box where fresh pages cost milliseconds
    (README, ``setup_s``).
    """
    start = time.perf_counter() if since is None else since

    def cold_start():
        w.generate()
        w.cold_start()

    with kernels_forgotten() as note:
        done = rec.timed(cold_start)
    return (None if done is None else time.perf_counter() - start), note


def operations(w: Workload, rec: Recorder, seconds: float,
               minimum: int = MIN_OPERATIONS, reference: bool = True
               ) -> Tuple[List[float], List[float]]:
    """The closed loop: one caller, the next operation starts when the
    previous one (and its check) is done.  Runs for ``seconds`` and at least
    ``minimum`` operations; with ``reference`` the hand-NumPy computation is
    timed 1:1 in between, in the same process and on one thread.
    """
    run_s: List[float] = []
    ref_s: List[float] = []
    deadline = time.perf_counter() + seconds
    done = 0
    while done < minimum or time.perf_counter() < deadline:
        args = w.stage()
        rec.timed(lambda: w.operate(args), check=w.correct, into=run_s)
        if reference:
            ref_s.append(clock(w.reference_op))
        done += 1
    return run_s, ref_s


def clock(fn: Callable) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


_TOKEN = re.compile(r"\s*(?:(\d+\.\d+|\d+)|(\w+)|(.))")
_TEXT = " ".join(
    f"x{i} = a{i}(i,j,k) + 0.25 * ( b{i}(i+1,j,k) - b{i}(i-1,j,k) ) / {i}.5"
    for i in range(200))


class _Node:
    __slots__ = ("name", "children", "attributes")

    def __init__(self, name: str):
        self.name = name
        self.children: List["_Node"] = []
        self.attributes: Dict[str, int] = {}


def python_reference() -> int:
    """A fixed 10 ms of pure-Python work of the kind a compiler does:
    tokenise a text, build a tree of small objects, walk it, format strings.

    It is to the compile and reload samples what the hand-NumPy computation
    is to the warm operations: timed 1:1 in between them, so that
    ``compile_vs_python_ratio`` and ``reload_vs_python_ratio`` do not move
    when the box as a whole runs interpreter-bound code 15 % slower for a
    minute (README, "noise").  It shares no code with the program.
    """
    root = _Node("root")
    stack = [root]
    for match in _TOKEN.finditer(_TEXT):
        token = match.group(match.lastindex)
        if token == "(":
            node = _Node("call")
            stack[-1].children.append(node)
            stack.append(node)
        elif token == ")":
            if len(stack) > 1:
                stack.pop()
        else:
            node = _Node(token)
            node.attributes["length"] = len(token)
            stack[-1].children.append(node)
    printed = []
    pending = [root]
    while pending:
        node = pending.pop()
        printed.append("%s:%d" % (node.name, len(node.children)))
        pending.extend(node.children)
    return len("".join(printed))


def with_python_reference(timed: Callable, into: List[float]) -> Callable:
    """``timed``, each sample followed by one timed ``python_reference``."""
    def sample(fn: Callable, check: Optional[Callable] = None) -> None:
        timed(fn, check=check)
        into.append(clock(python_reference))
    return sample


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p50_ms(samples: List[float]) -> Optional[float]:
    return stats.median(samples) * 1e3 if samples else None


#: The compile and reload ratios compare lower quartiles.  This box takes
#: the CPU away for ~13 ms at a time, every ~200 ms in a quiet minute and
#: more often in a busy one; a 50-100 ms compile sample is hit about half the
#: time, so its median sits now on one side of a stall and now on the other,
#: while a quarter of the samples and of the references are always clean.
#: Measured over 8 runs: 6-18 % spread at the median, 2-5 % at p25.
COMPILE_QUANTILE = 25


def _ratio(samples: List[float], reference: List[float], q: float = 50
           ) -> Optional[float]:
    """The ``q``-th percentile of ``samples`` in units of that of the
    reference timed 1:1 in between them."""
    if not samples or not reference:
        return None
    return stats.percentile(samples, q) / stats.percentile(reference, q)


def end_to_end(w: Workload, rec: Recorder, seconds: float,
               first_setup: Optional[float], minimum: int = MIN_OPERATIONS,
               rounds: int = ROUNDS
               ) -> Tuple[Dict[str, Optional[float]], Dict[str, object]]:
    """The end-to-end metrics of one run, and the sample counts behind them.
    ``first_setup`` is the process's first set-up; each round adds one."""
    begin = time.perf_counter()
    setup_times = [] if first_setup is None else [first_setup]
    compile_s: List[float] = []
    reload_s: List[float] = []
    python_s: List[float] = []
    run_s: List[float] = []
    ref_s: List[float] = []
    for part in range(rounds):
        again, _ = set_up(w, rec)
        if again is not None:
            setup_times.append(again)
        w.compile_phase(with_python_reference(
            partial(rec.timed, into=compile_s), python_s), part, rounds)
        w.reload_phase(with_python_reference(
            partial(rec.timed, into=reload_s), python_s), part, rounds)
        left = begin + seconds * (part + 1) / rounds - time.perf_counter()
        ran, referenced = operations(w, rec, left, -(-minimum // rounds))
        run_s += ran
        ref_s += referenced

    metrics = {
        "setup_s": stats.median(setup_times) if setup_times else None,
        "compile_vs_python_ratio": _ratio(compile_s, python_s,
                                          COMPILE_QUANTILE),
        "reload_vs_python_ratio": _ratio(reload_s, python_s,
                                         COMPILE_QUANTILE),
        "vs_numpy_ratio": _ratio(run_s, ref_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    # Absolute times are per-layer metrics (README, "noise"): these are for
    # the reader of this pass's table and result file.
    samples = {"setup": len(setup_times), "compile": len(compile_s),
               "reload": len(reload_s), "run": len(run_s),
               "absolute": absolute_times(w, compile_s, reload_s, python_s,
                                          run_s, ref_s)}
    return metrics, samples


def absolute_times(w: Workload, compile_s: List[float], reload_s: List[float],
                   python_s: List[float], run_s: List[float],
                   ref_s: List[float]) -> Dict[str, Optional[float]]:
    """The medians behind the ratios, in milliseconds, and the paper's unit:
    interior cells times sweeps per second at the workload's size."""
    run_p50 = stats.median(run_s) if run_s else None
    return {
        "compile_ms_p50": _p50_ms(compile_s),
        "reload_ms_p50": _p50_ms(reload_s),
        "python_ref.ms_p50": _p50_ms(python_s),
        "run_ms_p50": _p50_ms(run_s),
        "mcells_per_s": w.cells_per_op / run_p50 / 1e6 if run_p50 else None,
        "numpy_ref.ms_p50": _p50_ms(ref_s),
    }
