"""In-memory spans recorded from the benchmark's side of each layer boundary.

The program under test has no tracing of its own yet (ROADMAP item 3), so the
traced pass wraps a declared list of its public callables for the duration of
one ``with tracer.instrument(TARGETS)`` block and restores them afterwards.
Targets are resolved **by name at start-up**: one that a later refactor moved
or renamed lands in ``tracer.unresolved`` with a reason and is skipped, it
never fails the run.

A span records id, parent, name, start, end, thread, workload and operation
id.  A span started on a thread with no open span of its own (a rank or
service worker) is parented to the operation that caused it.  Self time is a
span's duration minus the part of that interval its children cover, so
children running in parallel on other threads are not subtracted twice.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: ``(span name, "module:attribute.path")`` of every public callable the
#: traced pass wraps.  ``Class.method`` targets also wrap subclass overrides.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("frontend.compile_to_fir", "repro.frontend:compile_to_fir"),
    ("StencilDiscoveryPass.apply",
     "repro.transforms.stencil_discovery:StencilDiscoveryPass.apply"),
    ("ExtractStencilsPass.apply",
     "repro.transforms.stencil_extraction:ExtractStencilsPass.apply"),
    ("Backend.transform", "repro.api.backends:Backend.transform"),
    ("PassManager.run", "repro.ir.pass_manager:PassManager.run"),
    ("print_module", "repro.ir.printer:print_module"),
    ("parse_module", "repro.ir.parser:parse_module"),
    ("ArtifactStore.save", "repro.serve.store:ArtifactStore.save"),
    ("ArtifactStore.load", "repro.serve.store:ArtifactStore.load"),
    ("Session.lower", "repro.api.session:Session.lower"),
    ("CompiledProgram.interpreter",
     "repro.api.program:CompiledProgram.interpreter"),
    ("Interpreter.call", "repro.runtime.interpreter:Interpreter.call"),
    ("KernelCompiler.kernel_for",
     "repro.runtime.kernel_compiler:KernelCompiler.kernel_for"),
    ("KernelCompiler.record_invocation",
     "repro.runtime.kernel_compiler:KernelCompiler.record_invocation"),
    ("GpuKernelEngine.kernel_for",
     "repro.runtime.gpu_kernel_engine:GpuKernelEngine.kernel_for"),
    ("DistributedExecutor.scatter",
     "repro.runtime.distributed_executor:DistributedExecutor.scatter"),
    ("DistributedExecutor.gather",
     "repro.runtime.distributed_executor:DistributedExecutor.gather"),
    ("DistributedExecutor.run",
     "repro.runtime.distributed_executor:DistributedExecutor.run"),
    ("SimulatedGPU.memcpy", "repro.runtime.gpu_runtime:SimulatedGPU.memcpy"),
    ("CompileService.run", "repro.serve.service:CompileService.run"),
)

#: Targets whose return values are kept in ``tracer.captured`` — how the
#: traced pass reaches the per-rank and per-request interpreters' counters
#: and the generated kernels' source.
CAPTURED = frozenset({"CompiledProgram.interpreter",
                      "KernelCompiler.kernel_for",
                      "GpuKernelEngine.kernel_for",
                      "DistributedExecutor.run"})

#: Targets that *report* a finished interval instead of enclosing one: the
#: interpreter calls ``record_invocation(label, seconds)`` right after each
#: generated kernel returns, which is the only outside view of kernel time.
REPORTED = {"KernelCompiler.record_invocation": "kernel"}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread",
                 "workload", "op")

    def __init__(self, id: int, parent: Optional[int], name: str,
                 start: float, thread: int, workload: str, op: Optional[str]):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.workload = workload
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    """Context manager for one span (a class, not a generator, to keep the
    per-call cost of an instrumented function low)."""

    __slots__ = ("tracer", "name", "span", "is_operation", "op")

    def __init__(self, tracer: "Tracer", name: str, is_operation: bool = False,
                 op: Optional[str] = None):
        self.tracer = tracer
        self.name = name
        self.is_operation = is_operation
        self.op = op

    def __enter__(self) -> Span:
        tracer = self.tracer
        stack = tracer._stack()
        if self.is_operation:
            tracer._op = self.op
        parent = stack[-1].id if stack else tracer._op_root
        span = Span(next(tracer._ids), parent, self.name, time.perf_counter(),
                    threading.get_ident(), tracer.workload, tracer._op)
        if self.is_operation:
            tracer._op_root = span.id
        stack.append(span)
        self.span = span
        return span

    def __exit__(self, *exc_info) -> None:
        span = self.span
        span.end = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        if self.is_operation:
            tracer._op = None
            tracer._op_root = None
        with tracer._lock:
            tracer.spans.append(span)


class Tracer:
    """Collects spans in memory; written out once, when the benchmark ends."""

    def __init__(self, workload: str = ""):
        self.workload = workload
        self.spans: List[Span] = []
        #: target name -> ``(operation id, returned object)`` pairs.
        self.captured: Dict[str, List[Tuple[Optional[str], object]]] = {}
        #: target name -> why it could not be wrapped.
        self.unresolved: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._op: Optional[str] = None
        self._op_root: Optional[int] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _OpenSpan:
        """``with tracer.span("layer.call"):`` — nested under the innermost
        open span of this thread, or under the current operation."""
        return _OpenSpan(self, name)

    def operation(self, kind: str, index: int) -> _OpenSpan:
        """The root span (named ``kind``) of one benchmark operation: spans
        opened anywhere (any thread) before it closes carry its operation id,
        ``"<kind>-<index>"``."""
        return _OpenSpan(self, kind, is_operation=True, op=f"{kind}-{index}")

    def record(self, name: str, seconds: float) -> None:
        """Add a span that just finished and lasted ``seconds``."""
        end = time.perf_counter()
        stack = self._stack()
        parent = stack[-1].id if stack else self._op_root
        span = Span(next(self._ids), parent, name, end - seconds,
                    threading.get_ident(), self.workload, self._op)
        span.end = end
        with self._lock:
            self.spans.append(span)

    # -- instrumentation -----------------------------------------------------

    def _wrap(self, name: str, original: Callable) -> Callable:
        tracer = self
        if name in REPORTED:
            span_name = REPORTED[name]

            def reporting(self_, label, seconds, *args, **kwargs):
                tracer.record(f"{span_name}:{label}", seconds)
                return original(self_, label, seconds, *args, **kwargs)

            return reporting
        if name in CAPTURED:
            kept = self.captured.setdefault(name, [])

            def capturing(*args, **kwargs):
                with _OpenSpan(tracer, name):
                    result = original(*args, **kwargs)
                kept.append((tracer._op, result))
                return result

            return capturing

        def wrapper(*args, **kwargs):
            with _OpenSpan(tracer, name):
                return original(*args, **kwargs)

        return wrapper

    def _sites(self, spec: str) -> List[Tuple[object, str, Callable]]:
        """Every ``(owner, attribute, original)`` the target lives at."""
        module_name, _, path = spec.partition(":")
        module = importlib.import_module(module_name)
        parts = path.split(".")
        owner: object = module
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        original = getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{spec} is not callable")
        if isinstance(owner, type):
            # The method as defined on the class, plus every override.
            sites = []
            pending = [owner]
            while pending:
                cls = pending.pop()
                if attr in vars(cls):
                    sites.append((cls, attr, vars(cls)[attr]))
                pending.extend(cls.__subclasses__())
            if not sites:
                raise AttributeError(f"{spec} is inherited, not defined")
            return sites
        # A module-level function: wrap every ``from x import f`` alias too,
        # or callers that imported the name would bypass the span.
        sites = []
        for other_name, other in list(sys.modules.items()):
            if other is None or not other_name.startswith("repro"):
                continue
            for alias, value in list(vars(other).items()):
                if value is original:
                    sites.append((other, alias, original))
        return sites

    @contextmanager
    def instrument(self, targets: Iterable[Tuple[str, str]] = TARGETS
                   ) -> Iterator["Tracer"]:
        """Wrap ``targets`` for the duration of the block."""
        patched: List[Tuple[object, str, Callable]] = []
        try:
            for name, spec in targets:
                try:
                    sites = self._sites(spec)
                except (ImportError, AttributeError, TypeError) as exc:
                    self.unresolved[name] = f"{type(exc).__name__}: {exc}"
                    continue
                for owner, attr, original in sites:
                    setattr(owner, attr, self._wrap(name, original))
                    patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- queries -------------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def within(self, kind: str) -> List[Span]:
        """The spans caused by operations of ``kind``, roots excluded."""
        prefix = kind + "-"
        return [s for s in self.spans
                if s.op is not None and s.op.startswith(prefix)
                and s.name != kind]

    def chrome_trace(self, counters: Optional[Dict] = None) -> Dict:
        """The spans as a Chrome-trace (``chrome://tracing``, Perfetto)
        object; ``counters`` rides along as metadata."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{
            "name": s.name, "ph": "X", "pid": 1, "tid": s.thread,
            "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
            "args": {"id": s.id, "parent": s.parent, "workload": s.workload,
                     "op": s.op},
        } for s in sorted(self.spans, key=lambda s: s.start)]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"workload": self.workload,
                              "unresolved": dict(self.unresolved),
                              "counters": counters or {}}}

    def write(self, path, counters: Optional[Dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(counters), handle, default=str)


def covered(intervals: Sequence[Tuple[float, float]], start: float,
            end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: Dict[Optional[int], List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()),
                                         span.start, span.end)
        for span in spans
    }


def coverage(spans: Sequence[Span], name: str) -> List[float]:
    """For each span called ``name``: the share of it its children cover."""
    own = self_times(spans)
    return [1.0 - own[s.id] / s.duration
            for s in spans if s.name == name and s.duration > 0]
