"""Deleted names stay deleted.

Each row of ``GUARDS`` is one guard: a regular expression, the paths it
scans (and the paths it leaves out), the commit that deleted the names it
matches, and one planted line the expression must match, so a guard that
has stopped matching anything fails here too.  Every text file under a
row's paths is scanned line by line, ``__pycache__`` skipped.

The compiler layers' ban on importing ``repro.runtime`` is not a row:
``tests/ir/test_layering.py`` enforces it through the AST, absolute
imports included.
"""

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: ``docs/ARCHITECTURE.md`` stays a guide, not a second copy of the code.
ARCHITECTURE_LINE_BUDGET = 700


@dataclass(frozen=True)
class Guard:
    name: str
    pattern: str
    paths: Tuple[str, ...]
    deleted_in: str  # the commit that deleted the names
    sample: str
    excluding: Tuple[str, ...] = ()


GUARDS = (
    # GPU launches run synchronously and the device reports only what it
    # moved: the modelled stream timeline stays deleted.
    Guard("stream-model",
          r"modelled_|GpuStream|num_streams|gpu\.stream|gpu\.prefetch",
          ("src",), "f4efd2f", "stream = GpuStream(device)"),
    # The write-only vectorizability tag stays deleted.
    Guard("vectorizability-tag",
          r"stencil\.vectorizable|apply_is_vectorizable",
          ("src",), "0c70c40", 'op.set_attr("stencil.vectorizable", UnitAttr())'),
    # Every stencil.load lowers to one memref.snapshot (a written field
    # names itself, so it copies in one pass): no two-pass alloc + copy.
    Guard("memref-alloc-copy",
          r"memref\.(alloc|copy)\b|memref\.(AllocOp|CopyOp)",
          ("src",), "ddfc08d", 'name = "memref.alloc"'),
    # Nothing is written that nobody reads: the write-only attributes, the
    # second way to fuse and the GPU's eviction rung stay deleted.
    Guard("write-only-ir",
          r"sym_visibility|bindc_name|gpu\.data_management"
          r"|dmp\.(distributed|direction|decomposed_dims)"
          r"|GpuMapParallelLoopsPass|StencilFusionPass|stencil-fusion"
          r"|def fuse\(|mark_idle|evict_idle|oom_evictions",
          ("src",), "de13d21", "def fuse(first, second):"),
    # One way to plan a sweep: the schedule layer stays deleted.
    Guard("schedule-layer",
          r"schedule_chain|schedule\.tile|repro\.schedule|ScheduleRunner"
          r"|def (reorder|unroll)\(",
          ("src",), "adbe4f0", "from repro.schedule import ScheduleRunner"),
    # ... and the OpenMP schedule clause: every sweep is cut into static
    # slabs.
    Guard("schedule-clause",
          r"omp\.schedule|omp\.chunk_size|SCHEDULE_KINDS|chunk_size"
          r"|openmp_pipeline",
          ("src",), "68890f5", "chunk_size: int = 1"),
    # A knob needs two values in use (tests/api/test_option_census.py): the
    # decomposed dimensions, the checkpoint interval, the communicator's
    # retry budget and backoff, the service's default timeout and the pass
    # manager's verify switch are constants and stay so.
    Guard("one-value-knobs",
          r"decomposed_dims|checkpoint_interval|max_receive_retries"
          r"|backoff_initial|backoff_cap|default_timeout|verify_each",
          ("src",), "5469bcb", "checkpoint_interval: int = 1"),
    # One lowering per backend: a launch is accounted only at its
    # gpu.launch_func, so the function-level launch tags, their annotator
    # and the second GPU pipeline name stay deleted.
    Guard("function-level-launch",
          r'"gpu\.(launch|grid|block)"|funcs_with_launch_ops'
          r"|_annotate_kernel_launch|GPU_STENCIL_PIPELINE",
          ("src",), "3b4547c", 'func.set_attr("gpu.launch", UnitAttr())'),
    # The parser accepts exactly what fir_gen compiles: one precedence loop
    # parses every expression, and no AST node exists for a refused
    # construct.
    Guard("parser-levels",
          r"_parse_(or|and|not|comparison|additive|multiplicative|unary"
          r"|power)\b|DoWhile|ExitStmt|CycleStmt|StringLiteral|result_name",
          ("src",), "7c804e5", "    def _parse_additive(self):"),
    # verify() re-checks only what the mutation primitives marked, so
    # attributes change through set_attr / remove_attr, which mark the op.
    Guard("attribute-writes",
          r"\.attributes\[[^]]*\]\s*=[^=]"
          r"|\.attributes\.(pop|popitem|update|setdefault|clear)\("
          r"|del [^ ]*\.attributes\[",
          ("src",), "dc949ef", 'op.attributes["halo"] = attr',
          excluding=("src/repro/ir/",)),
    # A lowering moves what it keeps (Block.take_ops); only discovery
    # clones, because its FIR ops stay shared with code left behind.
    Guard("transform-clones",
          r"\.clone\(",
          ("src/repro/transforms",), "dc949ef", "new_op = op.clone()",
          excluding=("src/repro/transforms/stencil_discovery.py",)),
    # A store hit builds ops from an op table (src/repro/ir/table.py): the
    # store never prints or re-reads IR text.
    Guard("store-ir-text",
          r"parse_module|print_module",
          ("src/repro/serve/store.py",), "cf1bbc9",
          "from ..ir.parser import parse_module"),
    # Every type and attribute class is one some compile constructs
    # (tests/ir/test_op_census.py), and both IR decoders refuse an
    # unregistered op.
    Guard("unbuilt-leaves",
          r"TensorType|NoneType|BoolAttr|\bArrayAttr\b|DictionaryAttr"
          r"|DenseElementsAttr|allow_unregistered|\.signed\b"
          r"|register_factory|prev_op",
          ("src",), "b3584f2", "flag = BoolAttr(True)"),
    # Only a sweep's boxes share a pool: a rank task holds an idle rank
    # thread alone (no pool, no gate), and batch items and service requests
    # run on an executor their call or service opens and joins.
    Guard("second-thread-owner",
          r"get_rank_pool|_RANK_POOL|_rank_pool_gate|_batch_executors"
          r"|class ParallelExecutor|_worker_loop|queue\.Queue",
          ("src",), "9962726", "requests = queue.Queue()"),
    # Discovery erases a lifted statement and the loops it empties where it
    # lifts it: no second cleanup worklist over the whole function.
    Guard("empty-loop-sweep",
          r"_remove_empty_loops|_EraseEmptyLoop|_loop_is_empty",
          ("src",), "after 2cf6bf9", "    _remove_empty_loops(func_op)"),
    # Every trait is verified or asked for (tests/ir/test_op_census.py):
    # the two only ever declared stay deleted.
    Guard("idle-traits",
          r"HasMemoryEffect|NoTerminator",
          ("src", "docs"), "after 3661737", "    traits = (HasMemoryEffect,)"),
    # The interpreter is the scalar reference: what runs a sweep fast lives
    # in runtime/sweep.py.
    Guard("sweep-in-interpreter",
          r"run_boxes|plan_sweep|SwapPlan|spare_like|_crosscheck|_delivery"
          r"|_fill_shells",
          ("src/repro/runtime/interpreter.py",), "after 3661737",
          "from .sweep import SwapPlan, run_boxes"),
    # An extension point needs two implementations
    # (tests/test_extension_points.py): the pattern framework around one
    # fold, the dce pass no pipeline names and the interpreter hook only the
    # gpu backend overrode stay deleted.
    Guard("single-implementation-hooks",
          r"RewritePattern|PatternRewriter|GreedyRewriteResult|apply_patterns"
          r"|interpreter_kwargs|build_interpreter|DeadCodeEliminationPass",
          ("src", "docs"), "after 32b4417",
          "    def interpreter_kwargs(self, options, overrides):"),
    # A compiled kernel is built whole and never changes: its deferred
    # second build step, the GPU kernel subclass, the run-time tiling
    # refusal and its counter, the second cache of reasons, the recovery
    # report's locking wrapper and the dead-code pass-through stay deleted.
    Guard("one-step-kernel",
          r"materialise\(|GpuLaunchKernel|_SHARED_REASONS|cache_fallbacks"
          r"|ReportSink|eliminate_dead_code",
          ("src", "docs"), "after 298c47f", "                kernel.materialise()"),
    # The runtime counts, it does not log: the device's per-event records,
    # the communicator's second halo count, the recovery event trail and
    # the fuzz generator's decision trace stay deleted.
    Guard("runtime-event-logs",
          r"GPUTransfer|KernelLaunch|finish_launch|registered_buffers"
          r"|message_count|bytes_sent|record_event|summary_line|_TracedRandom",
          ("src", "docs", "examples"), "after 787358b",
          "        self.transfers.append(GPUTransfer('h2d', nbytes))"),
    # The IR has one dialect set and one pass set: ops, dialect types and
    # passes enter module tables where they are defined, so the context, the
    # dialect objects, the pass-registry class and every pass's context
    # parameter stay deleted.
    Guard("context-registries",
          r"default_context|register_all_dialects|ALL_DIALECTS|PassRegistry"
          r"|GLOBAL_PASS_REGISTRY|register_operation\(|ir\.context"
          r"|def apply\(self, ctx",
          ("src", "docs", "examples"), "after 78f623a",
          "    def apply(self, ctx: Context, module: Operation) -> None:"),
    # A batch run is spelled one way, on the compiled handle.
    Guard("session-run-batch",
          r"[Ss]ession(\(\))?\.run_batch|run_batch\(compiled",
          ("src", "docs", "examples", "README.md"), "after 660485b",
          "results = session.run_batch(compiled, 'average', arg_sets)"),
    # The session lowers each key once: the service's flight-claim protocol
    # stays deleted.
    Guard("service-flight-claims",
          r"_Flight|_lower_single_flight|flights_claimed",
          ("src", "docs"), "after 660485b",
          "            flight = _Flight()"),
    # A request is resolved once and carried whole: nothing re-resolves one
    # to read the quarantine, and an artifact keeps no copy of its request.
    Guard("quarantined-record",
          r"quarantined_record|artifact\.(source|backend|options)\b",
          ("src", "docs", "examples", "README.md"), "after b041395",
          'exc = session.quarantined_record(source, "cpu")'),
    # ... and the store finds an entry by its key alone.
    Guard("store-load-by-request",
          r"load\([^)]*source=",
          ("src", "docs", "examples", "README.md"), "after b041395",
          "loaded = store.load(key, source=source, backend=backend.name,"),
    # verify() re-checks what each mutation primitive marks on the ops it
    # touched: the process-wide mutation epoch and the per-root record of
    # the epoch a root was verified at stay deleted.
    Guard("mutation-epoch",
          r"\bEPOCH\b|\bMUTATIONS\b|\b_verified\b",
          ("src", "docs"), "after 8f474f3", "        EPOCH[0] = next(MUTATIONS)"),
    # verify() is one walk under one visibility rule: the three-pass walk
    # that worded its failures and the pre-order placement of a definition
    # the marked walk skipped stay deleted.
    Guard("verify-second-walk",
          r"_check_whole|_defined_before",
          ("src", "docs"), "after e864bf3",
          "        _check_whole(self)  # raises what a whole walk meets first"),
    # A store entry is one file with one commit point: the payload file, the
    # metadata sidecar beside it and their two-write protocol stay deleted.
    Guard("store-sidecar",
          r"[Ss]idecar|digest[}>]\.ops",
          ("src", "docs", "README.md"), "after 937f014",
          'ops_path = self._dir / f"{digest}.ops"'),
    # One lowering per backend: cpu and dmp run at the scf level too, so the
    # stencil-level executor — its field and temp values, its apply kernels,
    # its delivery into stencil.store windows, its handlers and its
    # counters — stays deleted.
    Guard("stencil-level-executor",
          r"TempValue|FieldValue|compile_apply|DELIVERED|store_window"
          r"|_exec_stencil_|stencil_apply_executions",
          ("src", "docs", "examples"), "after 6cefc59",
          "        return [TempValue(array, lb)]"),
    # Only the faults the program cannot cause itself are injected: a
    # deterministic compile is not retried, a device runs out of memory by
    # its memory_bytes, and a fault plan replays by its seed, not from JSON.
    Guard("self-caused-faults",
          r"compile_hook|alloc_hook|CompileFault|AllocFault|COMPILE_RETRIES"
          r"|compile_retries|on_compile|on_device_alloc|to_json|from_json",
          ("src",), "after 6da135d",
          "        gpu = SimulatedGPU(alloc_hook=injector.on_device_alloc)"),
)


def scanned_files(guard):
    for path in guard.paths:
        root = ROOT / path
        files = [root] if root.is_file() else sorted(root.rglob("*"))
        for file in files:
            relative = file.relative_to(ROOT).as_posix()
            if (not file.is_file() or "__pycache__" in file.parts
                    or relative.startswith(guard.excluding)):
                continue
            try:
                yield relative, file.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue


@pytest.mark.parametrize("guard", GUARDS, ids=lambda g: g.name)
def test_deleted_names_stay_deleted(guard):
    assert re.search(guard.pattern, guard.sample), (
        f"the planted sample {guard.sample!r} no longer matches {guard.name}")
    pattern = re.compile(guard.pattern)
    hits = [f"{path}:{number}: {line.strip()}"
            for path, text in scanned_files(guard)
            for number, line in enumerate(text.splitlines(), 1)
            if pattern.search(line)]
    assert not hits, (
        f"names deleted in {guard.deleted_in} are back ({guard.name}):\n"
        + "\n".join(hits))


def test_architecture_doc_within_budget():
    lines = (ROOT / "docs" / "ARCHITECTURE.md").read_text().count("\n")
    assert lines <= ARCHITECTURE_LINE_BUDGET, (
        f"docs/ARCHITECTURE.md has {lines} lines "
        f"(budget {ARCHITECTURE_LINE_BUDGET})")
