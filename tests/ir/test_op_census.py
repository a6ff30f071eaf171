"""The dialects hold what the compiler emits, and nothing is written that
nobody reads.

Every registered operation is one the compiler constructs on some path, and
every interpreter handler executes one of them.  An op that nothing builds is
dead code in its dialect and in the semantics reference.  The census records
the class of every ``Operation`` constructed while a fixed corpus compiles on
every backend configuration, intermediate ops such as ``dmp.halo_swap``
included.  There is no allowlist: an op no construct reaches goes.

The same corpus then runs, and the census also records every attribute an op
is given (at construction or later) and every attribute some pass, runtime
or API looks up by name.  Printing, cloning, hashing and CSE see every
attribute without naming one, and a verifier that checks an attribute nobody
else reads is part of the dead weight, so none of them counts as a reader.
An attribute that is written and never read goes, with whatever wrote it.

The leaves under the ops are counted too: every type and attribute class
constructed while the corpus compiles and runs is recorded, and each
``Attribute`` class of the IR and the dialects with no subclass of its own
must be among them.  A leaf that no compile builds exists only so a decoder
can read it, and so goes, with its spelling in the parser.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api.distributed import detect_entry
from repro.apps import gauss_seidel, pw_advection
from repro.dialects import ALL_DIALECTS, fir
from repro.dialects.builtin import ModuleOp
from repro.ir import Attribute, parse_module, print_module
from repro.ir import traits as traits_module
from repro.ir.operation import Operation
from repro.runtime import Interpreter, sweep
from repro.runtime.interpreter import InterpreterError
from repro.runtime.memory import numpy_dtype_for
from repro.serve.store import ArtifactStore

CORPUS = Path(__file__).resolve().parents[2] / "fuzz" / "corpus"
SRC = Path(__file__).resolve().parents[2] / "src"

#: Every backend configuration: cpu at both levels, both GPU data
#: strategies, and a 2x2 process grid.
CONFIGS = [
    ("flang-only", {}),
    ("cpu", {}),
    ("cpu", {"lower_to_scf": True}),
    ("openmp", {}),
    ("gpu", {}),
    ("gpu", {"data_strategy": "host_register"}),
    ("dmp", {"grid": (2, 2)}),
]


def _kernel(name, declarations, body):
    return f"""
subroutine {name}(a, b)
  implicit none
  integer, parameter :: n = 8
  real(kind=8), intent(inout) :: a(n)
  {declarations}
  integer :: i
{body}
end subroutine {name}
"""


#: One source per Fortran construct the frontend lowers.
CONSTRUCTS = {
    # real comparisons, .or., .not. -> fir.if, arith.cmpf / ori / xori
    "real_if": _kernel("real_if", "real(kind=8), intent(inout) :: b(n)", """
  do i = 2, n - 1
    if (a(i) > 1.0d0 .or. .not. (b(i) <= 0.5d0)) then
      b(i) = a(i-1)
    else
      b(i) = a(i+1)
    end if
  end do"""),
    # the index as data, integer / mod min max -> stencil.index, index_cast,
    # sitofp, divsi, remsi, maxsi, minsi
    "integer_ops": _kernel("integer_ops", "real(kind=8), intent(inout) :: b(n)", """
  do i = 2, n - 1
    b(i) = a(i) + i / 2 + mod(i, 3) + max(i, 3) - min(i, 5)
  end do"""),
    # unary minus, **, sign, every math intrinsic, real min/max
    "intrinsics": _kernel("intrinsics", "real(kind=8), intent(inout) :: b(n)", """
  do i = 2, n - 1
    b(i) = -a(i) + a(i) ** 2.5d0 + sign(a(i), a(i-1)) + log(a(i)) + log10(a(i)) &
      + tan(a(i)) + sqrt(abs(a(i))) + exp(a(i)) + sin(a(i)) + cos(a(i)) &
      + tanh(a(i)) + min(a(i), 1.0d0) + max(a(i), 2.0d0)
  end do"""),
    # allocate / deallocate -> fir.allocmem / freemem
    "heap_temporary": _kernel("heap_temporary", """real(kind=8), intent(inout) :: b(n)
  real(kind=8), allocatable :: t(:)""", """
  allocate(t(n))
  do i = 1, n
    t(i) = a(i) + b(i)
  end do
  do i = 2, n - 1
    a(i) = t(i-1) + t(i+1)
  end do
  deallocate(t)"""),
    # mixed kinds and int() -> extf, truncf, fptosi
    "mixed_kinds": _kernel("mixed_kinds", "real(kind=4), intent(inout) :: b(n)", """
  do i = 2, n - 1
    b(i) = a(i) + int(a(i-1))
    a(i) = b(i+1)
  end do"""),
}


def _sources():
    yield pw_advection.generate_source(8)
    yield gauss_seidel.generate_source_shaped((8, 8, 8), niters=2)
    for path in sorted(CORPUS.glob("*.f90")):
        yield path.read_text()
    yield from CONSTRUCTS.values()


def _leaf_classes(cls):
    """The subclasses of ``cls`` in the IR and the dialects that have no
    subclass of their own."""
    for sub in cls.__subclasses__():
        if sub.__subclasses__():
            yield from _leaf_classes(sub)
        elif sub.__module__.startswith(("repro.ir.", "repro.dialects.")):
            yield sub


class _Traffic:
    """What the corpus constructs, and which attributes it writes and reads,
    as ``(op name, attribute name)`` pairs."""

    def __init__(self):
        self.constructed = set()
        self.written = set()
        self.read = set()
        self.quiet = 0
        #: Every ``Attribute`` class (types included) constructed.
        self.leaves = set()


def _recording_attributes(traffic):
    class Attributes(dict):
        """One op's attribute dict, reporting writes and by-name lookups."""

        __slots__ = ("op_name",)

        def __setitem__(self, key, value):
            traffic.written.add((self.op_name, key))
            dict.__setitem__(self, key, value)

        def _looked_up(self, key):
            if not traffic.quiet:
                traffic.read.add((self.op_name, key))

        def __getitem__(self, key):
            self._looked_up(key)
            return dict.__getitem__(self, key)

        def get(self, key, default=None):
            self._looked_up(key)
            return dict.get(self, key, default)

        def __contains__(self, key):
            self._looked_up(key)
            return dict.__contains__(self, key)

    return Attributes


def synthesize_args(func_op):
    """Deterministic arguments matching ``func_op``'s static FIR signature:
    positive Fortran-ordered random fields (one rng stream per argument
    position) and fixed scalars."""
    args = []
    for position, arg_type in enumerate(func_op.function_type.inputs):
        element = arg_type.element_type \
            if fir.is_reference_like(arg_type) else arg_type
        if isinstance(element, fir.SequenceType):
            values = np.random.default_rng([0x5EED, position]).uniform(
                0.5, 2.0, size=element.shape)
            args.append(np.asfortranarray(
                values.astype(numpy_dtype_for(element.element_type))))
        else:
            dtype = numpy_dtype_for(element)
            args.append(dtype.type(1.5 if np.issubdtype(dtype, np.floating) else 2))
    return args


def _run(compiled):
    """Run a lowered handle on synthesized arguments, in crosscheck mode so
    the vectorized kernels and the scalar handlers both execute."""
    entry = detect_entry(compiled)
    args = synthesize_args(compiled.fir_module.get_symbol(entry))
    mode = "interpret" if compiled.backend_name == "flang-only" else "crosscheck"
    with np.errstate(all="ignore"):
        compiled.with_options(execution_mode=mode, threads=2).run(entry, *args)


def _exercise(session, store_dir):
    for source in _sources():
        program = session.compile(source)
        for backend, options in CONFIGS:
            compiled = program.lower(backend, **options)
            if backend != "dmp":
                _run(compiled)
    gs = session.compile(gauss_seidel.generate_source_shaped((8, 8, 8), niters=2))
    plan = gs.lower("dmp", grid=(2, 2)).distribute(
        source_builder=gauss_seidel.generate_source_shaped)
    plan.run(gauss_seidel.initial_condition(12), iterations=2)
    # Multi-box sweeps, at the stencil level and on a lowered nest.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "CACHE_BUDGET_BYTES", 256)
        _run(session.compile(pw_advection.generate_source(8)).lower("cpu"))
        _run(gs.lower("openmp"))
    # A store reload parses every attribute back, and linking one module
    # twice names both modules in the error.
    for _ in range(2):
        reloaded = repro.Session(store=ArtifactStore(store_dir)).compile(
            pw_advection.generate_source(8)).lower("gpu")
        _run(reloaded)
    twin = parse_module(print_module(reloaded.stencil_module))
    with pytest.raises(InterpreterError, match="defined twice"):
        Interpreter([reloaded.stencil_module, twin])


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """The census of the corpus compiling on every configuration and
    running."""
    traffic = _Traffic()
    attributes_cls = _recording_attributes(traffic)
    real_init, real_verify = Operation.__init__, Operation.verify

    def record(self, *args, **kwargs):
        traffic.constructed.add(type(self).name)
        real_init(self, *args, **kwargs)
        recorded = attributes_cls()
        recorded.op_name = self.name
        traffic.written.update((self.name, key) for key in self.attributes)
        dict.update(recorded, self.attributes)
        self.attributes = recorded

    def verify(self):
        traffic.quiet += 1
        try:
            return real_verify(self)
        finally:
            traffic.quiet -= 1

    def recording_init(real):
        def init(self, *args, **kwargs):
            traffic.leaves.add(type(self))
            real(self, *args, **kwargs)
        return init

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Operation, "__init__", record)
        patch.setattr(Operation, "verify", verify)
        # Each leaf's ``__init__``, not ``Attribute.__new__``: CPython cannot
        # restore a class's allocator once Python code has replaced it.
        for cls in _leaf_classes(Attribute):
            patch.setattr(cls, "__init__", recording_init(cls.__init__))
        _exercise(repro.Session(), tmp_path_factory.mktemp("store"))
    return traffic


def test_every_registered_op_is_constructed(traffic):
    registered = {op.name for dialect in ALL_DIALECTS for op in dialect.operations}
    assert sorted(registered - traffic.constructed) == []
    assert sorted(traffic.constructed - registered) == []


def test_every_interpreter_handler_runs_a_constructed_op(traffic):
    handlers = set(Interpreter(ModuleOp([]))._handlers)
    assert sorted(handlers - traffic.constructed) == []


def test_every_written_attribute_is_read(traffic):
    write_only = sorted(traffic.written - traffic.read)
    assert not write_only, f"written, never read: {write_only}"


def test_every_attribute_looked_up_is_one_something_writes(traffic):
    written = {key for _, key in traffic.written}
    never_written = sorted({key for _, key in traffic.read} - written)
    assert not never_written, f"looked up, never written: {never_written}"


def test_every_type_and_attribute_class_is_constructed(traffic):
    unbuilt = sorted(cls.__name__
                     for cls in set(_leaf_classes(Attribute)) - traffic.leaves)
    assert not unbuilt, f"never constructed: {unbuilt}"


def test_every_trait_is_read_or_verifies():
    """A trait is a check (``verify_trait``) or a question some code asks
    (its name read in ``src``); one only ever declared in ``traits = (...)``
    tuples and imports says nothing."""
    declared = {name: cls for name, cls in vars(traits_module).items()
                if isinstance(cls, type)
                and cls.__module__ == traits_module.__name__}
    read = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_declarations = {
            id(node) for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
            and any(getattr(target, "id", None) == "traits" for target in assign.targets)
            for node in ast.walk(assign.value)}
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id in declared
                 and id(node) not in in_declarations}
    idle = sorted(name for name, cls in declared.items()
                  if name not in read and not hasattr(cls, "verify_trait"))
    assert not idle, f"declared, never read or verified: {idle}"
