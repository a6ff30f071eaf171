"""The dialects hold what the compiler emits.

Every registered operation is one the compiler constructs on some path, and
every interpreter handler executes one of them.  An op that nothing builds is
dead code in its dialect and in the semantics reference.  The census records
the class of every ``Operation`` constructed while a fixed corpus compiles on
every backend configuration, intermediate ops such as ``dmp.halo_swap``
included.  There is no allowlist: an op no construct reaches goes.
"""

from pathlib import Path

import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.dialects import ALL_DIALECTS
from repro.dialects.builtin import ModuleOp
from repro.ir.operation import Operation
from repro.runtime import Interpreter

CORPUS = Path(__file__).resolve().parents[2] / "fuzz" / "corpus"

#: The backend configurations of the fuzz matrix, both GPU data strategies at
#: both levels, and a 2x2 process grid.
CONFIGS = [
    ("flang-only", {}),
    ("cpu", {}),
    ("cpu", {"lower_to_scf": True}),
    ("openmp", {"lower_to_scf": True}),
    ("openmp", {"lower_to_scf": True, "schedule": "dynamic", "chunk_size": 2}),
    ("gpu", {}),
    ("gpu", {"lower_to_scf": True}),
    ("gpu", {"data_strategy": "host_register"}),
    ("gpu", {"lower_to_scf": True, "data_strategy": "host_register"}),
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


@pytest.fixture(scope="module")
def constructed():
    """The name of every op class constructed while the corpus compiles on
    every configuration."""
    names = set()
    real = Operation.__init__

    def record(self, *args, **kwargs):
        names.add(type(self).name)
        real(self, *args, **kwargs)

    session = repro.Session()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Operation, "__init__", record)
        for source in _sources():
            for backend, options in CONFIGS:
                session.compile(source).lower(backend, **options)
    return names


def test_every_registered_op_is_constructed(constructed):
    registered = {op.name for dialect in ALL_DIALECTS for op in dialect.operations}
    assert sorted(registered - constructed) == []
    assert sorted(constructed - registered) == []


def test_every_interpreter_handler_runs_a_constructed_op(constructed):
    handlers = set(Interpreter(ModuleOp([]))._handlers)
    assert sorted(handlers - constructed) == []
