"""Dialect definitions.

Importing this package imports every dialect module, and defining an op or a
dialect type enters it in ``repro.ir``'s ``OP_CLASSES`` / ``TYPE_PARSERS``:
after this import both tables are complete.
"""

from . import (  # noqa: F401
    arith,
    builtin,
    dmp,
    fir,
    func,
    gpu,
    llvm,
    math_dialect,
    memref,
    mpi,
    omp,
    scf,
    stencil,
)
