#!/usr/bin/env python3
"""Quickstart: compile a Fortran stencil kernel with the stencil flow and run it.

This reproduces the paper's core idea on the Listing 1 example: unmodified
serial Fortran goes in, the compiler discovers the stencil in the FIR, extracts
it into a separate stencil-dialect module (printed here by running the
discovery + extraction pipeline by hand, the paper's Listing 2 shape), lowers
that module to scf loop nests, and the program runs with the optimised
(vectorised) execution path — all through the fluent API:
``repro.compile(source)`` returns a ``Program``, ``program.lower("cpu", ...)``
a compiled handle you derive and run.

Usage::

    PYTHONPATH=src python examples/quickstart.py [--execution-mode MODE] [--threads N]

where MODE is ``interpret`` (scalar oracle, the default), ``vectorize``
(compiled NumPy whole-array kernels) or ``crosscheck`` (run both, compare).
``--threads N`` (with vectorize/crosscheck) executes each compiled sweep as
tiles of its outermost dimension on a persistent N-worker thread pool.
"""

import argparse

import numpy as np

import repro
from repro.frontend import compile_to_fir
from repro.ir import PassManager, print_module
from repro.transforms.pipelines import FIR_STENCIL_PIPELINE

FORTRAN_SOURCE = """
subroutine average(data)
  implicit none
  integer, parameter :: n = 128
  real(kind=8), intent(inout) :: data(n, n)
  integer :: i, j
  do i = 2, n - 1
    do j = 2, n - 1
      data(j, i) = (data(j, i-1) + data(j, i+1) + data(j-1, i) + data(j+1, i)) * 0.25
    end do
  end do
end subroutine average
"""


def main(execution_mode: str = "interpret", threads: int = 1) -> float:
    # 1. Compile: Fortran -> FIR -> stencil discovery -> extraction.
    program = repro.compile(FORTRAN_SOURCE)
    compiled = program.lower("cpu", execution_mode=execution_mode,
                             threads=threads)
    print(f"execution mode      : {execution_mode} (threads={threads})")
    if threads > 1 and execution_mode == "interpret":
        print("note: --threads only affects compiled sweeps; the scalar "
              "'interpret' mode runs single-threaded "
              "(use --execution-mode vectorize or crosscheck)")
    print(f"discovered stencils : {compiled.discovered_stencils}")
    print(f"extracted functions : {compiled.extracted_functions}")

    # 2. Inspect the extracted stencil module (the paper's Listing 2 shape):
    #    the handle keeps it lowered, so run discovery + extraction by hand.
    extraction = PassManager().add_pipeline(FIR_STENCIL_PIPELINE)
    extraction.run(compile_to_fir(FORTRAN_SOURCE))
    extracted = extraction.passes[-1].extracted_module
    print("\n--- extracted stencil module (excerpt) ---")
    print("\n".join(print_module(extracted).splitlines()[:24]))
    print("\n--- the handle's module, lowered to scf loops (excerpt) ---")
    print("\n".join(print_module(compiled.stencil_module).splitlines()[:12]))

    # 3. Execute and check against a numpy reference.
    rng = np.random.default_rng(0)
    data = np.asfortranarray(rng.random((128, 128)))
    expected = data.copy()
    expected[1:-1, 1:-1] = (
        expected[1:-1, :-2] + expected[1:-1, 2:]
        + expected[:-2, 1:-1] + expected[2:, 1:-1]
    ) * 0.25

    compiled.run("average", data)
    error = float(np.abs(data - expected).max())
    print("\nmax |error| vs numpy reference:", error)
    return error


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--execution-mode",
        choices=("interpret", "vectorize", "crosscheck"),
        default="interpret",
        help="how the interpreter executes the extracted stencil",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for tiled parallel execution of compiled sweeps",
    )
    args = parser.parse_args()
    main(args.execution_mode, threads=args.threads)
