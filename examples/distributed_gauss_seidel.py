#!/usr/bin/env python3
"""Automatic distributed-memory parallelisation of serial Fortran (Figure 6).

The unchanged Gauss-Seidel source is compiled through the DMP and MPI dialects
and executed on a 2x2 simulated communicator — four in-process *vectorized*
ranks with real halo exchanges, orchestrated end to end by the fluent
``.distribute(...)`` handle: ``run(global_field)`` scatters the global domain
(physical ghost planes included), runs every rank concurrently on its own
thread, and gathers the result.  The gathered field is compared
against the global numpy reference, and the measured 1-8 rank scaling series
(the paper's Figure 6, at a reduced grid size) is printed.
"""

import numpy as np

import repro
from repro.apps import gauss_seidel
from repro.harness import format_table, measured_distributed_scaling

LOCAL_N = 12      # interior cells per rank per decomposed dimension
GRID = (2, 2)     # process grid
NITERS = 3


def main() -> None:
    global_shape = (LOCAL_N * GRID[0], LOCAL_N * GRID[1], LOCAL_N)
    rng = np.random.default_rng(42)
    global_field = np.asfortranarray(rng.random(global_shape))
    reference = gauss_seidel.reference_jacobi(global_field, NITERS)

    # One compilation per distinct rank-local shape, shared by every rank
    # that owns a box of that shape (all of them, here: the domain divides).
    program = repro.compile(
        gauss_seidel.generate_source_shaped((LOCAL_N + 2,) * 3, niters=1)
    )
    distributed = (
        program.lower("dmp", grid=GRID, execution_mode="vectorize")
               .distribute(source_builder=gauss_seidel.generate_source_shaped)
    )

    result = distributed.run(global_field, iterations=NITERS)
    max_err = result.max_interior_error(reference, margin=NITERS)

    print(f"ranks={result.ranks}  halo messages={result.messages}  "
          f"bytes exchanged={result.bytes:,}  max interior error={max_err:.2e}")
    for stats in result.rank_stats:
        print(f"  rank {stats.rank}: bounds={stats.bounds}  "
              f"messages={stats.messages}  bytes={stats.bytes:,}  "
              f"halo={stats.halo_seconds * 1e3:.2f}ms  "
              f"kernel={stats.kernel_seconds * 1e3:.2f}ms")

    print()
    print(format_table(measured_distributed_scaling()))


if __name__ == "__main__":
    main()
