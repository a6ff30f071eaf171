#!/usr/bin/env python3
"""PW advection on the (simulated) GPU: fusion + data-management strategies.

Shows the three stencils of the Piacsek-Williams advection scheme being fused
into one stencil region, then compares the paper's two GPU data strategies by
running both against the simulated V100 and reporting the PCIe traffic each
one generates (the reason the optimised pass wins in Figure 5).
"""

import numpy as np

import repro
from repro.apps import pw_advection
from repro.runtime import SimulatedGPU

N = 24


def main() -> None:
    program = repro.compile(pw_advection.generate_source(N, niters=4))

    for strategy in ("host_register", "optimised"):
        # Listing 4 outlines the fused region into one gpu.func, and the
        # vectorized GPU engine runs each gpu.launch_func as one batched
        # whole-lattice sweep.
        compiled = program.lower("gpu", data_strategy=strategy,
                                 execution_mode="vectorize")
        stencils = sum(compiled.discovered_stencils.values())
        kernels = sum(1 for op in compiled.stencil_module.walk()
                      if op.name == "gpu.func")
        device = SimulatedGPU()
        fields = [f.copy(order="F") for f in pw_advection.initial_fields(N)]
        interp = compiled.run("pw_advection", *fields, gpu=device)

        rsu, _, _ = pw_advection.reference(fields[0], fields[1], fields[2])
        assert np.allclose(fields[3], rsu)

        summary = device.summary()
        print(f"strategy={strategy:14s} fused stencils={stencils} "
              f"kernels={kernels} launches={summary['launches']:3.0f} "
              f"(batched {interp.stats['gpu_launches_vectorized']}) "
              f"explicit h2d={summary['h2d_bytes']:>12,.0f} B "
              f"on-demand PCIe={summary['on_demand_bytes']:>14,.0f} B "
              f"gpu={interp.stats['gpu_seconds'] * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
