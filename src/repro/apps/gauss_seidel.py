"""Gauss–Seidel benchmark (paper §4.1, first benchmark).

Solves Laplace's equation for diffusion in three dimensions with an iterative
solver: each sweep updates every interior grid cell with the average of its
six orthogonal neighbours (a 7-point stencil, 6 floating point operations per
grid cell).

Two numpy references are provided:

* :func:`reference_gauss_seidel` — true in-place Gauss–Seidel sweeps, which is
  what the serial Fortran (and hence the "Flang only" FIR execution) computes;
* :func:`reference_jacobi` — snapshot (Jacobi) sweeps, which is what the
  stencil-dialect execution computes, since ``stencil.apply`` reads a value
  snapshot of its inputs.  Both converge to the same fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Floating point operations per grid cell per sweep (5 adds + 1 divide).
FLOPS_PER_CELL = 6

#: Bytes moved per grid cell per sweep (read 7 + write 1 doubles, cold cache).
BYTES_PER_CELL = 8 * 8


@dataclass
class GaussSeidelProblem:
    """Problem configuration: cubic grid of ``n``³ cells, ``niters`` sweeps."""

    n: int
    niters: int = 1

    @property
    def cells(self) -> int:
        return self.n**3

    @property
    def interior_cells(self) -> int:
        return (self.n - 2) ** 3

    @property
    def flops_per_sweep(self) -> int:
        return self.interior_cells * FLOPS_PER_CELL


def generate_source(n: int, niters: int = 1, name: str = "gauss_seidel") -> str:
    """Fortran source for the benchmark with the problem size baked in as
    parameters (mirroring how the paper's benchmark kernels fix their size at
    compile time)."""
    return f"""
subroutine {name}(u)
  implicit none
  integer, parameter :: n = {n}
  integer, parameter :: niters = {niters}
  real(kind=8), intent(inout) :: u(n, n, n)
  integer :: i, j, k, it
  do it = 1, niters
    do k = 2, n - 1
      do j = 2, n - 1
        do i = 2, n - 1
          u(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) &
                      + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0d0
        end do
      end do
    end do
  end do
end subroutine {name}
"""


def generate_source_shaped(shape: Tuple[int, int, int], niters: int = 1,
                           name: str = "gauss_seidel") -> str:
    """Fortran source for the sweep over a (possibly non-cubic) local box.

    The distributed executor compiles one module per distinct rank-local
    padded shape, so non-divisible global domains — where ranks own boxes of
    different sizes — lower through exactly the same pipeline as the cubic
    benchmark.  ``shape`` is the full local extent including ghost planes.
    """
    n1, n2, n3 = (int(s) for s in shape)
    return f"""
subroutine {name}(u)
  implicit none
  integer, parameter :: n1 = {n1}
  integer, parameter :: n2 = {n2}
  integer, parameter :: n3 = {n3}
  integer, parameter :: niters = {niters}
  real(kind=8), intent(inout) :: u(n1, n2, n3)
  integer :: i, j, k, it
  do it = 1, niters
    do k = 2, n3 - 1
      do j = 2, n2 - 1
        do i = 2, n1 - 1
          u(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) &
                      + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0d0
        end do
      end do
    end do
  end do
end subroutine {name}
"""


def initial_condition(n: int, seed: int = 0) -> np.ndarray:
    """A reproducible initial field: random interior, fixed hot/cold faces."""
    rng = np.random.default_rng(seed)
    u = np.asfortranarray(rng.random((n, n, n)))
    u[0, :, :] = 1.0
    u[-1, :, :] = 0.0
    return u


def reference_jacobi(initial: np.ndarray, niters: int) -> np.ndarray:
    """Jacobi sweeps (stencil semantics): each sweep reads the previous field."""
    u = np.array(initial, copy=True, order="F")
    for _ in range(niters):
        old = u.copy()
        u[1:-1, 1:-1, 1:-1] = (
            old[:-2, 1:-1, 1:-1]
            + old[2:, 1:-1, 1:-1]
            + old[1:-1, :-2, 1:-1]
            + old[1:-1, 2:, 1:-1]
            + old[1:-1, 1:-1, :-2]
            + old[1:-1, 1:-1, 2:]
        ) / 6.0
    return u


def reference_gauss_seidel(initial: np.ndarray, niters: int) -> np.ndarray:
    """In-place Gauss–Seidel sweeps matching the serial Fortran loop nest."""
    u = np.array(initial, copy=True, order="F")
    n1, n2, n3 = u.shape
    for _ in range(niters):
        for k in range(1, n3 - 1):
            for j in range(1, n2 - 1):
                for i in range(1, n1 - 1):
                    u[i, j, k] = (
                        u[i - 1, j, k]
                        + u[i + 1, j, k]
                        + u[i, j - 1, k]
                        + u[i, j + 1, k]
                        + u[i, j, k - 1]
                        + u[i, j, k + 1]
                    ) / 6.0
    return u


def residual(u: np.ndarray) -> float:
    """Max-norm residual of the interior Laplace equation (convergence check)."""
    lap = (
        u[:-2, 1:-1, 1:-1]
        + u[2:, 1:-1, 1:-1]
        + u[1:-1, :-2, 1:-1]
        + u[1:-1, 2:, 1:-1]
        + u[1:-1, 1:-1, :-2]
        + u[1:-1, 1:-1, 2:]
    ) / 6.0 - u[1:-1, 1:-1, 1:-1]
    return float(np.abs(lap).max())


__all__ = [
    "GaussSeidelProblem",
    "generate_source",
    "generate_source_shaped",
    "initial_condition",
    "reference_jacobi",
    "reference_gauss_seidel",
    "residual",
    "FLOPS_PER_CELL",
    "BYTES_PER_CELL",
]
