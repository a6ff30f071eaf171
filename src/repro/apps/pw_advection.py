"""Piacsek–Williams advection benchmark (paper §4.1, second benchmark).

The PW advection scheme (Piacsek & Williams 1970) computes source terms for
the three wind components ``u``, ``v``, ``w`` from their current values —
the kernel used by the Met Office MONC atmospheric model.  It consists of
three separate stencil computations over three fields which the stencil
transformation fuses into a single stencil region; the paper counts 63
floating point operations per grid cell.
"""

from __future__ import annotations

import numpy as np

#: Floating point operations per grid cell (3 components x 21 flops each).
FLOPS_PER_CELL = 63

#: Bytes moved per grid cell (6 fields read/written as doubles, cold cache).
BYTES_PER_CELL = 8 * 12


def generate_source(n: int, niters: int = 1, name: str = "pw_advection",
                    dx: float = 100.0, dy: float = 100.0, dz: float = 100.0) -> str:
    """Fortran source for the PW advection kernel.

    Three separate loop nests compute ``su``, ``sv`` and ``sw``; the stencil
    flow discovers all three and fuses them into one stencil region.
    """
    return f"""
subroutine {name}(u, v, w, su, sv, sw)
  implicit none
  integer, parameter :: n = {n}
  integer, parameter :: niters = {niters}
  real(kind=8), parameter :: tcx = 0.5d0 / {float(dx)!r}d0
  real(kind=8), parameter :: tcy = 0.5d0 / {float(dy)!r}d0
  real(kind=8), parameter :: tcz = 0.5d0 / {float(dz)!r}d0
  real(kind=8), intent(in) :: u(n, n, n), v(n, n, n), w(n, n, n)
  real(kind=8), intent(inout) :: su(n, n, n), sv(n, n, n), sw(n, n, n)
  integer :: i, j, k, it
  do it = 1, niters
    do k = 2, n - 1
      do j = 2, n - 1
        do i = 2, n - 1
          su(i, j, k) = tcx * (u(i-1, j, k) * (u(i, j, k) + u(i-1, j, k)) &
                             - u(i+1, j, k) * (u(i, j, k) + u(i+1, j, k))) &
                      + tcy * (u(i, j-1, k) * (v(i, j-1, k) + v(i-1, j-1, k)) &
                             - u(i, j+1, k) * (v(i, j, k) + v(i-1, j, k))) &
                      + tcz * (u(i, j, k-1) * (w(i, j, k-1) + w(i-1, j, k-1)) &
                             - u(i, j, k+1) * (w(i, j, k) + w(i-1, j, k)))
        end do
      end do
    end do
    do k = 2, n - 1
      do j = 2, n - 1
        do i = 2, n - 1
          sv(i, j, k) = tcx * (v(i-1, j, k) * (u(i-1, j, k) + u(i-1, j+1, k)) &
                             - v(i+1, j, k) * (u(i, j, k) + u(i, j+1, k))) &
                      + tcy * (v(i, j-1, k) * (v(i, j, k) + v(i, j-1, k)) &
                             - v(i, j+1, k) * (v(i, j, k) + v(i, j+1, k))) &
                      + tcz * (v(i, j, k-1) * (w(i, j, k-1) + w(i, j+1, k-1)) &
                             - v(i, j, k+1) * (w(i, j, k) + w(i, j+1, k)))
        end do
      end do
    end do
    do k = 2, n - 1
      do j = 2, n - 1
        do i = 2, n - 1
          sw(i, j, k) = tcx * (w(i-1, j, k) * (u(i-1, j, k) + u(i-1, j, k+1)) &
                             - w(i+1, j, k) * (u(i, j, k) + u(i, j, k+1))) &
                      + tcy * (w(i, j-1, k) * (v(i, j-1, k) + v(i, j-1, k+1)) &
                             - w(i, j+1, k) * (v(i, j, k) + v(i, j, k+1))) &
                      + tcz * (w(i, j, k-1) * (w(i, j, k) + w(i, j, k-1)) &
                             - w(i, j, k+1) * (w(i, j, k) + w(i, j, k+1)))
        end do
      end do
    end do
  end do
end subroutine {name}
"""


def initial_fields(n: int, seed: int = 0):
    """Reproducible wind fields (u, v, w) plus zeroed source terms."""
    rng = np.random.default_rng(seed)
    u = np.asfortranarray(rng.random((n, n, n)))
    v = np.asfortranarray(rng.random((n, n, n)))
    w = np.asfortranarray(rng.random((n, n, n)))
    su = np.zeros((n, n, n), order="F")
    sv = np.zeros((n, n, n), order="F")
    sw = np.zeros((n, n, n), order="F")
    return u, v, w, su, sv, sw


def reference(u: np.ndarray, v: np.ndarray, w: np.ndarray,
              dx: float = 100.0, dy: float = 100.0, dz: float = 100.0):
    """Vectorised numpy reference of one PW advection evaluation.

    Returns (su, sv, sw) with zero boundaries, matching the Fortran kernel.
    """
    tcx, tcy, tcz = 0.5 / dx, 0.5 / dy, 0.5 / dz
    n1, n2, n3 = u.shape
    su = np.zeros_like(u)
    sv = np.zeros_like(u)
    sw = np.zeros_like(u)
    C = np.s_[1:-1, 1:-1, 1:-1]         # centre
    XM = np.s_[:-2, 1:-1, 1:-1]         # i-1
    XP = np.s_[2:, 1:-1, 1:-1]          # i+1
    YM = np.s_[1:-1, :-2, 1:-1]         # j-1
    YP = np.s_[1:-1, 2:, 1:-1]          # j+1
    ZM = np.s_[1:-1, 1:-1, :-2]         # k-1
    ZP = np.s_[1:-1, 1:-1, 2:]          # k+1
    XMYM = np.s_[:-2, :-2, 1:-1]        # i-1, j-1
    XMYP = np.s_[:-2, 2:, 1:-1]         # i-1, j+1
    XMZM = np.s_[:-2, 1:-1, :-2]        # i-1, k-1
    XMZP = np.s_[:-2, 1:-1, 2:]         # i-1, k+1
    YMZP = np.s_[1:-1, :-2, 2:]         # j-1, k+1
    YPZM = np.s_[1:-1, 2:, :-2]         # j+1, k-1
    YPZP = np.s_[1:-1, 2:, 2:]          # j+1, k+1
    XPZP = np.s_[2:, 1:-1, 2:]          # i+1, k+1
    XPYP = np.s_[2:, 2:, 1:-1]          # i+1, j+1
    XMYMK = XMYM

    su[C] = (
        tcx * (u[XM] * (u[C] + u[XM]) - u[XP] * (u[C] + u[XP]))
        + tcy * (u[YM] * (v[YM] + v[XMYM]) - u[YP] * (v[C] + v[XM]))
        + tcz * (u[ZM] * (w[ZM] + w[XMZM]) - u[ZP] * (w[C] + w[XM]))
    )
    sv[C] = (
        tcx * (v[XM] * (u[XM] + u[XMYP]) - v[XP] * (u[C] + u[YP]))
        + tcy * (v[YM] * (v[C] + v[YM]) - v[YP] * (v[C] + v[YP]))
        + tcz * (v[ZM] * (w[ZM] + w[YPZM]) - v[ZP] * (w[C] + w[YP]))
    )
    sw[C] = (
        tcx * (w[XM] * (u[XM] + u[XMZP]) - w[XP] * (u[C] + u[ZP]))
        + tcy * (w[YM] * (v[YM] + v[YMZP]) - w[YP] * (v[C] + v[ZP]))
        + tcz * (w[ZM] * (w[C] + w[ZM]) - w[ZP] * (w[C] + w[ZP]))
    )
    return su, sv, sw


__all__ = [
    "generate_source",
    "initial_fields",
    "reference",
    "FLOPS_PER_CELL",
    "BYTES_PER_CELL",
]
