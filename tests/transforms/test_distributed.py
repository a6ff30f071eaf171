"""Tests for the DMP / MPI lowering and the simulated distributed execution."""

import numpy as np
import pytest

import repro
from repro.api.distributed import detect_halo
from repro.apps import gauss_seidel
from repro.dialects import dmp, mpi, stencil
from repro.harness import measured_distributed_scaling
from repro.runtime.mpi_runtime import CartesianDecomposition, MPIError, SimulatedCommunicator
from repro.transforms import (ConvertDMPToMPIPass, ConvertStencilToDMPPass,
                              ConvertStencilToSCFPass)


class TestStencilToDMP:
    @pytest.fixture
    def dmp_module(self, extract):
        """``dmp_module(grid, lower_to_mpi, lower_to_scf)``: the extracted
        Gauss-Seidel modules ``(fir, stencil)`` through the dmp passes asked."""
        def build(grid=(2, 2), lower_to_mpi=False, lower_to_scf=False):
            fir, module = extract(gauss_seidel.generate_source(10, niters=1))
            ConvertStencilToDMPPass(grid=grid).apply(module)
            if lower_to_mpi:
                ConvertDMPToMPIPass().apply(module)
            if lower_to_scf:
                ConvertStencilToSCFPass(target="cpu").apply(module)
            module.verify()
            return fir, module

        return build

    def test_halo_swap_inserted_before_snapshot(self, dmp_module):
        _, mod = dmp_module()
        swaps = [op for op in mod.walk() if isinstance(op, dmp.HaloSwapOp)]
        assert len(swaps) == 1
        assert swaps[0].halo == (1, 1, 1)
        block_ops = list(swaps[0].parent_block().ops)
        swap_index = block_ops.index(swaps[0])
        load_index = next(
            i for i, op in enumerate(block_ops) if isinstance(op, stencil.LoadOp)
        )
        assert swap_index < load_index

    def test_unlowered_halo_swap_is_not_executable(self, dmp_module):
        """``convert-dmp-to-mpi`` is the one halo exchange: a ``dmp.halo_swap``
        that skipped it has no interpreter handler."""
        from repro.runtime import Interpreter, InterpreterError

        interp = Interpreter(list(dmp_module(lower_to_scf=True)),
                             decomposition=CartesianDecomposition((20, 20, 10), (2, 2)))
        with pytest.raises(InterpreterError,
                           match="no interpreter handler for operation 'dmp.halo_swap'"):
            interp.call("gauss_seidel", gauss_seidel.initial_condition(10))

    def test_grid_string_option(self):
        p = ConvertStencilToDMPPass(grid="4x8")
        assert p.grid == (4, 8)

    def test_dmp_to_mpi_lowering(self, dmp_module):
        _, mod = dmp_module(lower_to_mpi=True)
        assert not any(isinstance(op, dmp.HaloSwapOp) for op in mod.walk())
        isends = [op for op in mod.walk() if isinstance(op, mpi.ISendOp)]
        irecvs = [op for op in mod.walk() if isinstance(op, mpi.IRecvOp)]
        waits = [op for op in mod.walk() if isinstance(op, mpi.WaitAllOp)]
        # 2 decomposed dims x 2 directions
        assert len(isends) == 4 and len(irecvs) == 4 and len(waits) == 1
        for op in isends + irecvs:
            assert op.get_attr_or_none("slice_lb") is not None
        # One i32 constant per tag in the block: cse would find none.
        tags = [op.operands[2].op for op in isends + irecvs]
        assert len({id(tag) for tag in tags}) == 4


class TestCartesianDecomposition:
    def test_rank_coordinate_round_trip(self):
        d = CartesianDecomposition((16, 16, 8), (2, 4))
        for rank in range(2 * 4):
            assert d.rank_of(d.coords_of(rank)) == rank

    def test_local_bounds_partition_domain(self):
        d = CartesianDecomposition((10, 9, 4), (2, 3))
        covered = np.zeros((10, 9), dtype=int)
        for rank in range(2 * 3):
            (xl, xu), (yl, yu), (zl, zu) = d.local_bounds(rank)
            assert (zl, zu) == (0, 4)
            covered[xl:xu, yl:yu] += 1
        assert np.all(covered == 1)

    def test_neighbours_at_edges(self):
        """Rank 0's neighbours, as ``dmp.neighbour_rank`` finds them: one step
        along a grid dimension, -1 off the grid."""
        d = CartesianDecomposition((8, 8), (2, 2))
        assert d.coords_of(0) == (0, 0)
        assert d.rank_of((-1, 0)) == -1 and d.rank_of((0, -1)) == -1
        assert d.rank_of((1, 0)) == 2 and d.rank_of((0, 1)) == 1
        assert d.local_bounds(2) == [(4, 8), (0, 4)]


class TestSimulatedCommunicator:
    def test_send_receive_fifo(self):
        comm = SimulatedCommunicator(2)
        comm.send(0, 1, 7, np.arange(4))
        comm.send(0, 1, 7, np.arange(4) * 2)
        first = comm.receive(0, 1, 7)
        second = comm.receive(0, 1, 7)
        assert np.array_equal(first, np.arange(4))
        assert np.array_equal(second, np.arange(4) * 2)

    def test_invalid_rank_rejected(self):
        comm = SimulatedCommunicator(2)
        with pytest.raises(MPIError):
            comm.send(0, 5, 0, np.zeros(1))

    def test_receive_timeout(self):
        comm = SimulatedCommunicator(2)
        with pytest.raises(MPIError):
            comm.receive(0, 1, 0, timeout=0.05)

    def test_payload_is_copied(self):
        comm = SimulatedCommunicator(2)
        data = np.ones(3)
        comm.send(0, 1, 0, data)
        data[:] = 5.0
        received = comm.receive(0, 1, 0)
        assert np.array_equal(received, np.ones(3))


class TestDistributedExecution:
    @pytest.mark.parametrize("ranks", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
    def test_multi_rank_gauss_seidel_matches_reference(self, ranks):
        """The measured Figure 6 driver raises when a rank grid misses the
        global Jacobi reference on the interior."""
        result = measured_distributed_scaling(rank_grids=[ranks], n=12,
                                              niters=2, repeats=1)
        [(count, _, _, _, _, error)] = result.rows
        assert count == ranks[0] * ranks[1]
        assert error < 1e-12
        messages = result.notes[f"ranks={count}"]["messages"]
        assert (messages > 0) == (ranks != (1, 1))

    def test_unmodified_source_used_for_distribution(self):
        source = gauss_seidel.generate_source(8, niters=1)
        serial = repro.compile(source).lower("flang-only")
        distributed = repro.compile(source).lower("dmp", grid=(2, 2))
        assert serial.source == distributed.source
        assert distributed.stencil_module is not None


def star2_source(shape, niters=1):
    """A width-2 star stencil (Jacobi) over a padded local box ``shape``."""
    n1, n2, n3 = (int(s) for s in shape)
    return f"""
subroutine star2(u)
  implicit none
  integer, parameter :: n1 = {n1}
  integer, parameter :: n2 = {n2}
  integer, parameter :: n3 = {n3}
  integer, parameter :: niters = {niters}
  real(kind=8), intent(inout) :: u(n1, n2, n3)
  integer :: i, j, k, it
  do it = 1, niters
    do k = 3, n3 - 2
      do j = 3, n2 - 2
        do i = 3, n1 - 2
          u(i, j, k) = (u(i-2, j, k) + u(i+2, j, k) + u(i, j-2, k) &
                      + u(i, j+2, k) + u(i, j, k-2) + u(i, j, k+2)) / 6.0d0
        end do
      end do
    end do
  end do
end subroutine star2
"""


class TestHaloWidth:
    """The widest halo outlives the applies the dmp backend lowers away: it
    is recorded on the function, and ``detect_halo`` reads it there."""

    N = 12

    def plan(self, grid, mode="vectorize"):
        local = (self.N // grid[0] + 4, self.N // grid[1] + 4, self.N + 4)
        handle = repro.Session().compile(star2_source(local)).lower(
            "dmp", grid=grid, execution_mode=mode)
        return handle, handle.distribute(source_builder=star2_source)

    def test_the_function_keeps_the_widest_halo(self):
        handle, _ = self.plan((2, 1))
        [func_op] = [op for op in handle.stencil_module.walk()
                     if op.name == "func.func"]
        assert func_op.get_attr("dmp.halo").as_tuple() == (2, 2, 2)
        assert not any(op.name.startswith("stencil.")
                       for op in handle.stencil_module.walk())
        assert detect_halo(handle) == 2

    def test_a_width_2_stencil_on_two_ranks_is_its_one_rank_run(self):
        field = np.asfortranarray(
            np.random.default_rng(7).random((self.N, self.N, self.N)))
        one = self.plan((1, 1), "interpret")[1].run(field, iterations=2)
        two = self.plan((2, 1))[1].run(field, iterations=2)
        assert two.messages > 0
        assert two.field.tobytes() == one.field.tobytes()
