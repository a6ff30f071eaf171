subroutine hoisted_indirect_store(a, idx)
  implicit none
  integer, parameter :: n = 8
  real(kind=8), intent(inout) :: a(12)
  integer, intent(inout) :: idx(n)
  integer :: i
  do i = 1, n
      a(idx(i)) = 1.0
      idx(i) = idx(i) + 4
      a(idx(i)) = 2.0
  end do
end subroutine hoisted_indirect_store
