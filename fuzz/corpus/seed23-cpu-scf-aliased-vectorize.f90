
subroutine kernel_s23(a, b)
  implicit none
  integer, parameter :: n1 = 5, n2 = 5
  real(kind=8), intent(inout) :: a(n1, n2)
  real(kind=8), intent(inout) :: b(n1, n2)
  integer :: i, j
  do j = 2, n2 - 1
  do i = 2, n1 - 1
      a(i, j) = b(i, j-1)
  end do
  end do
end subroutine kernel_s23
