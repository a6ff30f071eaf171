
subroutine kernel_s10(a, b)
  implicit none
  integer, parameter :: n1 = 5
  real(kind=8), intent(inout) :: a(n1)
  real(kind=8), intent(inout) :: b(n1)
  integer :: i
  do i = 2, n1 - 1
      a(i) = b(i)
  end do
end subroutine kernel_s10
