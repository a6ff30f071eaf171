
subroutine kernel_s2(a, b, c)
  implicit none
  integer, parameter :: n1 = 16
  real(kind=8), intent(inout) :: a(n1)
  real(kind=8), intent(inout) :: b(n1)
  real(kind=8), intent(inout) :: c(n1)
  integer :: i
  do i = 2, n1 - 1
      c(i) = b(i-1)
      b(i) = a(i)
  end do
end subroutine kernel_s2
