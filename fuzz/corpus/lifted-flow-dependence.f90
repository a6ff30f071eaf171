
subroutine kernel_s1(a, b, c)
  implicit none
  integer, parameter :: n1 = 16
  real(kind=8), intent(inout) :: a(n1)
  real(kind=8), intent(inout) :: b(n1)
  real(kind=8), intent(inout) :: c(n1)
  integer :: i
  do i = 2, n1 - 1
      b(i) = a(i)
      c(i) = b(i+1)
  end do
end subroutine kernel_s1
