subroutine lifted_loop_variable(a, b, x)
  implicit none
  real(kind=8), intent(inout) :: a(10, 6), b(10, 6)
  integer, intent(inout) :: x(2)
  integer :: i, j
  do j = 2, 5
    do i = 2, 9
      a(i, j) = b(i-1, j) + b(i+1, j-1)
    end do
  end do
  x(1) = i
  x(2) = j
end subroutine lifted_loop_variable
