! Goal-directed procedure cloning (paper section 5):
!   python -m repro clone examples/clones.f --transform
! Both callees see conflicting constants at their call sites, so the
! merged analysis loses n and width; one cloning round recovers them.
! The FUNCTION's clone also renames its result variable.
program clones
  integer small, large
  small = scale(2)
  large = scale(8)
  call report(small, 4)
  call report(large, 16)
end

integer function scale(n)
  integer n
  scale = n * 10
  call clamp(scale)
  scale = scale + n
end

subroutine clamp(v)
  integer v
  if (v > 50) then
    v = 50
  endif
end

subroutine report(value, width)
  integer value, width, i, total
  ! one row of the report: width copies of value
  total = 0
  do i = 1, width
    total = total + value
  enddo
  write total
end
