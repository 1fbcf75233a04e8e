#include "tensor/tensor.h"

#include <cstddef>
#include <limits>
#include <stdexcept>

#include "realm_test.h"

using namespace realm::tensor;

REALM_TEST(mat_overflow_throws_before_alloc) {
  // rows * cols wraps std::size_t; the constructor must reject this before
  // sizing the allocation (the old check ran after, on the wrapped product).
  constexpr std::size_t big = std::numeric_limits<std::size_t>::max() / 2;
  REALM_CHECK_THROWS(MatI8(big, 3), std::invalid_argument);
  REALM_CHECK_THROWS(MatI32(3, big), std::invalid_argument);
  // Degenerate-but-valid shapes still construct.
  const MatI8 empty(0, 1000);
  REALM_CHECK_EQ(empty.size(), std::size_t{0});
}

REALM_TEST(mat_at_bounds_checked) {
  MatI32 m(2, 3, 7);
  REALM_CHECK_EQ(m.at(1, 2), 7);
  REALM_CHECK_THROWS(m.at(2, 0), std::out_of_range);
  REALM_CHECK_THROWS(m.at(0, 3), std::out_of_range);
}

REALM_TEST_MAIN()
