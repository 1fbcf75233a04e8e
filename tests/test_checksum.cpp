#include "tensor/checksum.h"

#include <cstdint>
#include <vector>

#include "realm_test.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/rng.h"

using namespace realm::tensor;

namespace {

MatI8 random_i8(std::size_t rows, std::size_t cols, realm::util::Rng& rng) {
  MatI8 m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return m;
}

}  // namespace

REALM_TEST(column_checksum_linearity) {
  // eᵀ(A·B) == (eᵀA)·B on fault-free outputs, for several shapes.
  realm::util::Rng rng(11);
  const std::size_t shapes[][3] = {{4, 9, 6}, {32, 64, 16}, {1, 128, 5}};
  for (const auto& s : shapes) {
    const MatI8 a = random_i8(s[0], s[1], rng);
    const MatI8 b = random_i8(s[1], s[2], rng);
    const MatI32 c = gemm_i8(a, b);
    REALM_CHECK(col_sums(c) == predict_col_checksum(a, b));
    const ColumnDeviation dev = column_deviation_from_predicted(predict_col_checksum(a, b), c);
    REALM_CHECK(dev.diff == std::vector<std::int64_t>(c.cols(), 0));
    REALM_CHECK_EQ(dev.msd_signed, std::int64_t{0});
  }
}

REALM_TEST(row_checksum_linearity) {
  realm::util::Rng rng(12);
  const MatI8 a = random_i8(13, 40, rng);
  const MatI8 b = random_i8(40, 21, rng);
  const MatI32 c = gemm_i8(a, b);
  // C·e == A·(B·e), with B·e the weight-resident basis.
  REALM_CHECK(row_sums(c) == predict_row_checksum(a, row_sums(b)));
  REALM_CHECK_THROWS(predict_row_checksum(a, std::vector<std::int64_t>(3, 0)),
                     std::invalid_argument);
}

REALM_TEST(deviation_reflects_injected_error) {
  // An additive error e at (r, j) must surface as diff[j] == e and MSD == e.
  realm::util::Rng rng(13);
  const MatI8 a = random_i8(8, 16, rng);
  const MatI8 b = random_i8(16, 8, rng);
  MatI32 c = gemm_i8(a, b);
  c(3, 5) += 1000;
  c(6, 2) -= 250;
  const ColumnDeviation dev = column_deviation_from_predicted(predict_col_checksum(a, b), c);
  REALM_CHECK_EQ(dev.diff[5], std::int64_t{1000});
  REALM_CHECK_EQ(dev.diff[2], std::int64_t{-250});
  REALM_CHECK_EQ(dev.msd_signed, std::int64_t{750});
  REALM_CHECK_EQ(dev.msd_abs, std::uint64_t{750});
}

REALM_TEST(deviation_saturates_instead_of_wrapping) {
  // Adversarial predicted checksums drive the signed accumulator past the
  // int64 range; raw += would wrap a huge deviation back to a small value.
  const MatI32 c(1, 2, 0);
  const std::vector<std::int64_t> predicted = {INT64_MIN, INT64_MIN};
  const ColumnDeviation dev = column_deviation_from_predicted(predicted, c);
  REALM_CHECK_EQ(dev.diff[0], INT64_MAX);  // 0 - INT64_MIN saturates
  REALM_CHECK_EQ(dev.msd_signed, INT64_MAX);
  REALM_CHECK_EQ(dev.msd_abs, static_cast<std::uint64_t>(INT64_MAX));
  REALM_CHECK_EQ(dev.diff[1], INT64_MAX);
  REALM_CHECK_THROWS(column_deviation_from_predicted({0, 0, 0}, c), std::invalid_argument);
}

REALM_TEST_MAIN()
