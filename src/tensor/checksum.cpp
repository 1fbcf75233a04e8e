#include "tensor/checksum.h"

#include <cstring>
#include <stdexcept>

#include "tensor/checksum_kernels.h"
#include "util/bitmath.h"

namespace realm::tensor {

std::vector<std::int64_t> col_sums(const MatI8& m) {
  std::vector<std::int64_t> sums(m.cols());
  kernels::col_sums_i8(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> col_sums(const MatI32& m) {
  std::vector<std::int64_t> sums(m.cols());
  kernels::col_sums_i32(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> row_sums(const MatI8& m) {
  std::vector<std::int64_t> sums(m.rows());
  kernels::row_sums_i8(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> row_sums(const MatI32& m) {
  std::vector<std::int64_t> sums(m.rows());
  kernels::row_sums_i32(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> weighted_col_sums(const MatI32& m) {
  std::vector<std::int64_t> sums(m.cols());
  kernels::weighted_col_sums_i32(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> weighted_row_sums(const MatI8& m) {
  std::vector<std::int64_t> sums(m.rows());
  kernels::weighted_row_sums_i8(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> weighted_row_sums(const MatI32& m) {
  std::vector<std::int64_t> sums(m.rows());
  kernels::weighted_row_sums_i32(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> predict_col_checksum(const MatI8& a, const MatI8& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("predict_col_checksum: dim mismatch");
  const std::vector<std::int64_t> ea = col_sums(a);  // 1 x k
  std::vector<std::int64_t> out(b.cols());
  kernels::predict_col_checksum(ea.data(), b.data(), b.rows(), b.cols(), out.data());
  return out;
}

std::vector<std::size_t> fold_operand_delta(const MatI8& a_clean, const MatI8& a_work,
                                            const MatI8& b, std::vector<std::int64_t>& cols,
                                            std::vector<std::int64_t>& wcols) {
  if (a_clean.rows() != a_work.rows() || a_clean.cols() != a_work.cols() ||
      a_clean.cols() != b.rows() || cols.size() != b.cols() || wcols.size() != b.cols()) {
    throw std::invalid_argument("fold_operand_delta: dim mismatch");
  }
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  std::vector<std::size_t> struck;
  std::vector<std::int64_t> e_delta;  // eᵀΔA, sized on the first struck row
  std::vector<std::int64_t> u_delta;  // uᵀΔA
  for (std::size_t i = 0; i < a_clean.rows(); ++i) {
    const std::int8_t* clean = a_clean.data() + i * k;
    const std::int8_t* work = a_work.data() + i * k;
    if (std::memcmp(clean, work, k) == 0) continue;
    struck.push_back(i);
    if (e_delta.empty()) {
      e_delta.assign(k, 0);
      u_delta.assign(k, 0);
    }
    const auto u = static_cast<std::int64_t>(i + 1);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const std::int64_t d = std::int64_t{clean[kk]} - std::int64_t{work[kk]};
      e_delta[kk] += d;
      u_delta[kk] += u * d;
    }
  }
  for (std::size_t kk = 0; kk < e_delta.size(); ++kk) {
    // Two strikes in one k-column can cancel in eᵀΔA but not in uᵀΔA, so a
    // row of B is skipped only when both are zero.
    if (e_delta[kk] == 0 && u_delta[kk] == 0) continue;
    const std::int8_t* brow = b.data() + kk * n;
    for (std::size_t j = 0; j < n; ++j) {
      cols[j] += e_delta[kk] * brow[j];
      wcols[j] += u_delta[kk] * brow[j];
    }
  }
  return struck;
}

std::vector<std::int64_t> predict_row_checksum(const MatI8& a,
                                               const std::vector<std::int64_t>& b_row_basis) {
  if (a.cols() != b_row_basis.size()) {
    throw std::invalid_argument("predict_row_checksum: basis length mismatch");
  }
  std::vector<std::int64_t> out(a.rows());
  kernels::predict_row_checksum(a.data(), a.rows(), a.cols(), b_row_basis.data(), out.data());
  return out;
}

ColumnDeviation column_deviation_from_predicted(const std::vector<std::int64_t>& predicted,
                                                const MatI32& c) {
  if (predicted.size() != c.cols()) {
    throw std::invalid_argument("column_deviation: checksum length mismatch");
  }
  ColumnDeviation dev;
  dev.diff.resize(c.cols());
  const std::vector<std::int64_t> observed = col_sums(c);
  // Saturating arithmetic throughout: a wrapped accumulator would alias a
  // huge deviation to a small one and mask exactly the bursts the MSD
  // statistic exists to expose (see bitmath.h).
  std::int64_t signed_sum = 0;
  for (std::size_t j = 0; j < c.cols(); ++j) {
    const std::int64_t d = util::sat_sub_i64(observed[j], predicted[j]);
    dev.diff[j] = d;
    signed_sum = util::sat_add_i64(signed_sum, d);
  }
  dev.msd_signed = signed_sum;
  dev.msd_abs = util::abs_u64(signed_sum);
  return dev;
}

}  // namespace realm::tensor
