// Minimal dense row-major matrix types used by the whole stack.
//
// The inference engine only ever needs rank-2 data (sequence x feature,
// feature x feature); a dedicated Mat<T> keeps indexing trivial and lets the
// GEMM kernels stay cache-friendly without a general strided-tensor layer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace realm::tensor {

/// Dense row-major matrix. Throws on out-of-range construction; element
/// access is unchecked in release builds (hot path) but bounds-checked via
/// at().
template <typename T>
class Mat {
 public:
  Mat() = default;

  Mat(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

  T& at(std::size_t r, std::size_t c) {
    check(r, c);
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    check(r, c);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<T> row(std::size_t r) noexcept {
    return std::span<T>(data_.data() + r * cols_, cols_);
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const noexcept {
    return std::span<const T>(data_.data() + r * cols_, cols_);
  }

  [[nodiscard]] std::span<T> flat() noexcept { return std::span<T>(data_); }
  [[nodiscard]] std::span<const T> flat() const noexcept { return std::span<const T>(data_); }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }

  void fill(T v) noexcept { std::fill(data_.begin(), data_.end(), v); }

  bool operator==(const Mat&) const = default;

 private:
  // Validated before data_ is constructed: the wrapped product must never
  // reach the allocator (a wrapped rows*cols would size a tiny buffer that
  // unchecked operator() then overruns).
  static std::size_t checked_size(std::size_t rows, std::size_t cols) {
    if (cols != 0 && rows > std::numeric_limits<std::size_t>::max() / cols) {
      throw std::invalid_argument("Mat: size overflow");
    }
    return rows * cols;
  }

  void check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) {
      throw std::out_of_range("Mat::at(" + std::to_string(r) + "," + std::to_string(c) +
                              ") of " + std::to_string(rows_) + "x" + std::to_string(cols_));
    }
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using MatF = Mat<float>;
using MatI8 = Mat<std::int8_t>;
using MatI32 = Mat<std::int32_t>;
using MatI64 = Mat<std::int64_t>;

}  // namespace realm::tensor
