// ABFT checksum primitives (Fig. 3 of the paper).
//
// For Y = A·B, the column-checksum identity is eᵀY = (eᵀA)·B and the
// row-checksum identity is Y·e = A·(B·e). Classical ABFT checks both sides;
// one-sided / MSD schemes check only columns; ReaLM's statistical unit
// consumes the per-column deviation vector d and its sum (the matrix-sum
// deviation, MSD = eᵀY·e − eᵀA·B·e).
//
// All checksum arithmetic is int64 here; reduced hardware widths (16-bit eᵀW
// row, 32-bit accumulator buses) are modeled separately in realm::sa through
// the width-limited kernels::*_width reductions.
//
// Every reduction routes through the tiered SIMD layer in
// checksum_kernels.{h,cpp} (avx512/avx2/portable, picked by the same runtime
// dispatch as the GEMM — kernels::active_tier()) and is row- or
// column-sharded across util::global_pool(); results are bit-identical to the
// int64 scalar reference at every tier and thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace realm::tensor {

/// eᵀM: per-column sums (length = cols).
[[nodiscard]] std::vector<std::int64_t> col_sums(const MatI8& m);
[[nodiscard]] std::vector<std::int64_t> col_sums(const MatI32& m);

/// M·e: per-row sums (length = rows).
[[nodiscard]] std::vector<std::int64_t> row_sums(const MatI8& m);
[[nodiscard]] std::vector<std::int64_t> row_sums(const MatI32& m);

/// Weighted checksum bases for the multi-fault ABFT solve (see
/// src/detect/correct.h): uᵀM with u = [1,2,3,…] and M·v with v = [1,2,3,…].
/// The ratio of weighted to plain deviation recovers the faulty row (column
/// solve) or column (row solve) index plus one. The weighted prediction
/// uᵀ(A·B) is never formed from A: the GEMM folds it in its store phase.
[[nodiscard]] std::vector<std::int64_t> weighted_col_sums(const MatI32& m);
[[nodiscard]] std::vector<std::int64_t> weighted_row_sums(const MatI8& m);
[[nodiscard]] std::vector<std::int64_t> weighted_row_sums(const MatI32& m);

/// Predicted column checksum of A·B, i.e. (eᵀA)·B, computed from the inputs
/// in O(k·n). No serving path runs it: the GEMM's fused eᵀC is the column
/// prediction. It is the reference the fused sums are checked against.
[[nodiscard]] std::vector<std::int64_t> predict_col_checksum(const MatI8& a, const MatI8& b);

/// Re-aim the column checksums of a product computed from a corrupted copy
/// of its left operand at the product of the clean copy. `cols` and `wcols`
/// hold eᵀ(A_work·B) and uᵀ(A_work·B) (the GEMM's fused sums); with
/// ΔA = a_clean − a_work, found by comparing the two copies row by row, this
/// adds (eᵀΔA)·B and (uᵀΔA)·B, visiting only the rows of B where a column of
/// ΔA is nonzero: O(m·k) compare plus O(|struck k|·n), not O(k·n). Exact
/// integer arithmetic, so the results equal predict_col_checksum(a_clean, b)
/// and (uᵀa_clean)·b bit for bit. Returns the rows where the copies differ,
/// ascending.
[[nodiscard]] std::vector<std::size_t> fold_operand_delta(const MatI8& a_clean,
                                                          const MatI8& a_work, const MatI8& b,
                                                          std::vector<std::int64_t>& cols,
                                                          std::vector<std::int64_t>& wcols);

/// Predicted row checksum of A·B, i.e. A·(B·e), from a precomputed weight
/// basis B·e (= row_sums(b)); the hardware keeps this resident with the
/// stationary weights so the per-GEMM row-side cost is O(m·k).
[[nodiscard]] std::vector<std::int64_t> predict_row_checksum(
    const MatI8& a, const std::vector<std::int64_t>& b_row_basis);

/// Per-column deviations and their aggregates for an (possibly faulty)
/// output C of A·B. diff[j] = (eᵀC)_j − ((eᵀA)·B)_j, which equals the sum of
/// all error values injected into column j.
struct ColumnDeviation {
  std::vector<std::int64_t> diff;  ///< per-column signed deviation
  std::int64_t msd_signed = 0;     ///< Σ diff (what the Fig. 7c accumulator computes)
  std::uint64_t msd_abs = 0;       ///< |Σ diff|
};

/// Deviation computed from a precomputed predicted checksum (the hardware
/// keeps eᵀW resident with the stationary weights, so prediction cost is paid
/// once per weight tile, not once per GEMM).
[[nodiscard]] ColumnDeviation column_deviation_from_predicted(
    const std::vector<std::int64_t>& predicted, const MatI32& c);

}  // namespace realm::tensor
