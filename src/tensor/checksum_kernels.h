// Tiered SIMD reductions for the ABFT checksum screen.
//
// Mirrors the gemm_kernels architecture: one bit-exact contract, three
// implementations (avx512 / avx2 / portable) selected by the SAME runtime
// dispatch — kernels::active_tier() — so REALM_KERNEL and set_active_tier()
// steer the GEMM and its checksum screen together. Every function produces
// results identical to the int64 scalar reference at every tier and every
// thread count: all arithmetic is exact integer math (associative and
// commutative), and work is sharded so each output element is owned by
// exactly one chunk (rows for row-indexed outputs, column bands for
// column-indexed outputs — no cross-chunk merge anywhere).
//
// Widening strategy per kernel (the scalar loops these replace accumulated
// int64 one element at a time):
//  * col_sums_i8  — rows are added into int16 lane accumulators in blocks of
//    ≤256 rows (256·|−128| = 32768 exactly saturates nothing: int16 min is
//    −32768), then flushed into the int64 output; ~32 columns per vector op.
//  * col_sums_i32 — int32 lanes sign-extended to int64 and added directly.
//  * row_sums_i8  — the vpsadbw trick: bias to uint8 (xor 0x80), sum absolute
//    differences against zero into 64-bit lanes, subtract 128·cols once.
//  * row_sums_i32 — sign-extend + add, horizontal reduce per row.
//  * predict_row  — 32×32→64-bit vpmuldq products (the multiplier W·e
//    entries are bounded by 128·cols, so they fit int32 for every matrix
//    smaller than 2^24 columns; the unreachable huge case falls back to
//    scalar). predict_col_checksum is the O(k·n) scalar reference only: the
//    GEMM's fused eᵀC is the column prediction on every serving path.
//  * weighted_row_sums_i8 — the weighted basis W·v captured at every weight
//    install: per block of 32/64 columns, vpmaddubsw against the in-block
//    ramp 1..32/64 plus the block's vpsadbw sum times its column offset.
//
// All pointers are to dense row-major data; `out` buffers are fully
// overwritten. Shapes with rows == 0 or cols == 0 write zeros.
#pragma once

#include <cstddef>
#include <cstdint>

namespace realm::tensor::kernels {

/// out[j] = Σ_r m[r][j]  (length cols).
void col_sums_i8(const std::int8_t* m, std::size_t rows, std::size_t cols, std::int64_t* out);
void col_sums_i32(const std::int32_t* m, std::size_t rows, std::size_t cols, std::int64_t* out);

/// out[r] = Σ_j m[r][j]  (length rows).
void row_sums_i8(const std::int8_t* m, std::size_t rows, std::size_t cols, std::int64_t* out);
void row_sums_i32(const std::int32_t* m, std::size_t rows, std::size_t cols, std::int64_t* out);

/// Weighted-basis reductions for the multi-fault ABFT solve. The i32 forms
/// run on the correction path only and stay portable scalar bodies behind
/// the same sharding as the exact kernels; weighted_row_sums_i8 captures the
/// resident W·v at every weight install (hot-swaps included), so it has the
/// SIMD tiers too. All are bit-identical at every tier and thread count.
///
/// uᵀM with u = [1,2,3,…]: out[j] = Σ_r (r+1)·m[r][j]  (length cols).
void weighted_col_sums_i32(const std::int32_t* m, std::size_t rows, std::size_t cols,
                           std::int64_t* out);

/// M·v with v = [1,2,3,…]: out[r] = Σ_j (j+1)·m[r][j]  (length rows).
void weighted_row_sums_i8(const std::int8_t* m, std::size_t rows, std::size_t cols,
                          std::int64_t* out);
void weighted_row_sums_i32(const std::int32_t* m, std::size_t rows, std::size_t cols,
                           std::int64_t* out);

/// Width-truncated i32 reductions, modeling `bits`-wide checksum registers
/// (the realm::sa reduced-width datapath; bits is clamped to [0, 64] by the
/// wrap/clamp helpers — 64 reproduces the exact kernels above).
///
///  * Wrap (saturate == false): carries out of the register drop — additions
///    are exact mod 2^bits, which is associative, so the register equals the
///    exact int64 sum reduced once. These ride the SIMD reductions above and
///    truncate per output element; bit-accurate at every tier/thread count.
///  * Saturate (saturate == true): every add clamps at the register rails.
///    Order-dependent, so the model pins the accumulation order a
///    weight-stationary array drains partial sums in — ascending row index
///    for column registers, ascending column index for row registers — and
///    runs a scalar loop, sharded like the exact kernels (each output element
///    owned by one chunk, so still deterministic at any thread count).
void col_sums_i32_width(const std::int32_t* m, std::size_t rows, std::size_t cols, int bits,
                        bool saturate, std::int64_t* out);
void row_sums_i32_width(const std::int32_t* m, std::size_t rows, std::size_t cols, int bits,
                        bool saturate, std::int64_t* out);

/// out[j] = Σ_k ea[k] · b[k][j]  (length n): the predicted column checksum
/// (eᵀA)·B from a precomputed activation basis ea = col_sums(A) and row-major
/// b[k x n]. Single-threaded scalar reference; every tier runs this body.
void predict_col_checksum(const std::int64_t* ea, const std::int8_t* b, std::size_t k,
                          std::size_t n, std::int64_t* out);

/// out[i] = Σ_k a[i][k] · basis[k]  (length m): the predicted row checksum
/// A·(B·e) from the weight-resident basis = row_sums(B).
void predict_row_checksum(const std::int8_t* a, std::size_t m, std::size_t k,
                          const std::int64_t* basis, std::int64_t* out);

}  // namespace realm::tensor::kernels
