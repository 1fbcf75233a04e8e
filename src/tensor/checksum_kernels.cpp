#include "tensor/checksum_kernels.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "tensor/gemm_kernels.h"
#include "util/bitmath.h"
#include "util/compiler.h"
#include "util/threadpool.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define REALM_X86 1
#else
#define REALM_X86 0
#endif

namespace realm::tensor::kernels {

namespace {

// Sharding grains. Column bands are at least a cache line of the narrowest
// element type so no line is touched by two chunks; row grains keep per-chunk
// work in the tens of microseconds even on small matrices.
constexpr std::size_t kColGrain = 64;
constexpr std::size_t kRowGrain = 32;

/// Rows accumulated into int16 lanes before flushing to int64. 256 is the
/// exact safe bound: 256·(−128) = −32768 = INT16_MIN and 256·127 = 32512.
constexpr std::size_t kI16Block = 256;

/// Columns folded into int32 lanes by the weighted_row_sums_i8 kernels before
/// a flush to int64: a 64-column block adds at most 2·(63+64)·128 = 32512 to
/// a lane, so 4096 blocks stay far inside int32.
constexpr std::size_t kWeightedFlushCols = std::size_t{64} << 12;

/// The predict_row kernels do their multiplies as 32×32→64 (vpmuldq), so the
/// int64 basis entry must fit int32. Checksum bases are bounded by 128·cols,
/// which only exceeds this for matrices over 2^24 columns; such calls (and any
/// adversarial caller-supplied basis) take the scalar reference path instead.
bool all_fit_i32(const std::int64_t* v, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    if (v[i] < INT32_MIN || v[i] > INT32_MAX) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Portable tier: the int64 scalar loops every SIMD tier is cross-checked
// against (these are the bodies checksum.cpp used before this layer existed).
// ---------------------------------------------------------------------------

template <typename T>
void col_sums_portable(const T* m, std::size_t rows, std::size_t cols, std::size_t j0,
                       std::size_t j1, std::int64_t* out) {
  for (std::size_t j = j0; j < j1; ++j) out[j] = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const T* row = m + r * cols;
    for (std::size_t j = j0; j < j1; ++j) out[j] += static_cast<std::int64_t>(row[j]);
  }
}

template <typename T>
void row_sums_portable(const T* m, std::size_t cols, std::size_t r0, std::size_t r1,
                       std::int64_t* out) {
  for (std::size_t r = r0; r < r1; ++r) {
    const T* row = m + r * cols;
    std::int64_t acc = 0;
    for (std::size_t j = 0; j < cols; ++j) acc += static_cast<std::int64_t>(row[j]);
    out[r] = acc;
  }
}

// Weighted-basis reductions (uᵀM and M·v with weights [1,2,3,…]). The i32
// forms run on detected tiles only, so portable scalar bodies behind the
// standard sharding are plenty; exact int64 keeps them bit-identical at every
// tier and thread count. These are also the reference the SIMD
// weighted_row_sums_i8 kernels (every weight install) are checked against.

template <typename T>
void weighted_col_sums_portable(const T* m, std::size_t rows, std::size_t cols, std::size_t j0,
                                std::size_t j1, std::int64_t* out) {
  for (std::size_t j = j0; j < j1; ++j) out[j] = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const T* row = m + r * cols;
    const auto w = static_cast<std::int64_t>(r + 1);
    for (std::size_t j = j0; j < j1; ++j) out[j] += w * static_cast<std::int64_t>(row[j]);
  }
}

template <typename T>
void weighted_row_sums_portable(const T* m, std::size_t cols, std::size_t r0, std::size_t r1,
                                std::int64_t* out) {
  for (std::size_t r = r0; r < r1; ++r) {
    const T* row = m + r * cols;
    std::int64_t acc = 0;
    for (std::size_t j = 0; j < cols; ++j) {
      acc += static_cast<std::int64_t>(j + 1) * static_cast<std::int64_t>(row[j]);
    }
    out[r] = acc;
  }
}

/// Saturating `bits`-wide column registers, rows ascending — the pinned
/// accumulation order of the reduced-width datapath model. Register values
/// stay inside the `bits` rails, so sat_add_i64 never saturates at int64
/// itself (|reg| + |int32| < 2^63 for every bits <= 64).
void col_sums_sat_portable(const std::int32_t* m, std::size_t rows, std::size_t cols, int bits,
                           std::size_t j0, std::size_t j1, std::int64_t* out) {
  for (std::size_t j = j0; j < j1; ++j) out[j] = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int32_t* row = m + r * cols;
    for (std::size_t j = j0; j < j1; ++j) {
      out[j] = util::clamp_to_bits(
          util::sat_add_i64(out[j], static_cast<std::int64_t>(row[j])), bits);
    }
  }
}

/// Saturating `bits`-wide row registers, columns ascending.
void row_sums_sat_portable(const std::int32_t* m, std::size_t cols, int bits, std::size_t r0,
                           std::size_t r1, std::int64_t* out) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::int32_t* row = m + r * cols;
    std::int64_t acc = 0;
    for (std::size_t j = 0; j < cols; ++j) {
      acc = util::clamp_to_bits(util::sat_add_i64(acc, static_cast<std::int64_t>(row[j])), bits);
    }
    out[r] = acc;
  }
}

void predict_row_portable(const std::int8_t* a, std::size_t k, const std::int64_t* basis,
                          std::size_t r0, std::size_t r1, std::int64_t* out) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::int8_t* arow = a + r * k;
    std::int64_t acc = 0;
    for (std::size_t kk = 0; kk < k; ++kk) {
      acc += static_cast<std::int64_t>(arow[kk]) * basis[kk];
    }
    out[r] = acc;
  }
}

#if REALM_X86

// ---------------------------------------------------------------------------
// AVX2 tier.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void col_sums_i8_avx2(const std::int8_t* m, std::size_t rows,
                                                      std::size_t cols, std::size_t j0,
                                                      std::size_t j1, std::int64_t* out) {
  std::size_t j = j0;
  for (; j + 16 <= j1; j += 16) {
    __m256i a0 = _mm256_setzero_si256(), a1 = a0, a2 = a0, a3 = a0;  // 4x4 int64
    std::size_t r = 0;
    while (r < rows) {
      const std::size_t re = std::min(rows, r + kI16Block);
      __m256i acc16 = _mm256_setzero_si256();  // 16 int16 lanes
      for (; r < re; ++r) {
        const __m128i v8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(m + r * cols + j));
        acc16 = _mm256_add_epi16(acc16, _mm256_cvtepi8_epi16(v8));
      }
      const __m128i lo = _mm256_castsi256_si128(acc16);
      const __m128i hi = _mm256_extracti128_si256(acc16, 1);
      a0 = _mm256_add_epi64(a0, _mm256_cvtepi16_epi64(lo));
      a1 = _mm256_add_epi64(a1, _mm256_cvtepi16_epi64(_mm_srli_si128(lo, 8)));
      a2 = _mm256_add_epi64(a2, _mm256_cvtepi16_epi64(hi));
      a3 = _mm256_add_epi64(a3, _mm256_cvtepi16_epi64(_mm_srli_si128(hi, 8)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j + 4), a1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j + 8), a2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j + 12), a3);
  }
  if (j < j1) col_sums_portable(m, rows, cols, j, j1, out);
}

__attribute__((target("avx2"))) void col_sums_i32_avx2(const std::int32_t* m, std::size_t rows,
                                                       std::size_t cols, std::size_t j0,
                                                       std::size_t j1, std::int64_t* out) {
  std::size_t j = j0;
  for (; j + 8 <= j1; j += 8) {
    __m256i a0 = _mm256_setzero_si256(), a1 = a0;
    for (std::size_t r = 0; r < rows; ++r) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + r * cols + j));
      a0 = _mm256_add_epi64(a0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
      a1 = _mm256_add_epi64(a1, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j + 4), a1);
  }
  if (j < j1) col_sums_portable(m, rows, cols, j, j1, out);
}

__attribute__((target("avx2"))) std::int64_t hsum_i64_avx2(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
}

__attribute__((target("avx2"))) void row_sums_i8_avx2(const std::int8_t* m, std::size_t cols,
                                                      std::size_t r0, std::size_t r1,
                                                      std::int64_t* out) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t r = r0; r < r1; ++r) {
    const std::int8_t* row = m + r * cols;
    __m256i acc = zero;  // 4 uint64 lanes of biased byte sums
    std::size_t j = 0;
    for (; j + 32 <= cols; j += 32) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j));
      acc = _mm256_add_epi64(acc, _mm256_sad_epu8(_mm256_xor_si256(v, bias), zero));
    }
    std::int64_t sum = hsum_i64_avx2(acc) - 128 * static_cast<std::int64_t>(j);
    for (; j < cols; ++j) sum += row[j];
    out[r] = sum;
  }
}

/// M·v for v = [1,2,3,…] in 32-column blocks. Column j0 + l weighs
/// j0 + (l+1): vpmaddubsw against the in-block ramp 1..32 (u8) gives the
/// (l+1) term, and the block's biased byte sum (vpsadbw, +128 per byte)
/// times j0 gives the j0 term plus 128·32·j0, taken off once per row. Exact
/// for cols < 2^32 (vpmuludq reads j0's low 32 bits).
__attribute__((target("avx2"))) void weighted_row_sums_i8_avx2(const std::int8_t* m,
                                                               std::size_t cols,
                                                               std::size_t r0, std::size_t r1,
                                                               std::int64_t* out) {
  alignas(32) std::uint8_t ramp[32];
  for (std::size_t l = 0; l < 32; ++l) ramp[l] = static_cast<std::uint8_t>(l + 1);
  const __m256i lw = _mm256_load_si256(reinterpret_cast<const __m256i*>(ramp));
  const __m256i ones = _mm256_set1_epi16(1);
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i zero = _mm256_setzero_si256();
  const std::size_t full = cols / 32 * 32;
  const auto blocks = static_cast<std::int64_t>(full / 32);
  for (std::size_t r = r0; r < r1; ++r) {
    const std::int8_t* row = m + r * cols;
    __m256i local = zero;   // 4 int64 lanes of the (l+1) terms
    __m256i offset = zero;  // 4 int64 lanes of j0 · biased block sums
    for (std::size_t j = 0; j < full;) {
      const std::size_t je = std::min(full, j + kWeightedFlushCols);
      __m256i local32 = zero;
      for (; j < je; j += 32) {
        const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j));
        local32 = _mm256_add_epi32(local32, _mm256_madd_epi16(_mm256_maddubs_epi16(lw, v), ones));
        const __m256i sad = _mm256_sad_epu8(_mm256_xor_si256(v, bias), zero);
        offset = _mm256_add_epi64(
            offset, _mm256_mul_epu32(sad, _mm256_set1_epi64x(static_cast<std::int64_t>(j))));
      }
      local = _mm256_add_epi64(local, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(local32)));
      local = _mm256_add_epi64(local,
                               _mm256_cvtepi32_epi64(_mm256_extracti128_si256(local32, 1)));
    }
    // Σ_b 128·32·j0 with j0 = 32b: 128·32·32·blocks·(blocks−1)/2.
    std::int64_t sum = hsum_i64_avx2(_mm256_add_epi64(local, offset)) -
                       std::int64_t{65536} * blocks * (blocks - 1);
    for (std::size_t j = full; j < cols; ++j) {
      sum += static_cast<std::int64_t>(j + 1) * static_cast<std::int64_t>(row[j]);
    }
    out[r] = sum;
  }
}

__attribute__((target("avx2"))) void row_sums_i32_avx2(const std::int32_t* m, std::size_t cols,
                                                       std::size_t r0, std::size_t r1,
                                                       std::int64_t* out) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::int32_t* row = m + r * cols;
    __m256i acc = _mm256_setzero_si256();
    std::size_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j));
      acc = _mm256_add_epi64(acc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
      acc = _mm256_add_epi64(acc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
    }
    std::int64_t sum = hsum_i64_avx2(acc);
    for (; j < cols; ++j) sum += row[j];
    out[r] = sum;
  }
}

__attribute__((target("avx2"))) void predict_row_avx2(const std::int8_t* a, std::size_t k,
                                                      const std::int32_t* basis32,
                                                      std::size_t r0, std::size_t r1,
                                                      std::int64_t* out) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::int8_t* arow = a + r * k;
    __m256i acc_e = _mm256_setzero_si256();
    __m256i acc_o = _mm256_setzero_si256();
    std::size_t kk = 0;
    for (; kk + 8 <= k; kk += 8) {
      const __m128i a8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(arow + kk));
      const __m256i a32 = _mm256_cvtepi8_epi32(a8);
      const __m256i b32 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(basis32 + kk));
      acc_e = _mm256_add_epi64(acc_e, _mm256_mul_epi32(a32, b32));
      acc_o = _mm256_add_epi64(
          acc_o, _mm256_mul_epi32(_mm256_srli_epi64(a32, 32), _mm256_srli_epi64(b32, 32)));
    }
    std::int64_t sum = hsum_i64_avx2(_mm256_add_epi64(acc_e, acc_o));
    for (; kk < k; ++kk) sum += static_cast<std::int64_t>(arow[kk]) * basis32[kk];
    out[r] = sum;
  }
}

// ---------------------------------------------------------------------------
// AVX-512 tier: same schemes at double width.
// ---------------------------------------------------------------------------

// Suppresses the GCC PR105593 -Wmaybe-uninitialized false positive from
// _mm512_mul_epi32's undefined-passthrough form; see src/util/compiler.h.
REALM_BEGIN_AVX512_SECTION

__attribute__((target("avx512f,avx512bw"))) void col_sums_i8_avx512(
    const std::int8_t* m, std::size_t rows, std::size_t cols, std::size_t j0, std::size_t j1,
    std::int64_t* out) {
  std::size_t j = j0;
  for (; j + 32 <= j1; j += 32) {
    __m512i a0 = _mm512_setzero_si512(), a1 = a0, a2 = a0, a3 = a0;  // 4x8 int64
    std::size_t r = 0;
    while (r < rows) {
      const std::size_t re = std::min(rows, r + kI16Block);
      __m512i acc16 = _mm512_setzero_si512();  // 32 int16 lanes
      for (; r < re; ++r) {
        const __m256i v8 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + r * cols + j));
        acc16 = _mm512_add_epi16(acc16, _mm512_cvtepi8_epi16(v8));
      }
      a0 = _mm512_add_epi64(a0, _mm512_cvtepi16_epi64(_mm512_extracti32x4_epi32(acc16, 0)));
      a1 = _mm512_add_epi64(a1, _mm512_cvtepi16_epi64(_mm512_extracti32x4_epi32(acc16, 1)));
      a2 = _mm512_add_epi64(a2, _mm512_cvtepi16_epi64(_mm512_extracti32x4_epi32(acc16, 2)));
      a3 = _mm512_add_epi64(a3, _mm512_cvtepi16_epi64(_mm512_extracti32x4_epi32(acc16, 3)));
    }
    _mm512_storeu_si512(out + j, a0);
    _mm512_storeu_si512(out + j + 8, a1);
    _mm512_storeu_si512(out + j + 16, a2);
    _mm512_storeu_si512(out + j + 24, a3);
  }
  if (j < j1) col_sums_i8_avx2(m, rows, cols, j, j1, out);
}

__attribute__((target("avx512f"))) void col_sums_i32_avx512(const std::int32_t* m,
                                                            std::size_t rows, std::size_t cols,
                                                            std::size_t j0, std::size_t j1,
                                                            std::int64_t* out) {
  std::size_t j = j0;
  for (; j + 16 <= j1; j += 16) {
    __m512i a0 = _mm512_setzero_si512(), a1 = a0;
    for (std::size_t r = 0; r < rows; ++r) {
      const __m512i v = _mm512_loadu_si512(m + r * cols + j);
      a0 = _mm512_add_epi64(a0, _mm512_cvtepi32_epi64(_mm512_castsi512_si256(v)));
      a1 = _mm512_add_epi64(a1, _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(v, 1)));
    }
    _mm512_storeu_si512(out + j, a0);
    _mm512_storeu_si512(out + j + 8, a1);
  }
  if (j < j1) col_sums_i32_avx2(m, rows, cols, j, j1, out);
}

__attribute__((target("avx512f,avx512bw"))) void row_sums_i8_avx512(const std::int8_t* m,
                                                                    std::size_t cols,
                                                                    std::size_t r0,
                                                                    std::size_t r1,
                                                                    std::int64_t* out) {
  const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
  const __m512i zero = _mm512_setzero_si512();
  for (std::size_t r = r0; r < r1; ++r) {
    const std::int8_t* row = m + r * cols;
    __m512i acc = zero;  // 8 uint64 lanes of biased byte sums
    std::size_t j = 0;
    for (; j + 64 <= cols; j += 64) {
      const __m512i v = _mm512_loadu_si512(row + j);
      acc = _mm512_add_epi64(acc, _mm512_sad_epu8(_mm512_xor_si512(v, bias), zero));
    }
    std::int64_t sum = _mm512_reduce_add_epi64(acc) - 128 * static_cast<std::int64_t>(j);
    for (; j < cols; ++j) sum += row[j];
    out[r] = sum;
  }
}

/// weighted_row_sums_i8_avx2 at 64-column blocks.
__attribute__((target("avx512f,avx512bw"))) void weighted_row_sums_i8_avx512(
    const std::int8_t* m, std::size_t cols, std::size_t r0, std::size_t r1, std::int64_t* out) {
  alignas(64) std::uint8_t ramp[64];
  for (std::size_t l = 0; l < 64; ++l) ramp[l] = static_cast<std::uint8_t>(l + 1);
  const __m512i lw = _mm512_load_si512(ramp);
  const __m512i ones = _mm512_set1_epi16(1);
  const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
  const __m512i zero = _mm512_setzero_si512();
  const std::size_t full = cols / 64 * 64;
  const auto blocks = static_cast<std::int64_t>(full / 64);
  for (std::size_t r = r0; r < r1; ++r) {
    const std::int8_t* row = m + r * cols;
    __m512i local = zero;   // 8 int64 lanes of the (l+1) terms
    __m512i offset = zero;  // 8 int64 lanes of j0 · biased block sums
    for (std::size_t j = 0; j < full;) {
      const std::size_t je = std::min(full, j + kWeightedFlushCols);
      __m512i local32 = zero;
      for (; j < je; j += 64) {
        const __m512i v = _mm512_loadu_si512(row + j);
        local32 = _mm512_add_epi32(local32, _mm512_madd_epi16(_mm512_maddubs_epi16(lw, v), ones));
        const __m512i sad = _mm512_sad_epu8(_mm512_xor_si512(v, bias), zero);
        offset = _mm512_add_epi64(
            offset, _mm512_mul_epu32(sad, _mm512_set1_epi64(static_cast<std::int64_t>(j))));
      }
      local = _mm512_add_epi64(local, _mm512_cvtepi32_epi64(_mm512_castsi512_si256(local32)));
      local = _mm512_add_epi64(local,
                               _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(local32, 1)));
    }
    // Σ_b 128·64·j0 with j0 = 64b: 128·64·64·blocks·(blocks−1)/2.
    std::int64_t sum = _mm512_reduce_add_epi64(_mm512_add_epi64(local, offset)) -
                       std::int64_t{262144} * blocks * (blocks - 1);
    for (std::size_t j = full; j < cols; ++j) {
      sum += static_cast<std::int64_t>(j + 1) * static_cast<std::int64_t>(row[j]);
    }
    out[r] = sum;
  }
}

__attribute__((target("avx512f"))) void row_sums_i32_avx512(const std::int32_t* m,
                                                            std::size_t cols, std::size_t r0,
                                                            std::size_t r1, std::int64_t* out) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::int32_t* row = m + r * cols;
    __m512i acc = _mm512_setzero_si512();
    std::size_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      const __m512i v = _mm512_loadu_si512(row + j);
      acc = _mm512_add_epi64(acc, _mm512_cvtepi32_epi64(_mm512_castsi512_si256(v)));
      acc = _mm512_add_epi64(acc, _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(v, 1)));
    }
    std::int64_t sum = _mm512_reduce_add_epi64(acc);
    for (; j < cols; ++j) sum += row[j];
    out[r] = sum;
  }
}

__attribute__((target("avx512f"))) void predict_row_avx512(const std::int8_t* a, std::size_t k,
                                                           const std::int32_t* basis32,
                                                           std::size_t r0, std::size_t r1,
                                                           std::int64_t* out) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::int8_t* arow = a + r * k;
    __m512i acc_e = _mm512_setzero_si512();
    __m512i acc_o = _mm512_setzero_si512();
    std::size_t kk = 0;
    for (; kk + 16 <= k; kk += 16) {
      const __m128i a8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(arow + kk));
      const __m512i a32 = _mm512_cvtepi8_epi32(a8);
      const __m512i b32 = _mm512_loadu_si512(basis32 + kk);
      acc_e = _mm512_add_epi64(acc_e, _mm512_mul_epi32(a32, b32));
      acc_o = _mm512_add_epi64(
          acc_o, _mm512_mul_epi32(_mm512_srli_epi64(a32, 32), _mm512_srli_epi64(b32, 32)));
    }
    std::int64_t sum = _mm512_reduce_add_epi64(_mm512_add_epi64(acc_e, acc_o));
    for (; kk < k; ++kk) sum += static_cast<std::int64_t>(arow[kk]) * basis32[kk];
    out[r] = sum;
  }
}

REALM_END_AVX512_SECTION

#endif  // REALM_X86

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points: pick the tier once, shard, dispatch per chunk. Column
// reductions shard over column bands and row reductions over row ranges, so
// every output element is written by exactly one chunk — determinism at any
// thread count needs no merge step.
// ---------------------------------------------------------------------------

void col_sums_i8(const std::int8_t* m, std::size_t rows, std::size_t cols, std::int64_t* out) {
  if (cols == 0) return;
  const Tier t = active_tier();
  util::global_pool().parallel_for(cols, kColGrain, [&](std::size_t j0, std::size_t j1) {
#if REALM_X86
    if (t == Tier::kAvx512) {
      col_sums_i8_avx512(m, rows, cols, j0, j1, out);
      return;
    }
    if (t == Tier::kAvx2) {
      col_sums_i8_avx2(m, rows, cols, j0, j1, out);
      return;
    }
#else
    (void)t;
#endif
    col_sums_portable(m, rows, cols, j0, j1, out);
  });
}

void col_sums_i32(const std::int32_t* m, std::size_t rows, std::size_t cols,
                  std::int64_t* out) {
  if (cols == 0) return;
  const Tier t = active_tier();
  util::global_pool().parallel_for(cols, kColGrain, [&](std::size_t j0, std::size_t j1) {
#if REALM_X86
    if (t == Tier::kAvx512) {
      col_sums_i32_avx512(m, rows, cols, j0, j1, out);
      return;
    }
    if (t == Tier::kAvx2) {
      col_sums_i32_avx2(m, rows, cols, j0, j1, out);
      return;
    }
#else
    (void)t;
#endif
    col_sums_portable(m, rows, cols, j0, j1, out);
  });
}

void row_sums_i8(const std::int8_t* m, std::size_t rows, std::size_t cols, std::int64_t* out) {
  if (rows == 0) return;
  const Tier t = active_tier();
  util::global_pool().parallel_for(rows, kRowGrain, [&](std::size_t r0, std::size_t r1) {
#if REALM_X86
    if (t == Tier::kAvx512) {
      row_sums_i8_avx512(m, cols, r0, r1, out);
      return;
    }
    if (t == Tier::kAvx2) {
      row_sums_i8_avx2(m, cols, r0, r1, out);
      return;
    }
#else
    (void)t;
#endif
    row_sums_portable(m, cols, r0, r1, out);
  });
}

void row_sums_i32(const std::int32_t* m, std::size_t rows, std::size_t cols,
                  std::int64_t* out) {
  if (rows == 0) return;
  const Tier t = active_tier();
  util::global_pool().parallel_for(rows, kRowGrain, [&](std::size_t r0, std::size_t r1) {
#if REALM_X86
    if (t == Tier::kAvx512) {
      row_sums_i32_avx512(m, cols, r0, r1, out);
      return;
    }
    if (t == Tier::kAvx2) {
      row_sums_i32_avx2(m, cols, r0, r1, out);
      return;
    }
#else
    (void)t;
#endif
    row_sums_portable(m, cols, r0, r1, out);
  });
}

void weighted_col_sums_i32(const std::int32_t* m, std::size_t rows, std::size_t cols,
                           std::int64_t* out) {
  if (cols == 0) return;
  util::global_pool().parallel_for(cols, kColGrain, [&](std::size_t j0, std::size_t j1) {
    weighted_col_sums_portable(m, rows, cols, j0, j1, out);
  });
}

void weighted_row_sums_i8(const std::int8_t* m, std::size_t rows, std::size_t cols,
                          std::int64_t* out) {
  if (rows == 0) return;
  // The SIMD kernels multiply block offsets as 32-bit values.
  const Tier t = cols <= UINT32_MAX ? active_tier() : Tier::kPortable;
  util::global_pool().parallel_for(rows, kRowGrain, [&](std::size_t r0, std::size_t r1) {
#if REALM_X86
    if (t == Tier::kAvx512) {
      weighted_row_sums_i8_avx512(m, cols, r0, r1, out);
      return;
    }
    if (t == Tier::kAvx2) {
      weighted_row_sums_i8_avx2(m, cols, r0, r1, out);
      return;
    }
#else
    (void)t;
#endif
    weighted_row_sums_portable(m, cols, r0, r1, out);
  });
}

void weighted_row_sums_i32(const std::int32_t* m, std::size_t rows, std::size_t cols,
                           std::int64_t* out) {
  if (rows == 0) return;
  util::global_pool().parallel_for(rows, kRowGrain, [&](std::size_t r0, std::size_t r1) {
    weighted_row_sums_portable(m, cols, r0, r1, out);
  });
}

void col_sums_i32_width(const std::int32_t* m, std::size_t rows, std::size_t cols, int bits,
                        bool saturate, std::int64_t* out) {
  if (cols == 0) return;
  if (!saturate) {
    // Wrap is associative (exact mod 2^bits): reduce exactly with the SIMD
    // kernels, truncate each register value once.
    col_sums_i32(m, rows, cols, out);
    for (std::size_t j = 0; j < cols; ++j) out[j] = util::wrap_to_bits(out[j], bits);
    return;
  }
  util::global_pool().parallel_for(cols, kColGrain, [&](std::size_t j0, std::size_t j1) {
    col_sums_sat_portable(m, rows, cols, bits, j0, j1, out);
  });
}

void row_sums_i32_width(const std::int32_t* m, std::size_t rows, std::size_t cols, int bits,
                        bool saturate, std::int64_t* out) {
  if (rows == 0) return;
  if (!saturate) {
    row_sums_i32(m, rows, cols, out);
    for (std::size_t r = 0; r < rows; ++r) out[r] = util::wrap_to_bits(out[r], bits);
    return;
  }
  util::global_pool().parallel_for(rows, kRowGrain, [&](std::size_t r0, std::size_t r1) {
    row_sums_sat_portable(m, cols, bits, r0, r1, out);
  });
}

void predict_col_checksum(const std::int64_t* ea, const std::int8_t* b, std::size_t k,
                          std::size_t n, std::int64_t* out) {
  std::fill_n(out, n, std::int64_t{0});
  for (std::size_t kk = 0; kk < k; ++kk) {
    const std::int64_t av = ea[kk];
    if (av == 0) continue;
    const std::int8_t* brow = b + kk * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += av * static_cast<std::int64_t>(brow[j]);
  }
}

void predict_row_checksum(const std::int8_t* a, std::size_t m, std::size_t k,
                          const std::int64_t* basis, std::int64_t* out) {
  if (m == 0) return;
  Tier t = active_tier();
#if REALM_X86
  // Widen the basis to int32 once per call; the per-element products then run
  // as vpmuldq. A basis entry outside int32 (matrices over 2^24 columns, or
  // an adversarial caller-supplied basis) forces the scalar path.
  std::vector<std::int32_t> basis32;
  if (t != Tier::kPortable && all_fit_i32(basis, k)) {
    basis32.resize(k);
    for (std::size_t kk = 0; kk < k; ++kk) basis32[kk] = static_cast<std::int32_t>(basis[kk]);
  } else {
    t = Tier::kPortable;
  }
#else
  t = Tier::kPortable;
#endif
  util::global_pool().parallel_for(m, kRowGrain, [&](std::size_t r0, std::size_t r1) {
#if REALM_X86
    if (t == Tier::kAvx512) {
      predict_row_avx512(a, k, basis32.data(), r0, r1, out);
      return;
    }
    if (t == Tier::kAvx2) {
      predict_row_avx2(a, k, basis32.data(), r0, r1, out);
      return;
    }
#endif
    predict_row_portable(a, k, basis, r0, r1, out);
  });
}

}  // namespace realm::tensor::kernels
