#include "tensor/gemm_kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

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

// Microkernel footprints. The register budget drives the shapes: AVX-512 has
// 32 zmm registers, so an 8x32 tile holds 16 accumulators plus temporaries;
// AVX2's 16 ymm registers fit a 4x16 tile (8 accumulators).
constexpr std::size_t kMr512 = 8, kNr512 = 32;
constexpr std::size_t kMr256 = 4, kNr256 = 16;
/// Bytes per k-group row of a panel: 4 k-steps x 32 cols of u8 for the
/// vpdpbusd tier, 2 k-steps x 16 cols of int16 for the vpmaddwd tier.
constexpr std::size_t kQuadRowBytes = 4 * kNr512;
constexpr std::size_t kPairRowBytes = 2 * kNr256 * sizeof(std::int16_t);
/// Rows of A copied (and, on the AVX2 tier, widened to int16) at a time;
/// keeps the copied block L2-resident for typical k (256 KiB of bytes at
/// k = 4096; 64 rows x 2^16 x 2 B = 8 MiB worst case at kMaxK).
constexpr std::size_t kRowBlock = 64;
/// parallel_for grain: at least one full microkernel tile of rows per chunk.
constexpr std::size_t kRowGrain = 8;

#if REALM_X86

/// Panel rows per panel (k-quads or k-pairs), panels, and bytes per row.
struct PanelShape {
  std::size_t groups, panels, row_bytes;
};

PanelShape panel_shape(Tier t, std::size_t k, std::size_t n) noexcept {
  if (t == Tier::kAvx512) return {(k + 3) / 4, (n + kNr512 - 1) / kNr512, kQuadRowBytes};
  return {(k + 1) / 2, (n + kNr256 - 1) / kNr256, kPairRowBytes};
}

std::size_t panel_bytes(Tier t, std::size_t k, std::size_t n) noexcept {
  const PanelShape s = panel_shape(t, k, n);
  return s.panels * s.groups * s.row_bytes;
}

// ---------------------------------------------------------------------------
// Packing (layouts in the header comment). Each pack fills panel rows
// [g0, g1) of every panel and lays each panel's rows out contiguously, so
// the full pack (g0 = 0, g1 = all rows) is the resident image and a partial
// one is a slice of every panel.
// ---------------------------------------------------------------------------

/// AVX2 layout: int16 k-pairs, panel[p][kp][2j+t] = b(2kp+t, 16p+j). Two
/// full rows sign-extend and interleave 16 columns with SSE2 unpacks; edges
/// take the scalar path.
void pack_b_pairs(const std::int8_t* b, std::size_t k, std::size_t n, std::size_t g0,
                  std::size_t g1, std::int8_t* out) {
  const std::size_t panels = (n + kNr256 - 1) / kNr256;
  const __m128i zero = _mm_setzero_si128();
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t j0 = p * kNr256;
    const std::size_t jw = std::min(kNr256, n - j0);
    for (std::size_t kp = g0; kp < g1; ++kp) {
      const std::int8_t* r0 = b + 2 * kp * n + j0;
      const bool has_r1 = 2 * kp + 1 < k;
      std::int8_t* dst = out + (p * (g1 - g0) + kp - g0) * kPairRowBytes;
      if (has_r1 && jw == kNr256) {
        const __m128i x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0));
        const __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + n));
        const __m128i s0 = _mm_cmpgt_epi8(zero, x0), s1 = _mm_cmpgt_epi8(zero, x1);
        const __m128i lo0 = _mm_unpacklo_epi8(x0, s0), hi0 = _mm_unpackhi_epi8(x0, s0);
        const __m128i lo1 = _mm_unpacklo_epi8(x1, s1), hi1 = _mm_unpackhi_epi8(x1, s1);
        const __m128i pairs[4] = {
            _mm_unpacklo_epi16(lo0, lo1), _mm_unpackhi_epi16(lo0, lo1),
            _mm_unpacklo_epi16(hi0, hi1), _mm_unpackhi_epi16(hi0, hi1)};
        for (std::size_t v = 0; v < 4; ++v) {
          _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16 * v), pairs[v]);
        }
        continue;
      }
      std::int16_t row[2 * kNr256] = {};
      for (std::size_t j = 0; j < jw; ++j) {
        row[2 * j] = r0[j];
        if (has_r1) row[2 * j + 1] = r0[n + j];
      }
      std::memcpy(dst, row, kPairRowBytes);
    }
  }
}

/// AVX-512 layout: biased int8 quads, panel[p][q][4j+t] = b(4q+t, 32p+j) ^ 0x80.
/// Four full rows interleave 16 columns at a time with two unpack levels
/// (byte pairs, then pair quads); edges take the scalar path.
void pack_b_quads(const std::int8_t* b, std::size_t k, std::size_t n, std::size_t g0,
                  std::size_t g1, std::int8_t* out) {
  const std::size_t panels = (n + kNr512 - 1) / kNr512;
  const __m128i bias = _mm_set1_epi8(static_cast<char>(0x80));
  for (std::size_t q = g0; q < g1; ++q) {
    const std::int8_t* rows = b + 4 * q * n;
    const bool full_k = 4 * q + 4 <= k;
    for (std::size_t p = 0; p < panels; ++p) {
      const std::size_t j0 = p * kNr512;
      const std::size_t jw = std::min(kNr512, n - j0);
      std::int8_t* dst = out + (p * (g1 - g0) + q - g0) * kQuadRowBytes;
      if (full_k && jw == kNr512) {
        for (std::size_t h = 0; h < kNr512; h += 16) {
          const auto ld = [&](std::size_t t) {
            return _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + t * n + j0 + h));
          };
          const __m128i r0 = ld(0), r1 = ld(1), r2 = ld(2), r3 = ld(3);
          const __m128i p01l = _mm_unpacklo_epi8(r0, r1), p01h = _mm_unpackhi_epi8(r0, r1);
          const __m128i p23l = _mm_unpacklo_epi8(r2, r3), p23h = _mm_unpackhi_epi8(r2, r3);
          const __m128i quads[4] = {
              _mm_unpacklo_epi16(p01l, p23l), _mm_unpackhi_epi16(p01l, p23l),
              _mm_unpacklo_epi16(p01h, p23h), _mm_unpackhi_epi16(p01h, p23h)};
          for (std::size_t v = 0; v < 4; ++v) {
            _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 4 * h + 16 * v),
                             _mm_xor_si128(quads[v], bias));
          }
        }
        continue;
      }
      for (std::size_t j = 0; j < kNr512; ++j) {
        for (std::size_t t = 0; t < 4; ++t) {
          const bool in = j < jw && 4 * q + t < k;
          const auto w = static_cast<std::uint8_t>(in ? rows[t * n + j0 + j] : 0);
          dst[4 * j + t] = static_cast<std::int8_t>(w ^ 0x80u);
        }
      }
    }
  }
}

void pack_panels(Tier t, const std::int8_t* b, std::size_t k, std::size_t n, std::size_t g0,
                 std::size_t g1, std::int8_t* out) {
  if (t == Tier::kAvx512) {
    pack_b_quads(b, k, n, g0, g1, out);
  } else {
    pack_b_pairs(b, k, n, g0, g1, out);
  }
}

void pack_panels(Tier t, const std::int8_t* b, std::size_t k, std::size_t n, std::int8_t* out) {
  pack_panels(t, b, k, n, 0, panel_shape(t, k, n).groups, out);
}

/// Sign-extend rows [i0, i1) of A to int16, zero-padding odd k to kpad.
void pack_a_i16(const std::int8_t* a, std::size_t k, std::size_t kpad, std::size_t i0,
                std::size_t i1, std::int16_t* out) {
  for (std::size_t i = i0; i < i1; ++i) {
    std::int16_t* dst = out + (i - i0) * kpad;
    const std::int8_t* src = a + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) dst[kk] = src[kk];
    for (std::size_t kk = k; kk < kpad; ++kk) dst[kk] = 0;
  }
}

/// Copy rows [i0, i1) of A into zero-padded kpad-byte rows and return each
/// row's bias term 128·Σ_k a[i][k]: what the W+128 panels add to its dot
/// products. |128·Σ a| <= 2^30 at k = 2^16, so int32 holds it.
void pack_a_quads(const std::int8_t* a, std::size_t k, std::size_t kpad, std::size_t i0,
                  std::size_t i1, std::int8_t* out, std::int32_t* row_bias) {
  for (std::size_t i = i0; i < i1; ++i) {
    std::int8_t* dst = out + (i - i0) * kpad;
    const std::int8_t* src = a + i * k;
    std::memcpy(dst, src, k);
    std::memset(dst + k, 0, kpad - k);
    std::int32_t sum = 0;
    for (std::size_t kk = 0; kk < k; ++kk) sum += src[kk];
    row_bias[i - i0] = 128 * sum;
  }
}

/// Broadcastable A pair (two int16) or quad (four int8) read without
/// alignment or aliasing UB; compiles to a single 32-bit load.
template <typename T>
inline std::int32_t a_word(const T* p) noexcept {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

#endif  // REALM_X86

// ---------------------------------------------------------------------------
// Portable tier: the blocked scalar i-k-j loop (gcc/clang autovectorize the
// inner j loop). Also the reference the SIMD tiers are cross-checked against.
// ---------------------------------------------------------------------------

/// Fused eᵀC for the portable tier and the SIMD edge cases that already
/// spilled the tile to memory: fold finished C rows into the shard's partial
/// column sums (the rows are still cache-hot from the store).
void csum_rows(const std::int32_t* c, std::size_t n, std::size_t i0, std::size_t i1,
               std::int64_t* csum) {
  for (std::size_t i = i0; i < i1; ++i) {
    const std::int32_t* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) csum[j] += crow[j];
  }
}

void portable_rows(const std::int8_t* a, const std::int8_t* b, std::int32_t* c, std::size_t k,
                   std::size_t n, std::size_t i0, std::size_t i1, std::int64_t* csum) {
  constexpr std::size_t kBlock = 64;
  std::memset(c + i0 * n, 0, (i1 - i0) * n * sizeof(std::int32_t));
  for (std::size_t kb = 0; kb < k; kb += kBlock) {
    const std::size_t ke = std::min(k, kb + kBlock);
    for (std::size_t i = i0; i < i1; ++i) {
      const std::int8_t* arow = a + i * k;
      std::int32_t* crow = c + i * n;
      for (std::size_t kk = kb; kk < ke; ++kk) {
        const std::int32_t av = arow[kk];
        if (av == 0) continue;
        const std::int8_t* brow = b + kk * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * static_cast<std::int32_t>(brow[j]);
      }
    }
  }
  if (csum) csum_rows(c, n, i0, i1, csum);
}

#if REALM_X86

// ---------------------------------------------------------------------------
// AVX2 tier: 4x16 int32 accumulator tile, two vpmaddwd per A pair.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void kern_avx2_full(const std::int16_t* a16, std::size_t lda,
                                                    const std::int8_t* pb, std::size_t kpairs,
                                                    std::int32_t* c, std::size_t ldc,
                                                    std::int64_t* csum) {
  __m256i acc[kMr256][2];
  for (std::size_t r = 0; r < kMr256; ++r) {
    acc[r][0] = _mm256_setzero_si256();
    acc[r][1] = _mm256_setzero_si256();
  }
  for (std::size_t kp = 0; kp < kpairs; ++kp) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + kp * kPairRowBytes));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + kp * kPairRowBytes + 32));
    for (std::size_t r = 0; r < kMr256; ++r) {
      const __m256i av = _mm256_set1_epi32(a_word(a16 + r * lda + 2 * kp));
      acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(av, b0));
      acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(av, b1));
    }
  }
  for (std::size_t r = 0; r < kMr256; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + r * ldc), acc[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + r * ldc + 8), acc[r][1]);
  }
  if (csum) {
    // Fused eᵀC: fold the tile's rows into per-column int64 sums straight
    // from the accumulator registers (int32 row sums could overflow: four
    // values of magnitude 2^30 exceed int32, so widen before the row fold).
    for (std::size_t h = 0; h < 2; ++h) {
      __m256i lo = _mm256_setzero_si256(), hi = _mm256_setzero_si256();
      for (std::size_t r = 0; r < kMr256; ++r) {
        lo = _mm256_add_epi64(lo, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc[r][h])));
        hi = _mm256_add_epi64(hi,
                              _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc[r][h], 1)));
      }
      std::int64_t* cs = csum + h * 8;
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(cs),
          _mm256_add_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(cs)), lo));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(cs + 4),
          _mm256_add_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(cs + 4)), hi));
    }
  }
}

__attribute__((target("avx2"))) void kern_avx2_edge(const std::int16_t* a16, std::size_t lda,
                                                    const std::int8_t* pb, std::size_t kpairs,
                                                    std::int32_t* c, std::size_t ldc,
                                                    std::size_t mr, std::size_t jw,
                                                    std::int64_t* csum) {
  __m256i acc[kMr256][2];
  for (std::size_t r = 0; r < mr; ++r) {
    acc[r][0] = _mm256_setzero_si256();
    acc[r][1] = _mm256_setzero_si256();
  }
  for (std::size_t kp = 0; kp < kpairs; ++kp) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + kp * kPairRowBytes));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + kp * kPairRowBytes + 32));
    for (std::size_t r = 0; r < mr; ++r) {
      const __m256i av = _mm256_set1_epi32(a_word(a16 + r * lda + 2 * kp));
      acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(av, b0));
      acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(av, b1));
    }
  }
  alignas(32) std::int32_t tmp[kNr256];
  for (std::size_t r = 0; r < mr; ++r) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc[r][0]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + 8), acc[r][1]);
    std::memcpy(c + r * ldc, tmp, jw * sizeof(std::int32_t));
    if (csum) {
      for (std::size_t j = 0; j < jw; ++j) csum[j] += tmp[j];
    }
  }
}

__attribute__((target("avx2"))) void avx2_rows(const std::int8_t* a, const std::int8_t* pb,
                                               std::int32_t* c, std::size_t k, std::size_t n,
                                               std::size_t i0, std::size_t i1,
                                               std::int64_t* csum) {
  const std::size_t kpairs = (k + 1) / 2;
  const std::size_t kpad = 2 * kpairs;
  const std::size_t panels = (n + kNr256 - 1) / kNr256;
  std::vector<std::int16_t> a16(std::min(kRowBlock, i1 - i0) * kpad);
  for (std::size_t ib = i0; ib < i1; ib += kRowBlock) {
    const std::size_t ie = std::min(i1, ib + kRowBlock);
    pack_a_i16(a, k, kpad, ib, ie, a16.data());
    for (std::size_t p = 0; p < panels; ++p) {
      const std::size_t j0 = p * kNr256;
      const std::size_t jw = std::min(kNr256, n - j0);
      const std::int8_t* pbp = pb + p * kpairs * kPairRowBytes;
      for (std::size_t i = ib; i < ie; i += kMr256) {
        const std::size_t mr = std::min(kMr256, ie - i);
        const std::int16_t* arows = a16.data() + (i - ib) * kpad;
        std::int32_t* crows = c + i * n + j0;
        std::int64_t* cs = csum ? csum + j0 : nullptr;
        if (mr == kMr256 && jw == kNr256) {
          kern_avx2_full(arows, kpad, pbp, kpairs, crows, n, cs);
        } else {
          kern_avx2_edge(arows, kpad, pbp, kpairs, crows, n, mr, jw, cs);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AVX-512 VNNI tier: 8x32 tile, one vpdpbusd per A quad and 16 columns. The
// panels hold W+128 (u8), so each accumulator ends at C + 128·Σ_k a[i][k];
// `row_bias` carries that term per row and is subtracted before the store.
// ---------------------------------------------------------------------------

// Suppresses the GCC PR105593 -Wmaybe-uninitialized false positive from the
// vpmovsxdq widening in the fused store phase; see src/util/compiler.h.
REALM_BEGIN_AVX512_SECTION

/// acc += per-lane dot of four u8 (b) by four s8 (a). Issued by hand: GCC 12
/// copies every accumulator through a spare register around each
/// _mm512_dpbusd_epi32 in this loop, which costs about a fifth of the
/// kernel's throughput.
__attribute__((target("avx512f,avx512bw,avx512vnni"))) inline __m512i dpbusd(
    __m512i acc, __m512i b, __m512i a) {
  __asm__("vpdpbusd %[a], %[b], %[acc]" : [acc] "+v"(acc) : [b] "v"(b), [a] "v"(a));
  return acc;
}

__attribute__((target("avx512f,avx512bw,avx512vnni"))) void kern_vnni_full(
    const std::int8_t* a8, std::size_t lda, const std::int32_t* row_bias, const std::int8_t* pb,
    std::size_t kq, std::int32_t* c, std::size_t ldc, std::int64_t* csum) {
  __m512i acc[kMr512][2];
  for (std::size_t r = 0; r < kMr512; ++r) {
    acc[r][0] = _mm512_setzero_si512();
    acc[r][1] = _mm512_setzero_si512();
  }
  for (std::size_t q = 0; q < kq; ++q) {
    const __m512i b0 = _mm512_load_si512(pb + q * kQuadRowBytes);
    const __m512i b1 = _mm512_load_si512(pb + q * kQuadRowBytes + 64);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < kMr512; ++r) {
      const __m512i av = _mm512_set1_epi32(a_word(a8 + r * lda + 4 * q));
      acc[r][0] = dpbusd(acc[r][0], b0, av);
      acc[r][1] = dpbusd(acc[r][1], b1, av);
    }
  }
  for (std::size_t r = 0; r < kMr512; ++r) {
    const __m512i bias = _mm512_set1_epi32(row_bias[r]);
    acc[r][0] = _mm512_sub_epi32(acc[r][0], bias);
    acc[r][1] = _mm512_sub_epi32(acc[r][1], bias);
    _mm512_storeu_si512(c + r * ldc, acc[r][0]);
    _mm512_storeu_si512(c + r * ldc + 16, acc[r][1]);
  }
  if (csum) {
    // Fused eᵀC from the register tile; widen to int64 before the row fold
    // (eight int32 values of magnitude 2^30 overflow an int32 sum).
    for (std::size_t h = 0; h < 2; ++h) {
      __m512i lo = _mm512_setzero_si512(), hi = _mm512_setzero_si512();
      for (std::size_t r = 0; r < kMr512; ++r) {
        lo = _mm512_add_epi64(lo, _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc[r][h])));
        hi = _mm512_add_epi64(hi,
                              _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc[r][h], 1)));
      }
      std::int64_t* cs = csum + h * 16;
      _mm512_storeu_si512(cs, _mm512_add_epi64(_mm512_loadu_si512(cs), lo));
      _mm512_storeu_si512(cs + 8, _mm512_add_epi64(_mm512_loadu_si512(cs + 8), hi));
    }
  }
}

__attribute__((target("avx512f,avx512bw,avx512vnni"))) void kern_vnni_edge(
    const std::int8_t* a8, std::size_t lda, const std::int32_t* row_bias, const std::int8_t* pb,
    std::size_t kq, std::int32_t* c, std::size_t ldc, std::size_t mr, std::size_t jw,
    std::int64_t* csum) {
  __m512i acc[kMr512][2];
  for (std::size_t r = 0; r < mr; ++r) {
    acc[r][0] = _mm512_setzero_si512();
    acc[r][1] = _mm512_setzero_si512();
  }
  for (std::size_t q = 0; q < kq; ++q) {
    const __m512i b0 = _mm512_load_si512(pb + q * kQuadRowBytes);
    const __m512i b1 = _mm512_load_si512(pb + q * kQuadRowBytes + 64);
    for (std::size_t r = 0; r < mr; ++r) {
      const __m512i av = _mm512_set1_epi32(a_word(a8 + r * lda + 4 * q));
      acc[r][0] = dpbusd(acc[r][0], b0, av);
      acc[r][1] = dpbusd(acc[r][1], b1, av);
    }
  }
  alignas(64) std::int32_t tmp[kNr512];
  for (std::size_t r = 0; r < mr; ++r) {
    const __m512i bias = _mm512_set1_epi32(row_bias[r]);
    _mm512_store_si512(tmp, _mm512_sub_epi32(acc[r][0], bias));
    _mm512_store_si512(tmp + 16, _mm512_sub_epi32(acc[r][1], bias));
    std::memcpy(c + r * ldc, tmp, jw * sizeof(std::int32_t));
    if (csum) {
      for (std::size_t j = 0; j < jw; ++j) csum[j] += tmp[j];
    }
  }
}

__attribute__((target("avx512f,avx512bw,avx512vnni"))) void vnni_rows(
    const std::int8_t* a, const std::int8_t* pb, std::int32_t* c, std::size_t k, std::size_t n,
    std::size_t i0, std::size_t i1, std::int64_t* csum) {
  const std::size_t kq = (k + 3) / 4;
  const std::size_t kpad = 4 * kq;
  const std::size_t panels = (n + kNr512 - 1) / kNr512;
  std::vector<std::int8_t> a8(std::min(kRowBlock, i1 - i0) * kpad);
  std::int32_t row_bias[kRowBlock];
  for (std::size_t ib = i0; ib < i1; ib += kRowBlock) {
    const std::size_t ie = std::min(i1, ib + kRowBlock);
    pack_a_quads(a, k, kpad, ib, ie, a8.data(), row_bias);
    for (std::size_t p = 0; p < panels; ++p) {
      const std::size_t j0 = p * kNr512;
      const std::size_t jw = std::min(kNr512, n - j0);
      const std::int8_t* pbp = pb + p * kq * kQuadRowBytes;
      for (std::size_t i = ib; i < ie; i += kMr512) {
        const std::size_t mr = std::min(kMr512, ie - i);
        const std::int8_t* arows = a8.data() + (i - ib) * kpad;
        const std::int32_t* rb = row_bias + (i - ib);
        std::int32_t* crows = c + i * n + j0;
        std::int64_t* cs = csum ? csum + j0 : nullptr;
        if (mr == kMr512 && jw == kNr512) {
          kern_vnni_full(arows, kpad, rb, pbp, kq, crows, n, cs);
        } else {
          kern_vnni_edge(arows, kpad, rb, pbp, kq, crows, n, mr, jw, cs);
        }
      }
    }
  }
}

REALM_END_AVX512_SECTION

#endif  // REALM_X86

// ---------------------------------------------------------------------------
// Dispatch state.
// ---------------------------------------------------------------------------

Tier detect_best() noexcept {
#if REALM_X86
  // __builtin_cpu_supports consults libgcc's CPUID+XGETBV probe, so OS
  // state-save support for ymm/zmm is already folded in.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vnni")) {
    return Tier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kPortable;
}

Tier initial_tier() noexcept {
  const Tier best = best_supported_tier();
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once during tier_slot()'s static init
  if (const char* env = std::getenv("REALM_KERNEL")) {
    const std::string v(env);
    if (v == "portable") return Tier::kPortable;
    if (v == "avx2" && best >= Tier::kAvx2) return Tier::kAvx2;
    if (v == "avx512" && best >= Tier::kAvx512) return Tier::kAvx512;
    // An override that silently fell back would let a user attribute fast-path
    // numbers to the tier they typed; say what actually happens.
    std::fprintf(stderr,
                 "realm: REALM_KERNEL=%s %s; using \"%s\"\n", env,
                 (v == "portable" || v == "avx2" || v == "avx512")
                     ? "is not supported by this CPU"
                     : "is not a known tier (portable|avx2|avx512)",
                 to_string(best));
  }
  return best;
}

std::atomic<Tier>& tier_slot() {
  static std::atomic<Tier> slot{initial_tier()};
  return slot;
}

/// Row-shard `rows(i0, i1, shard_csum)` across the global pool. With a fused
/// `csum` requested, each shard reduces into a private partial merged under a
/// lock — int64 addition is associative and commutative, so the merged sums
/// are bit-identical at every thread count and merge order.
///
/// With `wcsum` also requested, the weighted reduction uᵀC (u = [1,2,3,…]) is
/// folded at shard granularity right after the shard's kernel finishes: the C
/// rows it just stored are still cache-hot, and the row weight (i+1) depends
/// only on the global row index, so shard partials merge exactly like the
/// plain sums — bit-identical at every tier and thread count.
template <typename Rows>
void shard_rows_fused(std::size_t m, std::size_t n, const std::int32_t* c, std::int64_t* csum,
                      std::int64_t* wcsum, const Rows& rows) {
  if (!csum && !wcsum) {
    util::global_pool().parallel_for(
        m, kRowGrain, [&](std::size_t i0, std::size_t i1) { rows(i0, i1, nullptr); });
    return;
  }
  std::mutex mu;
  util::global_pool().parallel_for(m, kRowGrain, [&](std::size_t i0, std::size_t i1) {
    std::vector<std::int64_t> local(csum ? n : 0, 0);
    rows(i0, i1, csum ? local.data() : nullptr);
    std::vector<std::int64_t> wlocal(wcsum ? n : 0, 0);
    if (wcsum) {
      for (std::size_t i = i0; i < i1; ++i) {
        const std::int32_t* crow = c + i * n;
        const auto w = static_cast<std::int64_t>(i + 1);
        for (std::size_t j = 0; j < n; ++j) wlocal[j] += w * static_cast<std::int64_t>(crow[j]);
      }
    }
    const std::lock_guard<std::mutex> lock(mu);
    if (csum) {
      for (std::size_t j = 0; j < n; ++j) csum[j] += local[j];
    }
    if (wcsum) {
      for (std::size_t j = 0; j < n; ++j) wcsum[j] += wlocal[j];
    }
  });
}

#if REALM_X86
/// Row-shard the macro-loop over already-packed panels.
void run_simd_rows(Tier t, const std::int8_t* a, const std::int8_t* pb, std::int32_t* c,
                   std::size_t m, std::size_t k, std::size_t n, std::int64_t* csum,
                   std::int64_t* wcsum) {
  shard_rows_fused(m, n, c, csum, wcsum, [&](std::size_t i0, std::size_t i1, std::int64_t* cs) {
    if (t == Tier::kAvx512) {
      vnni_rows(a, pb, c, k, n, i0, i1, cs);
    } else {
      avx2_rows(a, pb, c, k, n, i0, i1, cs);
    }
  });
}
#endif

}  // namespace

const char* to_string(Tier t) noexcept {
  switch (t) {
    case Tier::kPortable: return "portable";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "?";
}

Tier best_supported_tier() noexcept {
  static const Tier best = detect_best();
  return best;
}

Tier active_tier() noexcept { return tier_slot().load(std::memory_order_relaxed); }

void set_active_tier(Tier t) {
  if (t > best_supported_tier()) {
    throw std::invalid_argument(std::string("kernels: tier ") + to_string(t) +
                                " not supported by this CPU");
  }
  tier_slot().store(t, std::memory_order_relaxed);
}

void gemm_i8(const std::int8_t* a, const std::int8_t* b, std::int32_t* c, std::size_t m,
             std::size_t k, std::size_t n, std::int64_t* col_sums, std::int64_t* wcol_sums) {
  if (col_sums) std::fill_n(col_sums, n, std::int64_t{0});
  if (wcol_sums) std::fill_n(wcol_sums, n, std::int64_t{0});
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::memset(c, 0, m * n * sizeof(std::int32_t));
    return;
  }
#if REALM_X86
  const Tier t = active_tier();
  if (t != Tier::kPortable) {
    // Pack B once (serial, O(k*n)), then row-shard the macro-loop.
    PanelBytes pb(panel_bytes(t, k, n));
    pack_panels(t, b, k, n, pb.data());
    run_simd_rows(t, a, pb.data(), c, m, k, n, col_sums, wcol_sums);
    return;
  }
#endif
  shard_rows_fused(m, n, c, col_sums, wcol_sums,
                   [&](std::size_t i0, std::size_t i1, std::int64_t* cs) {
                     portable_rows(a, b, c, k, n, i0, i1, cs);
                   });
}

PackedB pack_b(const std::int8_t* b, std::size_t k, std::size_t n) {
  PackedB p;
  p.tier_ = active_tier();
  p.k_ = k;
  p.n_ = n;
#if REALM_X86
  if (p.tier_ != Tier::kPortable && k > 0 && n > 0) {
    p.panels_.resize(panel_bytes(p.tier_, k, n));
    pack_panels(p.tier_, b, k, n, p.panels_.data());
  }
#else
  (void)b;
#endif
  return p;
}

bool panels_match(const std::int8_t* b, std::size_t k, std::size_t n, const PackedB& pb) {
  const Tier t = active_tier();
  if (!pb.valid_for(t, k, n)) return false;
#if REALM_X86
  // Repack a slice of every panel at a time into a buffer that stays in L2,
  // and compare each panel's slice with the resident bytes.
  constexpr std::size_t kSliceBytes = std::size_t{64} << 10;
  const PanelShape s = panel_shape(t, k, n);
  const std::size_t rows = std::clamp<std::size_t>(kSliceBytes / (s.panels * s.row_bytes), 1,
                                                   s.groups);
  PanelBytes fresh(s.panels * rows * s.row_bytes);
  const std::int8_t* resident = pb.raw_panels().data();
  for (std::size_t g0 = 0; g0 < s.groups; g0 += rows) {
    const std::size_t g1 = std::min(s.groups, g0 + rows);
    const std::size_t len = (g1 - g0) * s.row_bytes;
    pack_panels(t, b, k, n, g0, g1, fresh.data());
    for (std::size_t p = 0; p < s.panels; ++p) {
      const std::int8_t* want = resident + (p * s.groups + g0) * s.row_bytes;
      if (std::memcmp(fresh.data() + p * len, want, len) != 0) return false;
    }
  }
  return true;
#else
  (void)b;
  return false;  // portable panels are empty, so valid_for already failed
#endif
}

void gemm_i8_prepacked(const std::int8_t* a, const std::int8_t* b, const PackedB& pb,
                       std::int32_t* c, std::size_t m, std::size_t k, std::size_t n,
                       std::int64_t* col_sums, std::int64_t* wcol_sums) {
  if (m == 0 || n == 0) {
    if (col_sums) std::fill_n(col_sums, n, std::int64_t{0});
    if (wcol_sums) std::fill_n(wcol_sums, n, std::int64_t{0});
    return;
  }
#if REALM_X86
  const Tier t = active_tier();
  if (k > 0 && t != Tier::kPortable && pb.valid_for(t, k, n)) {
    if (col_sums) std::fill_n(col_sums, n, std::int64_t{0});
    if (wcol_sums) std::fill_n(wcol_sums, n, std::int64_t{0});
    run_simd_rows(t, a, pb.panels_.data(), c, m, k, n, col_sums, wcol_sums);
    return;
  }
#else
  (void)pb;
#endif
  gemm_i8(a, b, c, m, k, n, col_sums, wcol_sums);
}

}  // namespace realm::tensor::kernels
