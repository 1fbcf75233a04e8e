#include "peak_probe.h"

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "util/clock.h"
#include "util/compiler.h"

namespace perfbench {
namespace {

constexpr int kChains = 16;  // covers the multiply-accumulate latency

// Each kernel returns a value derived from every accumulator so the loop
// cannot be dropped; `seed` comes from run time so nothing folds.

REALM_BEGIN_AVX512_SECTION
__attribute__((target("avx512f,avx512bw,avx512vnni"))) std::int64_t vnni_loop(
    std::int64_t iters, int seed) {
  const __m512i a = _mm512_set1_epi32(seed | 0x01010101);
  __m512i b = _mm512_set1_epi32(seed ^ 0x02030405);
  __m512i acc[kChains];
  for (auto& x : acc) x = _mm512_setzero_si512();
  for (std::int64_t i = 0; i < iters; ++i) {
    __asm__ volatile("" : "+v"(b));  // keeps the compiler from hoisting or folding
    for (auto& x : acc) x = _mm512_dpbusd_epi32(x, a, b);
  }
  __m512i sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm512_add_epi32(sum, acc[c]);
  alignas(64) std::int32_t lanes[16];
  _mm512_store_si512(lanes, sum);
  std::int64_t total = 0;
  for (const std::int32_t v : lanes) total += v;
  return total;
}
REALM_END_AVX512_SECTION

__attribute__((target("avx2"))) std::int64_t madd_loop(std::int64_t iters, int seed) {
  const __m256i a = _mm256_set1_epi16(static_cast<short>(seed | 1));
  __m256i b = _mm256_set1_epi16(static_cast<short>(seed ^ 3));
  __m256i acc[kChains];
  for (auto& x : acc) x = _mm256_setzero_si256();
  for (std::int64_t i = 0; i < iters; ++i) {
    __asm__ volatile("" : "+x"(b));  // keeps vpmaddwd inside the loop
    for (auto& x : acc) x = _mm256_add_epi32(x, _mm256_madd_epi16(a, b));
  }
  __m256i sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm256_add_epi32(sum, acc[c]);
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), sum);
  std::int64_t total = 0;
  for (const std::int32_t v : lanes) total += v;
  return total;
}

volatile std::int64_t g_sink = 0;

}  // namespace

PeakProbe measure_int8_peak() {
  const bool vnni = __builtin_cpu_supports("avx512vnni") != 0;
  PeakProbe probe;
  if (!vnni && __builtin_cpu_supports("avx2") == 0) return probe;  // no SIMD int8 path
  probe.instruction = vnni ? "vpdpbusd" : "vpmaddwd";
  // Multiply-accumulates per instruction: 64 (u8 x s8, 4 per int32 lane of
  // 16) for vpdpbusd, 16 (s16 x s16, 2 per int32 lane of 8) for vpmaddwd.
  const double macs_per_step = kChains * (vnni ? 64.0 : 16.0);
  const std::int64_t iters = 1 << 22;
  for (int trial = 0; trial < 24; ++trial) {
    const int seed = trial + static_cast<int>(g_sink & 7);
    const std::int64_t t0 = realm::util::now_ns();
    g_sink = vnni ? vnni_loop(iters, seed) : madd_loop(iters, seed);
    const double s = static_cast<double>(realm::util::now_ns() - t0) / 1e9;
    probe.gops = std::max(probe.gops, 2.0 * macs_per_step * static_cast<double>(iters) / s / 1e9);
  }
  return probe;
}

}  // namespace perfbench
