#include "tensor/gemm_kernels.h"

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "realm_test.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/rng.h"

using namespace realm::tensor;
using realm::tensor::kernels::Tier;

namespace {

/// Restores the pre-test tier even when a REALM_CHECK throws, so one failing
/// case can't leak a forced tier into the rest of the .all run.
struct TierGuard {
  Tier saved = kernels::active_tier();
  ~TierGuard() { kernels::set_active_tier(saved); }
};

std::vector<Tier> supported_tiers() {
  std::vector<Tier> tiers{Tier::kPortable};
  if (kernels::best_supported_tier() >= Tier::kAvx2) tiers.push_back(Tier::kAvx2);
  if (kernels::best_supported_tier() >= Tier::kAvx512) tiers.push_back(Tier::kAvx512);
  return tiers;
}

/// Weighted column sums uᵀC (u = [1,2,3,…]) read back from C.
std::vector<std::int64_t> weighted_col_sums(const MatI32& c) {
  std::vector<std::int64_t> w(c.cols(), 0);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      w[j] += static_cast<std::int64_t>(i + 1) * static_cast<std::int64_t>(c(i, j));
    }
  }
  return w;
}

MatI8 random_i8_full_range(std::size_t rows, std::size_t cols, realm::util::Rng& rng) {
  MatI8 m(rows, cols);
  // Full raw int8 range including -128: the overflow analysis and the
  // sign-extension paths must hold beyond the quantizer's ±127.
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return m;
}

/// Naive int64-accumulating reference, independent of every kernel tier.
MatI32 reference_gemm(const MatI8& a, const MatI8& b) {
  MatI32 c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      std::int64_t acc = 0;
      for (std::size_t kk = 0; kk < a.cols(); ++kk) {
        acc += static_cast<std::int64_t>(a(i, kk)) * static_cast<std::int64_t>(b(kk, j));
      }
      c(i, j) = static_cast<std::int32_t>(acc);
    }
  }
  return c;
}

}  // namespace

REALM_TEST(all_tiers_match_reference_on_randomized_shapes) {
  realm::util::Rng rng(101);
  TierGuard guard;
  // Shapes straddling every blocking boundary: microkernel tiles (4/8 rows,
  // 16/32 cols), the 64-row A block, k mod 4 in {1, 2, 3} (the int16 pair and
  // int8 quad padding paths) under full tiles as well as edges, k = 1, and
  // single-row/column edges.
  const std::size_t shapes[][3] = {{1, 1, 1},    {3, 5, 7},     {8, 64, 32},   {9, 65, 33},
                                   {17, 2, 50},  {33, 127, 1},  {5, 1, 100},   {64, 128, 96},
                                   {66, 130, 97}, {12, 31, 48}, {100, 7, 19},  {17, 99, 65},
                                   {8, 35, 32},  {71, 66, 95}};
  for (const auto& s : shapes) {
    const MatI8 a = random_i8_full_range(s[0], s[1], rng);
    const MatI8 b = random_i8_full_range(s[1], s[2], rng);
    const MatI32 want = reference_gemm(a, b);
    for (const Tier t : supported_tiers()) {
      kernels::set_active_tier(t);
      REALM_CHECK(gemm_i8(a, b) == want);
    }
  }
}

REALM_TEST(tiers_agree_at_k_bound_with_minus128) {
  // Worst-case accumulation at k = kMaxK, on every tier, with the fused eᵀC
  // and uᵀC folds. Every element of C is a·b·k for the constant operands:
  //  * all -128 x all -128: exactly 2^30, the documented int32 ceiling of
  //    the int16-pair path;
  //  * all -128 x all +127: the vpdpbusd path's biased accumulator
  //    Σ a·(b+128) = -128·255·k sits nearest INT32_MIN before the row term
  //    128·Σ a = -2^30 comes off;
  //  * all +127 x all +127: the same accumulator at its positive extreme.
  // An odd k one below the bound exercises the padded tail at full
  // magnitude; 9 x 33 runs full microkernel tiles next to row and column
  // edges on both SIMD tiers.
  TierGuard guard;
  const std::int8_t pairs[][2] = {{-128, -128}, {-128, 127}, {127, 127}};
  const std::size_t m = 9, n = 33;
  for (const std::size_t k : {kMaxK, kMaxK - 1}) {
    for (const auto& ab : pairs) {
      const MatI8 a(m, k, ab[0]);
      const MatI8 b(k, n, ab[1]);
      const std::int64_t want = std::int64_t{ab[0]} * ab[1] * static_cast<std::int64_t>(k);
      const std::vector<std::int64_t> want_col(n, want * static_cast<std::int64_t>(m));
      const std::vector<std::int64_t> want_wcol(n, want * static_cast<std::int64_t>(m * (m + 1) / 2));
      for (const Tier t : supported_tiers()) {
        kernels::set_active_tier(t);
        MatI32 c;
        std::vector<std::int64_t> col, wcol;
        gemm_i8_prepacked(a, b, kernels::pack_b(b.data(), k, n), c, &col, &wcol);
        REALM_CHECK(c == MatI32(m, n, static_cast<std::int32_t>(want)));
        REALM_CHECK(col == want_col);
        REALM_CHECK(wcol == want_wcol);
        REALM_CHECK(wcol == weighted_col_sums(c));
      }
    }
  }
}

REALM_TEST(mixed_sign_columns_cancel_exactly) {
  // Alternating ±127 against ±128 stresses cancellation: intermediate sums
  // swing to both extremes while the final value stays small. Any tier that
  // saturated an intermediate (the maddubs trap) would diverge.
  TierGuard guard;
  const std::size_t k = 4096;
  MatI8 a(1, k);
  for (std::size_t kk = 0; kk < k; ++kk) a(0, kk) = (kk % 2 == 0) ? 127 : -127;
  MatI8 b(k, 2);
  for (std::size_t kk = 0; kk < k; ++kk) {
    b(kk, 0) = -128;
    b(kk, 1) = (kk % 2 == 0) ? -128 : 127;
  }
  const MatI32 want = reference_gemm(a, b);
  for (const Tier t : supported_tiers()) {
    kernels::set_active_tier(t);
    REALM_CHECK(gemm_i8(a, b) == want);
  }
}

REALM_TEST(output_is_fully_overwritten_not_accumulated) {
  // The kernel contract: a correctly-sized c is overwritten without being
  // read. Pre-poisoning c must not leak into the result on any tier, with
  // fresh or resident panels, including the k = 0 edge (which must zero c).
  realm::util::Rng rng(102);
  TierGuard guard;
  const MatI8 a = random_i8_full_range(7, 33, rng);
  const MatI8 b = random_i8_full_range(33, 19, rng);
  const MatI32 want = reference_gemm(a, b);
  for (const Tier t : supported_tiers()) {
    kernels::set_active_tier(t);
    MatI32 c(7, 19);
    c.fill(0x7eadbeef);
    gemm_i8(a, b, c);
    REALM_CHECK(c == want);
    c.fill(-1);
    gemm_i8_prepacked(a, b, kernels::pack_b(b.data(), b.rows(), b.cols()), c);
    REALM_CHECK(c == want);
    MatI32 zero(4, 6);
    zero.fill(123);
    gemm_i8(MatI8(4, 0), MatI8(0, 6), zero);
    REALM_CHECK(zero == MatI32(4, 6, 0));
  }
}

REALM_TEST(prepacked_weights_match_fresh_pack_and_survive_tier_switch) {
  // The weight-stationary path: panels packed once via kernels::pack_b must
  // produce the same bits as packing fresh, and a cache packed under one tier
  // must fall back (not mis-decode) when the active tier changes.
  realm::util::Rng rng(103);
  TierGuard guard;
  const MatI8 a = random_i8_full_range(13, 70, rng);
  const MatI8 b = random_i8_full_range(70, 37, rng);
  const MatI32 want = reference_gemm(a, b);
  for (const Tier t : supported_tiers()) {
    kernels::set_active_tier(t);
    const kernels::PackedB pb = kernels::pack_b(b.data(), b.rows(), b.cols());
    MatI32 c;
    gemm_i8_prepacked(a, b, pb, c);
    REALM_CHECK(c == want);
    // Stale caches are ignored: wrong shape...
    const kernels::PackedB wrong = kernels::pack_b(b.data(), b.rows(), b.cols() - 1);
    REALM_CHECK(!wrong.valid_for(t, b.rows(), b.cols()));
    // ...and wrong tier (switch away from where the panels were packed).
    for (const Tier other : supported_tiers()) {
      kernels::set_active_tier(other);
      MatI32 c2;
      gemm_i8_prepacked(a, b, pb, c2);
      REALM_CHECK(c2 == want);
    }
    kernels::set_active_tier(t);
  }
}

REALM_TEST(panels_match_catches_every_byte_in_every_slice) {
  // The weight scrub repacks a slice of every panel at a time: shapes cover
  // one slice, many slices, a last slice shorter than the rest, and k/n
  // edges. Any single flipped byte of the resident image must fail it.
  realm::util::Rng rng(107);
  TierGuard guard;
  const std::size_t shapes[][2] = {{7, 5}, {70, 37}, {4096, 256}, {1027, 33}, {2050, 4100}};
  for (const Tier t : supported_tiers()) {
    kernels::set_active_tier(t);
    for (const auto& s : shapes) {
      const MatI8 b = random_i8_full_range(s[0], s[1], rng);
      kernels::PackedB pb = kernels::pack_b(b.data(), b.rows(), b.cols());
      if (t == Tier::kPortable) {
        REALM_CHECK(!kernels::panels_match(b.data(), b.rows(), b.cols(), pb));
        continue;
      }
      REALM_CHECK(kernels::panels_match(b.data(), b.rows(), b.cols(), pb));
      const std::size_t bytes = pb.raw_panels().size();
      for (const std::size_t at : {std::size_t{0}, bytes / 3, bytes / 2 + 1, bytes - 1,
                                   static_cast<std::size_t>(rng.uniform_u64(bytes))}) {
        pb.mutable_panels()[at] ^= 0x10;
        REALM_CHECK(!kernels::panels_match(b.data(), b.rows(), b.cols(), pb));
        pb.mutable_panels()[at] ^= 0x10;
      }
      REALM_CHECK(kernels::panels_match(b.data(), b.rows(), b.cols(), pb));
      // Panels packed for another tier or shape never match.
      REALM_CHECK(!kernels::panels_match(b.data(), b.rows(), b.cols() - 1, pb));
      kernels::set_active_tier(Tier::kPortable);
      REALM_CHECK(!kernels::panels_match(b.data(), b.rows(), b.cols(), pb));
      kernels::set_active_tier(t);
    }
  }
}

REALM_TEST(tier_dispatch_and_override) {
  TierGuard guard;
  const Tier best = kernels::best_supported_tier();
  REALM_CHECK(kernels::active_tier() <= best);
  // Portable is always selectable...
  kernels::set_active_tier(Tier::kPortable);
  REALM_CHECK(kernels::active_tier() == Tier::kPortable);
  kernels::set_active_tier(best);
  REALM_CHECK(kernels::active_tier() == best);
  // ...and a tier above the CPU's capability is rejected.
  if (best < Tier::kAvx512) {
    REALM_CHECK_THROWS(kernels::set_active_tier(Tier::kAvx512), std::invalid_argument);
  }
  REALM_CHECK(std::string(kernels::to_string(Tier::kPortable)) == "portable");
  REALM_CHECK(std::string(kernels::to_string(Tier::kAvx2)) == "avx2");
  REALM_CHECK(std::string(kernels::to_string(Tier::kAvx512)) == "avx512");
  // Say which tiers this binary cross-checked: a CPU without AVX-512 VNNI
  // never runs the avx512 tier, and that should be visible in a CI log.
  std::printf("tiers exercised:");
  for (const Tier t : supported_tiers()) std::printf(" %s", kernels::to_string(t));
  std::printf(" (best supported: %s)\n", kernels::to_string(best));
}

REALM_TEST_MAIN()
