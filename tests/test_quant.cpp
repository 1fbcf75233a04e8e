#include "tensor/quant.h"

#include <cmath>
#include <iterator>
#include <vector>

#include "realm_test.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

using namespace realm::tensor;

REALM_TEST(quantize_dequantize_roundtrip) {
  realm::util::Rng rng(21);
  MatF x(16, 24);
  for (auto& v : x.flat()) v = static_cast<float>(rng.uniform(-4.0, 4.0));
  const QuantParams qp = calibrate(x.flat());
  const MatI8 q8 = quantize(x, qp);
  const MatF back = dequantize(q8, qp);
  // Symmetric INT8: worst-case round-trip error is half a quantization step.
  const float step = qp.scale;
  for (std::size_t i = 0; i < x.size(); ++i) {
    REALM_CHECK(std::abs(back.flat()[i] - x.flat()[i]) <= 0.5f * step + 1e-6f);
  }
  // The calibrated max hits an exact code: |q| == 127 somewhere.
  bool saw_full_scale = false;
  for (const auto q : q8.flat()) {
    if (q == 127 || q == -127) saw_full_scale = true;
  }
  REALM_CHECK(saw_full_scale);
}

REALM_TEST(calibrate_floor_and_clamp) {
  const MatF zeros(4, 4, 0.0f);
  const QuantParams qp = calibrate(zeros.flat());
  REALM_CHECK(qp.scale > 0.0f);  // max_abs_floor prevents a degenerate scale
  // Out-of-range values clamp to +/-127 instead of wrapping.
  REALM_CHECK_EQ(QuantParams{0.01f}.quantize(100.0f), 127);
  REALM_CHECK_EQ(QuantParams{0.01f}.quantize(-100.0f), -127);
}

REALM_TEST(quantize_matches_scalar_codes_on_every_tier) {
  // The SIMD quantize must reproduce QuantParams::quantize code for code:
  // round-half-even ties, the ±127 clamp, infinities and tiny values.
  namespace kernels = realm::tensor::kernels;
  struct TierGuard {
    kernels::Tier saved = kernels::active_tier();
    ~TierGuard() { kernels::set_active_tier(saved); }
  } guard;
  realm::util::Rng rng(23);
  const QuantParams qp{0.25f};  // a power of two: the half-step specials are exact ties
  MatF x(7, 37);                // 259 elements: a vector tail on every width
  for (auto& v : x.flat()) v = static_cast<float>(rng.uniform(-40.0, 40.0));
  const float specials[] = {0.5f * qp.scale,   1.5f * qp.scale,  2.5f * qp.scale,
                            -0.5f * qp.scale,  -2.5f * qp.scale, 126.5f * qp.scale,
                            127.5f * qp.scale, -127.5f * qp.scale, 1e30f,
                            -1e30f,            INFINITY,         -INFINITY,
                            1e-40f,            -0.0f};
  for (std::size_t i = 0; i < std::size(specials); ++i) x.flat()[i * 17] = specials[i];
  std::vector<kernels::Tier> tiers{kernels::Tier::kPortable};
  if (kernels::best_supported_tier() >= kernels::Tier::kAvx2) tiers.push_back(kernels::Tier::kAvx2);
  for (const auto t : tiers) {
    kernels::set_active_tier(t);
    const MatI8 q8 = quantize(x, qp);
    for (std::size_t i = 0; i < x.size(); ++i) {
      REALM_CHECK_EQ(q8.flat()[i], qp.quantize(x.flat()[i]));
    }
  }
}

REALM_TEST(dequantized_gemm_tracks_float_reference) {
  realm::util::Rng rng(22);
  MatF a(8, 32), b(32, 8);
  for (auto& v : a.flat()) v = static_cast<float>(rng.normal());
  for (auto& v : b.flat()) v = static_cast<float>(rng.normal());
  const QuantParams qa = calibrate(a.flat());
  const QuantParams qb = calibrate(b.flat());
  const MatF approx = dequantize_acc(gemm_i8(quantize(a, qa), quantize(b, qb)), qa, qb);
  const MatF exact = gemm_f32(a, b);
  // W8A8 quantization noise over k=32: loose tolerance, but catches any
  // scale-handling mistake (those show up as O(1) relative errors).
  for (std::size_t i = 0; i < exact.size(); ++i) {
    REALM_CHECK(std::abs(approx.flat()[i] - exact.flat()[i]) < 0.5f);
  }
}

REALM_TEST_MAIN()
