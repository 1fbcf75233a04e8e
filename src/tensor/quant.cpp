#include "tensor/quant.h"

#include <algorithm>

#include "tensor/gemm_kernels.h"

namespace realm::tensor {

namespace {

void quantize_portable(const float* src, std::int8_t* dst, std::size_t n, QuantParams qp) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = qp.quantize(src[i]);
}

#if defined(__x86_64__) || defined(__i386__)
/// The same loop compiled for AVX2: GCC vectorizes it with vdivps and turns
/// nearbyint into vroundps in the current rounding mode with exceptions
/// suppressed, so every code equals the scalar loop's.
__attribute__((target("avx2"))) void quantize_avx2(const float* src, std::int8_t* dst,
                                                   std::size_t n, QuantParams qp) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = qp.quantize(src[i]);
}
#endif

}  // namespace

QuantParams calibrate(std::span<const float> sample, float max_abs_floor) {
  float max_abs = max_abs_floor;
  for (const float x : sample) max_abs = std::max(max_abs, std::abs(x));
  return QuantParams{max_abs / 127.0f};
}

MatI8 quantize(const MatF& x, QuantParams qp) {
  MatI8 out(x.rows(), x.cols());
  const auto src = x.flat();
  const auto dst = out.flat();
#if defined(__x86_64__) || defined(__i386__)
  if (kernels::active_tier() != kernels::Tier::kPortable) {
    quantize_avx2(src.data(), dst.data(), src.size(), qp);
    return out;
  }
#endif
  quantize_portable(src.data(), dst.data(), src.size(), qp);
  return out;
}

MatF dequantize(const MatI8& q, QuantParams qp) {
  MatF out(q.rows(), q.cols());
  const auto src = q.flat();
  const auto dst = out.flat();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = qp.dequantize(src[i]);
  return out;
}

MatF dequantize_acc(const MatI32& acc, QuantParams a, QuantParams b) {
  MatF out;
  dequantize_acc(acc, a, b, out);
  return out;
}

void dequantize_acc(const MatI32& acc, QuantParams a, QuantParams b, MatF& out) {
  if (out.rows() != acc.rows() || out.cols() != acc.cols()) out = MatF(acc.rows(), acc.cols());
  const float s = a.scale * b.scale;
  const auto src = acc.flat();
  const auto dst = out.flat();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = static_cast<float>(src[i]) * s;
}

MatI8 requantize_acc(const MatI32& acc, QuantParams a, QuantParams b, QuantParams out_qp) {
  MatI8 out(acc.rows(), acc.cols());
  const float s = a.scale * b.scale / out_qp.scale;
  const auto src = acc.flat();
  const auto dst = out.flat();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float q = std::nearbyint(static_cast<float>(src[i]) * s);
    dst[i] = static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
  }
  return out;
}

}  // namespace realm::tensor
