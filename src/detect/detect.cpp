#include "detect/detect.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "detect/correct.h"
#include "fault/memory.h"
#include "obs/trace.h"
#include "tensor/checksum_kernels.h"
#include "tensor/gemm.h"
#include "util/bitmath.h"

namespace realm::detect {

namespace {

/// Fill the checksum-derived fields of a verdict from a column deviation.
void load_column_stats(DetectionVerdict& v, const tensor::ColumnDeviation& dev) {
  v.msd_signed = dev.msd_signed;
  v.msd_abs = dev.msd_abs;
  v.max_dev_pow2 = 0;
  for (const auto d : dev.diff) {
    if (d != 0) v.max_dev_pow2 = std::max(v.max_dev_pow2, util::ilog2_abs(d));
  }
}

/// ΔA(i,:)·(W·e) with ΔA = clean − work: how far row i's predicted row sum
/// moves between the two activation copies.
std::int64_t row_delta(const tensor::MatI8& clean, const tensor::MatI8& work, std::size_t i,
                       const std::vector<std::int64_t>& w_row_basis) {
  const std::size_t k = clean.cols();
  std::int64_t from_clean = 0;
  std::int64_t from_work = 0;
  tensor::kernels::predict_row_checksum(clean.data() + i * k, 1, k, w_row_basis.data(),
                                        &from_clean);
  tensor::kernels::predict_row_checksum(work.data() + i * k, 1, k, w_row_basis.data(),
                                        &from_work);
  return util::sat_sub_i64(from_clean, from_work);
}

}  // namespace

DetectionVerdict screen_accumulator(const DetectionConfig& cfg,
                                    const std::vector<std::int64_t>& predicted_cols,
                                    const tensor::MatI8& a8,
                                    const std::vector<std::int64_t>& w_row_basis,
                                    const tensor::MatI32& acc, ScreenDeviations* devs) {
  DetectionVerdict report;
  // Column side: predicted (eᵀA)·W vs observed eᵀC, MSD thresholding.
  tensor::ColumnDeviation dev = tensor::column_deviation_from_predicted(predicted_cols, acc);
  load_column_stats(report, dev);

  bool flagged = report.msd_abs > cfg.msd_threshold;
  const bool two_sided = cfg.mode == CheckMode::kTwoSided;
  std::vector<std::int64_t> row_dev;
  if (two_sided || devs != nullptr) {
    const std::vector<std::int64_t> predicted_rows =
        tensor::predict_row_checksum(a8, w_row_basis);
    const std::vector<std::int64_t> observed_rows = tensor::row_sums(acc);
    row_dev.resize(predicted_rows.size());
    for (std::size_t i = 0; i < predicted_rows.size(); ++i) {
      row_dev[i] = util::sat_sub_i64(observed_rows[i], predicted_rows[i]);
    }
  }
  if (two_sided) {
    for (std::size_t j = 0; j < dev.diff.size(); ++j) {
      if (dev.diff[j] != 0) report.fault_cols.push_back(j);
    }
    for (std::size_t i = 0; i < row_dev.size(); ++i) {
      if (row_dev[i] != 0) report.fault_rows.push_back(i);
    }
    // The row side must participate in the verdict, not just localization:
    // opposite-sign errors in one column cancel in every column statistic
    // (zero diff, zero MSD) but still perturb two row sums — the case
    // classical two-sided ABFT exists to catch.
    flagged = flagged || !report.fault_cols.empty() || !report.fault_rows.empty();
  }
  if (devs != nullptr) {
    devs->cols = std::move(dev.diff);
    devs->rows = std::move(row_dev);
  }
  report.verdict = flagged ? Verdict::kDetected : Verdict::kClean;
  return report;
}

const char* to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::kClean: return "clean";
    case Verdict::kDetected: return "detected";
    case Verdict::kPatched: return "patched";
    case Verdict::kRecomputed: return "recomputed";
  }
  return "?";
}

void ProtectedGemm::set_weights(const tensor::MatF& w) {
  const tensor::QuantParams qw = tensor::calibrate(w.flat());
  set_weights_quantized(tensor::quantize(w, qw), qw);
}

void ProtectedGemm::set_weights_quantized(tensor::MatI8 w8, tensor::QuantParams qw) {
  if (w8.empty()) throw std::invalid_argument("ProtectedGemm: empty weights");
  w8_ = std::move(w8);
  qw_ = qw;
  // Weight-stationary model: both checksum bases (W·e and eᵀW) and the SIMD
  // panels are computed once and stay resident with the weights, like the
  // Fig. 7 checksum row. Every protected GEMM (and its recompute replay)
  // then skips the O(k·n) pack.
  w_row_basis_ = tensor::row_sums(w8_);
  w_col_basis_ = tensor::col_sums(w8_);
  // Weighted ABFT basis W·v (v = [1,2,3,…]): resident like W·e so the
  // corrector's row-side solve A·(W·v) reuses the same predict kernel.
  w_row_wbasis_ = tensor::weighted_row_sums(w8_);
  w_packed_ = tensor::kernels::pack_b(w8_.data(), w8_.rows(), w8_.cols());
}

bool ProtectedGemm::verify_weight_integrity() const {
  if (w8_.empty()) throw std::logic_error("ProtectedGemm: set_weights() not called");
  if (tensor::row_sums(w8_) != w_row_basis_ || tensor::col_sums(w8_) != w_col_basis_) {
    return false;
  }
  // Panel leg: the packed SIMD image must still be the pack of w8_. A fresh
  // repack against a byte-compare is exact — any at-rest panel corruption is
  // caught, independent of value or position. Only meaningful when the
  // resident panels target the active tier/shape (otherwise every GEMM
  // repacks fresh and stale panels are never consumed).
  if (w_packed_.valid_for(tensor::kernels::active_tier(), w8_.rows(), w8_.cols())) {
    return tensor::kernels::panels_match(w8_.data(), w8_.rows(), w8_.cols(), w_packed_);
  }
  return true;
}

std::uint64_t ProtectedGemm::corrupt_weights(const fault::MemoryFaultModel& memory,
                                             std::uint64_t op,
                                             std::vector<fault::FlipRecord>* record) {
  if (w8_.empty()) throw std::logic_error("ProtectedGemm: set_weights() not called");
  const std::uint64_t flips =
      memory.corrupt(fault::Component::kWeights, op, w8_.flat(), record);
  if (flips != 0) {
    // The load strike lands before packing: the panels are packed from the
    // corrupted image, so the GEMM consumes it consistently and only the
    // bases (captured from the clean image) can expose the damage.
    w_packed_ = tensor::kernels::pack_b(w8_.data(), w8_.rows(), w8_.cols());
  }
  return flips;
}

std::uint64_t ProtectedGemm::corrupt_panels(const fault::MemoryFaultModel& memory,
                                            std::uint64_t op,
                                            std::vector<fault::FlipRecord>* record) {
  if (w8_.empty()) throw std::logic_error("ProtectedGemm: set_weights() not called");
  return memory.corrupt(fault::Component::kPackedPanels, op, w_packed_.mutable_panels(), record);
}

ProtectedGemmResult ProtectedGemm::run(const tensor::MatF& a,
                                       const fault::FaultInjector& injector,
                                       util::Rng& rng) const {
  tensor::QuantParams qa{};
  tensor::MatI8 a8;
  {
    // The serving path submits pre-quantized activations, so this span only
    // appears on the float front door.
    const obs::ScopedSpan quant_span(obs::SpanKind::kQuantize);
    qa = tensor::calibrate(a.flat());
    a8 = tensor::quantize(a, qa);
  }
  return run_quantized(a8, qa, injector, rng);
}

ProtectedGemmResult ProtectedGemm::run_quantized(const tensor::MatI8& a8,
                                                 tensor::QuantParams qa,
                                                 const fault::FaultInjector& injector,
                                                 util::Rng& rng) const {
  ProtectedGemmResult result;
  run_quantized_into(a8, qa, injector, rng, result);
  return result;
}

void ProtectedGemm::run_quantized_into(const tensor::MatI8& a8, tensor::QuantParams qa,
                                       const fault::FaultInjector& injector, util::Rng& rng,
                                       ProtectedGemmResult& result,
                                       const fault::MemoryFaultModel* memory,
                                       std::uint64_t op) const {
  if (w8_.empty()) throw std::logic_error("ProtectedGemm: set_weights() not called");
  if (a8.cols() != w8_.rows()) {
    throw std::invalid_argument("ProtectedGemm: activation/weight dim mismatch");
  }

  // Stage spans nest under the caller's tile span via the thread-local trace
  // context (obs/trace.h) — no-ops outside a traced request and compiled out
  // entirely under REALM_TRACE=OFF.
  const bool strike_acts =
      memory != nullptr && memory->enabled(fault::Component::kActivations);
  std::uint64_t activation_flips = 0;
  const tensor::MatI8* gemm_a = &a8;
  if (strike_acts) {
    // Per-request activation strike: the array consumes a working copy hit
    // by the kActivations stream; the caller's a8 stands in for the golden
    // producer copy.
    result.a8_work = a8;
    activation_flips =
        memory->corrupt(fault::Component::kActivations, op, result.a8_work.flat());
    gemm_a = &result.a8_work;
  }
  // The fused store-phase reductions of the multiply ARE the predicted
  // column checksums: injection perturbs the accumulator only after this
  // line, so the fused sums are eᵀ(A·W) and uᵀ(A·W) of the true product,
  // which equal (eᵀA)·W and (uᵀA)·W exactly (integer checksum identity —
  // cross-checked in the test suite). This models the dedicated fault-free
  // checksum datapath of Fig. 7; no O(k·n) prediction pass runs.
  std::vector<std::int64_t> predicted_cols;
  std::vector<std::int64_t> predicted_wcols;
  {
    const obs::ScopedSpan gemm_span(obs::SpanKind::kGemm);
    tensor::gemm_i8_prepacked(*gemm_a, w8_, w_packed_, result.acc, &predicted_cols,
                              &predicted_wcols);
  }
  std::vector<std::size_t> struck_rows;
  if (strike_acts) {
    // The checksum row travels with A from its fault-free producer, so the
    // predictions must be those of the CLEAN copy: add the sparse ΔA terms.
    // The column screen then sees the corruption; the row side (predicted
    // below from the consumed image) is blind to it by construction.
    struck_rows =
        tensor::fold_operand_delta(a8, result.a8_work, w8_, predicted_cols, predicted_wcols);
  }
  const fault::InjectionReport injection = injector.inject(result.acc.flat(), rng);

  ScreenDeviations devs;
  {
    const obs::ScopedSpan screen_span(obs::SpanKind::kScreen);
    result.report = screen_accumulator(cfg_, predicted_cols, *gemm_a, w_row_basis_, result.acc,
                                       cfg_.patch_on_detect ? &devs : nullptr);
  }
  result.report.injection = injection;
  result.report.component_flips[static_cast<std::size_t>(fault::Component::kAccumulator)] =
      injection.flipped_bits;
  result.report.component_flips[static_cast<std::size_t>(fault::Component::kActivations)] =
      activation_flips;

  if (result.report.verdict == Verdict::kDetected && cfg_.patch_on_detect) {
    // Algebraic in-place correction: solve fault positions and magnitudes
    // from the plain + weighted deviations and patch the accumulator, at
    // O(m·n + m·k) instead of the O(m·k·n) replay. try_patch re-screens
    // with the full criteria internally; only a clean recheck claims success.
    const obs::ScopedSpan patch_span(obs::SpanKind::kPatch);
    // The patch rebuilds the product of the clean a8, but the screen's row
    // side predicted from the consumed copy: re-aim the struck rows.
    for (const std::size_t i : struck_rows) {
      const std::int64_t shift = row_delta(a8, result.a8_work, i, w_row_basis_);
      devs.rows[i] = util::sat_sub_i64(devs.rows[i], shift);
    }
    const correct::PatchResult patched =
        correct::try_patch(cfg_, predicted_cols, predicted_wcols, a8, w_row_basis_,
                           w_row_wbasis_, std::move(devs), result.acc);
    if (patched.outcome == correct::PatchOutcome::kPatched) {
      result.report.verdict = Verdict::kPatched;
    }
  }
  if (result.report.verdict == Verdict::kDetected && cfg_.recompute_on_detect) {
    // Fault-free replay of the tile; re-screen with the full criteria so a
    // correction is only claimed when the recheck actually comes back clean
    // (a column-only recheck would certify row-detected fault classes it
    // never re-examined). The replay consumes the caller's a8 — on the
    // memory-model path that is a re-fetch of the golden producer copy, so
    // an activation strike is recomputed away just like an accumulator one.
    {
      const obs::ScopedSpan recompute_span(obs::SpanKind::kRecompute);
      tensor::gemm_i8_prepacked(a8, w8_, w_packed_, result.acc);
    }
    const obs::ScopedSpan recheck_span(obs::SpanKind::kRecheck);
    if (screen_accumulator(cfg_, predicted_cols, a8, w_row_basis_, result.acc).verdict ==
        Verdict::kClean) {
      result.report.verdict = Verdict::kRecomputed;
    }
  }

  {
    const obs::ScopedSpan dequant_span(obs::SpanKind::kDequantize);
    tensor::dequantize_acc(result.acc, qa, qw_, result.output);
  }
}

}  // namespace realm::detect
