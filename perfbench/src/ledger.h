// Stage ledger arithmetic for the repo benchmark: the percentile rule, span
// self time, and per-stage summaries. Pure functions over plain data so the
// benchmark's own tests can pin them on hand-built inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Samples a quantile leaves above it under util::quantile's nearest-rank
/// index round(q * (n - 1)).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The percentile rule: the highest quantile of {0.999, 0.99, 0.9, 0.5} that
/// leaves at least 10 samples beyond it, or 0 when even the median does not.
[[nodiscard]] double supported_quantile(std::size_t n);

/// Nearest-rank quantile (util::quantile); 0 for an empty sample.
[[nodiscard]] double quantile_or_zero(std::span<const double> xs, double q);

/// Median over contiguous segments of `xs` of each segment's q-quantile. The
/// sample is cut into k = max(1, n / min_segment) segments of near-equal size,
/// less one when k is even, so a stall that inflates one segment's tail does
/// not move the result.
[[nodiscard]] double segmented_quantile(std::span<const double> xs, double q,
                                        std::size_t min_segment);

/// Completion rates (1/s) over consecutive blocks of `block` completions:
/// block k's rate is block / (t_k - t_{k-1}), with t_0 = start_ns and t_k the
/// time of the block's last completion. Completions after end_ns and a partial
/// last block are left out.
[[nodiscard]] std::vector<double> block_rates(std::span<const std::int64_t> done_ns,
                                              std::int64_t start_ns, std::int64_t end_ns,
                                              std::size_t block);

/// One duration span: its id, the id of the span that caused it (0 = root),
/// and its interval in nanoseconds.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

/// Self time of every span, in input order: its duration minus the length of
/// the union of its children's intervals, each clipped to the span. A child is
/// any span whose `parent` equals this span's id.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(std::span<const Span> spans);

/// Count, median and tail of one stage, plus its summed time.
struct StageSummary {
  std::size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double self_p50 = 0;
  double total = 0;
  /// Highest quantile the sample supports (supported_quantile(count)); a
  /// value below 0.99 marks p99 as resting on fewer than 10 samples beyond it.
  double support = 0;
};

[[nodiscard]] StageSummary summarize(std::span<const double> durations,
                                     std::span<const double> self = {});

}  // namespace perfbench
