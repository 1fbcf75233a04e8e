#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "util/stats.h"

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto idx = static_cast<std::size_t>(std::llround(q * static_cast<double>(n - 1)));
  return n - 1 - idx;
}

double supported_quantile(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0;
}

double quantile_or_zero(std::span<const double> xs, double q) {
  return xs.empty() ? 0.0 : realm::util::quantile(xs, q);
}

double segmented_quantile(std::span<const double> xs, double q, std::size_t min_segment) {
  if (xs.empty()) return 0;
  std::size_t k = std::max<std::size_t>(1, xs.size() / std::max<std::size_t>(1, min_segment));
  if (k % 2 == 0) --k;  // an odd count has a middle segment
  std::vector<double> per_segment;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t lo = xs.size() * i / k;
    const std::size_t hi = xs.size() * (i + 1) / k;
    per_segment.push_back(realm::util::quantile(xs.subspan(lo, hi - lo), q));
  }
  return realm::util::quantile(per_segment, 0.5);
}

std::vector<double> block_rates(std::span<const std::int64_t> done_ns, std::int64_t start_ns,
                                std::int64_t end_ns, std::size_t block) {
  block = std::max<std::size_t>(1, block);
  std::vector<double> rates;
  std::int64_t prev = start_ns;
  for (std::size_t i = block; i <= done_ns.size(); i += block) {
    const std::int64_t t = done_ns[i - 1];
    if (t > end_ns) break;
    if (t > prev) rates.push_back(static_cast<double>(block) * 1e9 / static_cast<double>(t - prev));
    prev = t;
  }
  return rates;
}

std::vector<std::int64_t> self_times_ns(std::span<const Span> spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::vector<std::int64_t> out(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.t1_ns - s.t0_ns;
    iv.clear();
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const std::size_t c : it->second) {
        const std::int64_t a = std::max(spans[c].t0_ns, s.t0_ns);
        const std::int64_t b = std::min(spans[c].t1_ns, s.t1_ns);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_a = 0;
    std::int64_t run_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    out[i] = dur - covered;
  }
  return out;
}

StageSummary summarize(std::span<const double> durations, std::span<const double> self) {
  StageSummary s;
  s.count = durations.size();
  s.p50 = quantile_or_zero(durations, 0.50);
  s.p99 = quantile_or_zero(durations, 0.99);
  s.self_p50 = quantile_or_zero(self, 0.50);
  s.total = std::accumulate(durations.begin(), durations.end(), 0.0);
  s.support = supported_quantile(durations.size());
  return s;
}

}  // namespace perfbench
