// Tests for the benchmark's own arithmetic: the percentile rule and span self
// time. Run with `python3 perfbench/run.py --self-test`.
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "ledger.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

void percentile_rule() {
  using perfbench::samples_beyond;
  using perfbench::supported_quantile;
  // Nearest rank round(q * (n - 1)): at n = 1000 p99 sits at index 989, with
  // exactly 10 samples above it.
  EXPECT(samples_beyond(1000, 0.99) == 10);
  EXPECT(samples_beyond(0, 0.5) == 0);
  EXPECT(samples_beyond(1, 0.5) == 0);
  EXPECT(samples_beyond(21, 0.5) == 10);
  EXPECT(supported_quantile(0) == 0.0);
  EXPECT(supported_quantile(20) == 0.0);  // the median sits at index 10 of 0..19: 9 above
  EXPECT(supported_quantile(21) == 0.5);
  EXPECT(supported_quantile(96) == 0.5);  // p90 at index 86 of 0..95: 9 above
  EXPECT(supported_quantile(100) == 0.9);
  EXPECT(supported_quantile(940) == 0.9);
  EXPECT(supported_quantile(1000) == 0.99);
  EXPECT(supported_quantile(9000) == 0.99);
  EXPECT(supported_quantile(10000) == 0.999);
  // The rule is monotone: more samples never support a lower percentile.
  double prev = 0;
  for (std::size_t n = 0; n < 12000; ++n) {
    const double q = supported_quantile(n);
    EXPECT(q >= prev);
    EXPECT(q == 0 || samples_beyond(n, q) >= 10);
    prev = q;
  }
}

void self_time_nested() {
  using perfbench::Span;
  // request [0,100) holds queued [0,20) and two tiles [20,60) and [55,95);
  // tile 1 holds gemm [22,40) and screen [40,50) and a child that runs past
  // its end [58,70) (clipped to 60); tile 2 holds gemm [60,80).
  const std::vector<Span> spans = {
      {1, 0, 0, 100},   // request
      {2, 1, 0, 20},    // queued
      {3, 1, 20, 60},   // tile 1
      {4, 1, 55, 95},   // tile 2 (overlaps tile 1 by 5)
      {5, 3, 22, 40},   // gemm in tile 1
      {6, 3, 40, 50},   // screen in tile 1
      {7, 3, 58, 70},   // clipped to [58,60)
      {8, 4, 60, 80},   // gemm in tile 2
  };
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  EXPECT(self.size() == spans.size());
  EXPECT(self[0] == 100 - 95);             // children cover [0,95) as a union
  EXPECT(self[1] == 20);                   // leaf
  EXPECT(self[2] == 40 - (18 + 10 + 2));   // 10
  EXPECT(self[3] == 40 - 20);
  EXPECT(self[4] == 18);
  EXPECT(self[7] == 20);
  // A span with no children keeps its whole duration; one wholly covered
  // keeps nothing.
  const std::vector<Span> covered = {{10, 0, 0, 10}, {11, 10, 0, 10}, {12, 10, 2, 5}};
  const std::vector<std::int64_t> s2 = perfbench::self_times_ns(covered);
  EXPECT(s2[0] == 0);
  EXPECT(s2[1] == 10);
}

void robust_estimators() {
  // 3000 samples in three segments; a stall inflates the middle segment's
  // tail, which the median over segments ignores.
  std::vector<double> xs(3000, 1.0);
  for (std::size_t i = 0; i < 1000; ++i) xs[i] = static_cast<double>(i % 100);
  for (std::size_t i = 1000; i < 2000; ++i) {
    xs[i] = i % 100 < 5 ? 1000.0 : static_cast<double>(i % 100);
  }
  for (std::size_t i = 2000; i < 3000; ++i) xs[i] = static_cast<double>(i % 100);
  EXPECT(perfbench::segmented_quantile(xs, 0.99, 1000) == 98.0);
  EXPECT(perfbench::segmented_quantile(xs, 0.99, 3000) == 1000.0);  // one segment: pooled
  EXPECT(perfbench::segmented_quantile(xs, 0.99, 5000) == 1000.0);  // fewer than min: pooled
  EXPECT(perfbench::segmented_quantile({}, 0.99, 10) == 0.0);
  // Two segments' worth is pooled: an even count has no middle segment.
  EXPECT(perfbench::segmented_quantile(std::span<const double>(xs).first(2000), 0.99, 1000) ==
         1000.0);

  // Blocks of 2 completions starting at t=0: rates 2/1, 2/1, 2/4 (a stall),
  // 2/1 per second; the completion at 11 s lies past the end and is left out.
  const std::vector<std::int64_t> done = {500'000'000, 1'000'000'000, 1'500'000'000,
                                          2'000'000'000, 3'000'000'000, 6'000'000'000,
                                          6'500'000'000, 7'000'000'000, 11'000'000'000};
  const std::vector<double> rates = perfbench::block_rates(done, 0, 10'000'000'000, 2);
  EXPECT((rates == std::vector<double>{2.0, 2.0, 0.5, 2.0}));
  EXPECT(perfbench::quantile_or_zero(rates, 0.5) == 2.0);
  EXPECT(perfbench::block_rates(done, 0, 10'000'000'000, 100).empty());
}

void summary() {
  const std::vector<double> d = {5, 1, 4, 2, 3};
  const perfbench::StageSummary s = perfbench::summarize(d, d);
  EXPECT(s.count == 5);
  EXPECT(s.p50 == 3);
  EXPECT(s.p99 == 5);
  EXPECT(s.total == 15);
  EXPECT(s.self_p50 == 3);
  const perfbench::StageSummary empty = perfbench::summarize({});
  EXPECT(empty.count == 0 && empty.p50 == 0 && empty.p99 == 0);
}

}  // namespace

int main() {
  percentile_rule();
  self_time_nested();
  robust_estimators();
  summary();
  if (g_failures == 0) std::printf("perfbench ledger tests: ok\n");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
