#include "util/stats.h"

#include <limits>
#include <stdexcept>
#include <vector>

#include "realm_test.h"

using namespace realm::util;

REALM_TEST(quantile_contract_edges) {
  // Single sample: every q returns it (including the clamped out-of-range qs).
  const std::vector<double> one{42.0};
  REALM_CHECK_EQ(quantile(one, 0.0), 42.0);
  REALM_CHECK_EQ(quantile(one, 0.5), 42.0);
  REALM_CHECK_EQ(quantile(one, 1.0), 42.0);
  REALM_CHECK_EQ(quantile(one, -3.0), 42.0);
  REALM_CHECK_EQ(quantile(one, 7.0), 42.0);

  // q == 0 / q == 1 are exactly min / max; duplicates tie-break harmlessly.
  const std::vector<double> xs{5.0, 1.0, 5.0, 3.0, 5.0, 2.0};
  REALM_CHECK_EQ(quantile(xs, 0.0), 1.0);
  REALM_CHECK_EQ(quantile(xs, 1.0), 5.0);
  REALM_CHECK_EQ(quantile(xs, 0.5), 5.0);  // nearest rank round(0.5 * 5) = index 3
  REALM_CHECK_EQ(quantile(xs, 0.4), 3.0);  // round(0.4 * 5) = index 2
  const std::vector<double> dup(9, 2.5);
  REALM_CHECK_EQ(quantile(dup, 0.25), 2.5);
  REALM_CHECK_EQ(quantile(dup, 0.99), 2.5);

  // Degenerate inputs throw instead of poisoning percentile tables.
  REALM_CHECK_THROWS(quantile(std::vector<double>{}, 0.5), std::invalid_argument);
  REALM_CHECK_THROWS(quantile(one, std::numeric_limits<double>::quiet_NaN()),
                     std::invalid_argument);
}

REALM_TEST(running_stat_edge_cases) {
  // Empty: all accessors are 0.0, never NaN or an infinity sentinel.
  RunningStat empty;
  REALM_CHECK_EQ(empty.count(), std::size_t{0});
  REALM_CHECK_EQ(empty.mean(), 0.0);
  REALM_CHECK_EQ(empty.variance(), 0.0);
  REALM_CHECK_EQ(empty.stddev(), 0.0);
  REALM_CHECK_EQ(empty.min(), 0.0);
  REALM_CHECK_EQ(empty.max(), 0.0);

  // Single sample: variance 0 (not NaN from n-1 == 0), min == max == mean.
  RunningStat one;
  one.add(-7.5);
  REALM_CHECK_EQ(one.count(), std::size_t{1});
  REALM_CHECK_EQ(one.mean(), -7.5);
  REALM_CHECK_EQ(one.variance(), 0.0);
  REALM_CHECK_EQ(one.min(), -7.5);
  REALM_CHECK_EQ(one.max(), -7.5);

  // Duplicates: exactly zero variance (the Welford delta is 0 each step).
  RunningStat dup;
  for (int i = 0; i < 1000; ++i) dup.add(3.25);
  REALM_CHECK_EQ(dup.mean(), 3.25);
  REALM_CHECK_EQ(dup.variance(), 0.0);
}

REALM_TEST(sliding_window_quantiles_track_recent_samples) {
  // Under capacity: quantiles over everything added so far.
  SlidingWindow w(4);
  REALM_CHECK_EQ(w.capacity(), std::size_t{4});
  REALM_CHECK_EQ(w.count(), std::size_t{0});
  w.add(10.0);
  w.add(20.0);
  REALM_CHECK_EQ(w.count(), std::size_t{2});
  REALM_CHECK_EQ(w.quantile(0.0), 10.0);
  REALM_CHECK_EQ(w.quantile(1.0), 20.0);

  // Past capacity the oldest samples fall out: after pushing 30..60 into the
  // 4-slot window, the 10/20 era is gone and the quantiles see only 30..60.
  for (const double x : {30.0, 40.0, 50.0, 60.0}) w.add(x);
  REALM_CHECK_EQ(w.count(), std::size_t{4});
  REALM_CHECK_EQ(w.quantile(0.0), 30.0);  // 10 and 20 evicted
  REALM_CHECK_EQ(w.quantile(1.0), 60.0);

  // A fresh spike dominates p-high immediately — the window is why serving
  // dashboards see regressions instead of history-diluted averages.
  w.add(500.0);
  REALM_CHECK_EQ(w.quantile(1.0), 500.0);
  REALM_CHECK_EQ(w.quantile(0.0), 40.0);  // 30 just slid out

  // Degenerate uses fail loudly.
  REALM_CHECK_THROWS(SlidingWindow(0), std::invalid_argument);
  const SlidingWindow empty(3);
  REALM_CHECK_THROWS(empty.quantile(0.5), std::invalid_argument);
}

REALM_TEST_MAIN()
