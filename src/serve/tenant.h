// Per-tenant accounting for the async serving engine: every submitted ticket
// is attributed to a tenant (SubmitOptions.tenant, default "default") and the
// TenantBook keeps the counters a multi-tenant operator actually pages on —
// admission outcomes, deadline losses, latency quantiles over a sliding
// window, sustained req/s, and fault/correction rates from the checksum
// screen's verdicts.
//
// Thread safety: TenantBook is internally synchronized (one mutex; every
// record_* is a counter bump plus at most a ring-buffer write, so it is noise
// next to the multi-millisecond GEMM each record represents). stats() returns
// a snapshot by value — the live State never escapes the lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "detect/detect.h"
#include "fault/fault.h"
#include "util/clock.h"
#include "util/stats.h"

namespace realm::serve {

/// Value snapshot of one tenant's accounting, taken under the book's lock.
struct TenantStats {
  std::string tenant;

  // Admission / lifecycle counters.
  std::uint64_t submitted = 0;  ///< admitted into the queue
  std::uint64_t rejected = 0;   ///< try_submit refused (budget exhausted)
  std::uint64_t completed = 0;  ///< computed to a verdict
  std::uint64_t expired = 0;    ///< deadline passed while queued
  std::uint64_t failed = 0;     ///< worker threw

  // Verdict counters over completed requests. The worst-wins merge means a
  // "patched" request healed every faulty tile via the cheap in-place patch,
  // while "recomputed" means at least one tile needed the full replay.
  std::uint64_t requests_faulty = 0;      ///< verdict != kClean
  std::uint64_t requests_patched = 0;     ///< verdict == kPatched
  std::uint64_t requests_recomputed = 0;  ///< verdict == kRecomputed
  std::uint64_t requests_detected = 0;    ///< verdict == kDetected (uncorrected)
  /// Requests healed by either correction mode.
  [[nodiscard]] std::uint64_t requests_corrected() const noexcept {
    return requests_patched + requests_recomputed;
  }

  /// Memory-hierarchy fault exposure over completed requests, indexed by
  /// fault::Component: kAccumulator/kActivations bits landed on this
  /// tenant's requests (load/rest-time weight and panel faults are grid
  /// state, not per-tenant — see TileGrid::memory_flips()).
  fault::ComponentFlips component_flips{};

  // Sliding-window views (window span = ServeConfig::stats_window); the
  // quantiles are exact over the window (util::SlidingWindow).
  double window_p50_ms = 0;
  double window_p99_ms = 0;
  std::size_t window_count = 0;
  /// Completions per second over the completion-time window; 0 until two
  /// completions land in the window (and whenever the clock stands still).
  double req_per_s = 0;

  /// Fraction of corrected requests healed by the cheap in-place patch (the
  /// latency-cliff avoidance rate the serving gate watches).
  [[nodiscard]] double patch_rate() const noexcept {
    return requests_corrected() ? static_cast<double>(requests_patched) /
                                      static_cast<double>(requests_corrected())
                                : 0.0;
  }
};

class TenantBook {
 public:
  /// @param window sliding-window span (samples) for latency quantiles and
  ///               the req/s rate; must be >= 1.
  explicit TenantBook(std::size_t window);

  /// Counted before the ticket can be claimed, so a completion never
  /// outruns its own submission.
  void record_submitted(std::string_view tenant);
  /// Admission refused a ticket already counted by record_submitted: moves
  /// it from submitted to rejected.
  void record_rejected(std::string_view tenant);
  void record_expired(std::string_view tenant);
  void record_failed(std::string_view tenant);
  /// One computed request: latency sample, screen verdict, per-component
  /// memory-fault tallies (BatchVerdict::component_flips), completion time
  /// (feeds the req/s window; pass the engine clock's now()).
  void record_completed(std::string_view tenant, double latency_ms, detect::Verdict verdict,
                        const fault::ComponentFlips& component_flips, util::TimePoint now);

  /// Reset every tenant's sliding-window state — the latency-quantile window
  /// and the req/s completion-time window — in one critical section; the
  /// cumulative counters are append-only history and stay.
  /// Part of ServeEngine::reset_stats()'s contract: a concurrent stats()
  /// observes the book either fully pre-reset or fully post-reset.
  void reset_windows();

  /// Snapshot one tenant. Throws std::invalid_argument for a tenant that has
  /// never been recorded — a typo'd dashboard key should fail loudly.
  [[nodiscard]] TenantStats stats(std::string_view tenant) const;

  /// Every tenant ever recorded, sorted.
  [[nodiscard]] std::vector<std::string> tenants() const;

 private:
  struct State {
    explicit State(std::size_t window) : latency_window(window) {}
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t expired = 0;
    std::uint64_t failed = 0;
    std::uint64_t requests_faulty = 0;
    std::uint64_t requests_patched = 0;
    std::uint64_t requests_recomputed = 0;
    std::uint64_t requests_detected = 0;
    fault::ComponentFlips component_flips{};
    util::SlidingWindow latency_window;
    std::deque<util::TimePoint> completed_at;  ///< bounded by the window span
  };

  /// Find-or-create; callers must hold mu_.
  State& state_locked(std::string_view tenant);

  const std::size_t window_;
  mutable std::mutex mu_;
  std::map<std::string, State, std::less<>> book_;
};

}  // namespace realm::serve
