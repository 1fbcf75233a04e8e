// Submission-side vocabulary of the async serving API: priorities, deadlines,
// tickets, and the ticket lifecycle states. Kept header-only and dependency-
// light so callers can talk about tickets without pulling in the engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "util/clock.h"

namespace realm::serve {

/// Scheduling lane of a request. Lower is more urgent; the engine's workers
/// drain lanes in strict priority order (kInteractive starves kBatch by
/// design).
enum class Priority : std::uint8_t {
  kInteractive = 0,  ///< latency-sensitive foreground traffic
  kNormal = 1,       ///< default lane
  kBatch = 2,        ///< throughput traffic; yields to everything above
};

/// Number of priority lanes (one per Priority value).
inline constexpr std::size_t kPriorityLanes = 3;

[[nodiscard]] constexpr std::size_t lane_of(Priority p) noexcept {
  return static_cast<std::size_t>(p);
}

/// Tenant requests are accounted under when SubmitOptions names none.
inline constexpr std::string_view kDefaultTenant = "default";

/// Lifecycle of a submitted request. Terminal states are kDone, kExpired and
/// kFailed; poll() reports these, wait() additionally rethrows kFailed's
/// stored exception.
enum class TicketState : std::uint8_t {
  kQueued = 0,   ///< admitted, parked in a priority lane
  kRunning = 1,  ///< claimed by a worker, GEMM in flight
  kDone = 2,     ///< response ready (verdict may still be kDetected!)
  kExpired = 3,  ///< deadline passed before a worker claimed it; never computed
  kFailed = 4,   ///< worker threw; wait() rethrows the exception
};

/// Handle returned by submit(). Value type, trivially copyable; id 0 is the
/// invalid ticket (real ids start at 1).
struct Ticket {
  std::uint64_t id = 0;

  [[nodiscard]] constexpr bool valid() const noexcept { return id != 0; }
  friend constexpr bool operator==(Ticket a, Ticket b) noexcept { return a.id == b.id; }
};

/// Per-submission scheduling knobs. Everything defaults to "plain request":
/// default tenant, normal priority, no deadline, engine-chosen fault stream.
struct SubmitOptions {
  /// Accounting key; copied at submit, so the view need not outlive the call.
  std::string_view tenant = kDefaultTenant;
  Priority priority = Priority::kNormal;
  /// Expiry instant against the engine's clock: a request still queued when
  /// now() > deadline is retired as kExpired without touching the GEMM. A
  /// request already claimed by a worker runs to completion. nullopt = never.
  std::optional<util::TimePoint> deadline;
  /// Fault-stream tag: the request's RNG is seed-fork(stream), fork(tile).
  /// Defaults to the engine's submission sequence number (0, 1, 2, ...) —
  /// deterministic for a single-threaded submitter. Pin it explicitly to make
  /// outputs independent of submission interleaving across threads, or to
  /// replay a specific request.
  std::optional<std::uint64_t> stream;
};

}  // namespace realm::serve
