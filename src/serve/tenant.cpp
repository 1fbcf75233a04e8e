#include "serve/tenant.h"

#include <stdexcept>
#include <utility>

namespace realm::serve {

TenantBook::TenantBook(std::size_t window) : window_(window) {
  if (window == 0) throw std::invalid_argument("TenantBook: window must be >= 1");
}

TenantBook::State& TenantBook::state_locked(std::string_view tenant) {
  const auto it = book_.find(tenant);
  if (it != book_.end()) return it->second;
  return book_.emplace(std::string(tenant), State(window_)).first->second;
}

void TenantBook::record_submitted(std::string_view tenant) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++state_locked(tenant).submitted;
}

void TenantBook::record_rejected(std::string_view tenant) {
  const std::lock_guard<std::mutex> lock(mu_);
  State& s = state_locked(tenant);
  --s.submitted;
  ++s.rejected;
}

void TenantBook::record_expired(std::string_view tenant) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++state_locked(tenant).expired;
}

void TenantBook::record_failed(std::string_view tenant) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++state_locked(tenant).failed;
}

void TenantBook::record_completed(std::string_view tenant, double latency_ms,
                                  detect::Verdict verdict,
                                  const fault::ComponentFlips& component_flips,
                                  util::TimePoint now) {
  const std::lock_guard<std::mutex> lock(mu_);
  State& s = state_locked(tenant);
  ++s.completed;
  for (std::size_t i = 0; i < fault::kComponentCount; ++i) {
    s.component_flips[i] += component_flips[i];
  }
  if (verdict != detect::Verdict::kClean) ++s.requests_faulty;
  if (verdict == detect::Verdict::kPatched) ++s.requests_patched;
  if (verdict == detect::Verdict::kRecomputed) ++s.requests_recomputed;
  if (verdict == detect::Verdict::kDetected) ++s.requests_detected;
  s.latency_window.add(latency_ms);
  s.completed_at.push_back(now);
  while (s.completed_at.size() > window_) s.completed_at.pop_front();
}

void TenantBook::reset_windows() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : book_) {
    State& s = entry.second;
    s.latency_window = util::SlidingWindow(window_);
    s.completed_at.clear();
  }
}

TenantStats TenantBook::stats(std::string_view tenant) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = book_.find(tenant);
  if (it == book_.end()) {
    throw std::invalid_argument("TenantBook: unknown tenant '" + std::string(tenant) + "'");
  }
  const State& s = it->second;
  TenantStats out;
  out.tenant = it->first;
  out.submitted = s.submitted;
  out.rejected = s.rejected;
  out.completed = s.completed;
  out.expired = s.expired;
  out.failed = s.failed;
  out.requests_faulty = s.requests_faulty;
  out.requests_patched = s.requests_patched;
  out.requests_recomputed = s.requests_recomputed;
  out.requests_detected = s.requests_detected;
  out.component_flips = s.component_flips;
  out.window_count = s.latency_window.count();
  if (out.window_count > 0) {
    out.window_p50_ms = s.latency_window.quantile(0.50);
    out.window_p99_ms = s.latency_window.quantile(0.99);
  }
  if (s.completed_at.size() >= 2) {
    const double span_s = util::seconds_between(s.completed_at.front(), s.completed_at.back());
    if (span_s > 0) {
      out.req_per_s = static_cast<double>(s.completed_at.size() - 1) / span_s;
    }
  }
  return out;
}

std::vector<std::string> TenantBook::tenants() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(book_.size());
  for (const auto& entry : book_) names.push_back(entry.first);
  return names;
}

}  // namespace realm::serve
