// Deterministic pseudo-random number generation for fault-injection studies.
//
// Every stochastic component in ReaLM (weight synthesis, bit-flip sampling,
// workload generation) draws from an explicitly seeded realm::util::Rng so
// that experiments are reproducible run-to-run. The generator is
// xoshiro256** seeded through splitmix64, which is both fast and has
// well-understood statistical quality — important because bit-error-rate
// sweeps sample billions of Bernoulli trials.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace realm::util {

/// splitmix64 step; used to expand a single 64-bit seed into a full
/// xoshiro256 state and as a cheap stateless hash for stream derivation.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator so it can be handed to <random>
/// facilities, but the members below avoid libstdc++ distribution objects to
/// keep results identical across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xabcdef1234567890ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derive an independent stream for a named sub-experiment. Streams created
  /// with distinct tags from the same parent are statistically independent.
  [[nodiscard]] Rng fork(std::uint64_t tag) const noexcept {
    std::uint64_t sm = state_[0] ^ (tag * 0x9e3779b97f4a7c15ULL) ^ state_[3];
    return Rng(splitmix64(sm));
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return std::numeric_limits<result_type>::max(); }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection.
  std::uint64_t uniform_u64(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    // Rejection loop terminates quickly: worst-case acceptance ~50%.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      const unsigned __int128 m = static_cast<unsigned __int128>(r) * bound;
      if (static_cast<std::uint64_t>(m) >= threshold) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(uniform_u64(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Box–Muller with caching of the second variate.
  double normal() noexcept {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * kPi * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

  double normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

  /// Binomial(n, p) sample. Exact inversion for small n·p, normal
  /// approximation with continuity correction for large counts — the regime
  /// that matters when sampling the number of bit flips in a 10^8-bit tile.
  std::uint64_t binomial(std::uint64_t n, double p) noexcept;

  /// Zipf-distributed integer in [0, n) with exponent s (used by the
  /// synthetic-corpus generator to mimic natural token frequency skew).
  std::uint64_t zipf(std::uint64_t n, double s) noexcept;

  /// Sample k distinct indices from [0, n) (Floyd's algorithm); order is
  /// unspecified. Requires k <= n.
  [[nodiscard]] std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n,
                                                                      std::uint64_t k) noexcept;

 private:
  static constexpr double kPi = 3.14159265358979323846;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace realm::util
