// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic piece of the library (netlist generation, random initial
// assignments, tie-breaking in heuristics) takes an explicit `Rng` so that a
// single 64-bit seed fully determines a run.  The generator is
// xoshiro256** seeded through SplitMix64, which is fast, has a 256-bit state
// and passes BigCrush; we intentionally avoid std::mt19937 whose seeding and
// distribution behaviour differ across standard-library implementations.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace qbp {

/// SplitMix64 step; used to expand a 64-bit seed into generator state.
/// Public because it is also handy for hashing small integers in tests.
[[nodiscard]] constexpr std::uint64_t split_mix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** engine with convenience sampling helpers.
///
/// Satisfies UniformRandomBitGenerator so it can also be handed to
/// <random> distributions, though the member helpers are preferred for
/// cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9bb1a7d4e0c2f35ULL) noexcept { reseed(seed); }

  /// Re-initialize the state from a 64-bit seed (SplitMix64 expansion).
  void reseed(std::uint64_t seed) noexcept {
    for (auto& word : state_) word = split_mix64(seed);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64 bits.
  result_type operator()() noexcept {
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

  /// Uniform integer in [0, bound).  Precondition: bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.  Precondition: lo <= hi.
  [[nodiscard]] std::int64_t next_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double next_double(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Bernoulli trial with probability p of returning true.
  [[nodiscard]] bool next_bool(double p) noexcept { return next_double() < p; }

  /// Approximately normal variate (mean 0, stddev 1) via sum of uniforms
  /// refined by one Box-Muller-free polar step is overkill here; the
  /// generator is used for size distributions where a 12-uniform Irwin-Hall
  /// approximation is entirely adequate and branch-free.
  [[nodiscard]] double next_gaussian() noexcept {
    double acc = -6.0;
    for (int k = 0; k < 12; ++k) acc += next_double();
    return acc;
  }

  /// Log-normal variate: exp(mu + sigma * N(0,1)).  Used for component sizes
  /// that span ~2 orders of magnitude as in the paper's industrial circuits.
  [[nodiscard]] double next_log_normal(double mu, double sigma) noexcept;

  /// Fisher-Yates shuffle of a span (deterministic given the state).
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t k = values.size(); k > 1; --k) {
      const std::size_t other = static_cast<std::size_t>(next_below(k));
      using std::swap;
      swap(values[k - 1], values[other]);
    }
  }

  /// Pick a uniformly random element index of a non-empty container.
  template <typename Container>
  [[nodiscard]] std::size_t pick_index(const Container& container) noexcept {
    return static_cast<std::size_t>(next_below(container.size()));
  }

  /// A derived, independent stream: deterministic function of this
  /// generator's current state and the stream id.  Used to give each
  /// sub-component of the netlist generator its own stream so that changing
  /// one phase does not perturb the others.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

/// Deterministic random permutation of {0, ..., n-1}.
[[nodiscard]] std::vector<std::int32_t> random_permutation(std::int32_t n, Rng& rng);

}  // namespace qbp
