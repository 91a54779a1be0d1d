#include "util/rng.hpp"

#include <cmath>
#include <numeric>

namespace qbp {

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  std::uint64_t low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) noexcept {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_log_normal(double mu, double sigma) noexcept {
  return std::exp(mu + sigma * next_gaussian());
}

Rng Rng::fork(std::uint64_t stream_id) noexcept {
  std::uint64_t mix = state_[0] ^ (stream_id * 0xd1342543de82ef95ULL);
  mix = split_mix64(mix);
  Rng child(mix ^ state_[3]);
  return child;
}

std::vector<std::int32_t> random_permutation(std::int32_t n, Rng& rng) {
  std::vector<std::int32_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(std::span<std::int32_t>(perm));
  return perm;
}

}  // namespace qbp
