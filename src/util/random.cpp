#include "util/random.hpp"

#include "util/assert.hpp"

namespace kmm {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // Seed the four lanes from successive SplitMix64 outputs, as recommended
  // by the xoshiro authors; guarantees a nonzero state.
  std::uint64_t sm = seed;
  for (auto& lane : s_) {
    sm += 0x9e3779b97f4a7c15ULL;
    lane = splitmix64(sm);
  }
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  KMM_CHECK(bound > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) noexcept {
  KMM_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? next() : next_below(span));
}

double Rng::next_double() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) noexcept { return next_double() < p; }

}  // namespace kmm
