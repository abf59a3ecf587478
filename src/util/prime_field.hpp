#pragma once
// Arithmetic in F_p for the Mersenne prime p = 2^61 - 1.
//
// Used by the l0-sampler fingerprints (sketch/one_sparse.hpp) and by the
// k-wise-independent polynomial hash family (util/hashing.hpp). A Mersenne
// modulus admits branch-light reduction without division.

#include <cstdint>

namespace kmm {

inline constexpr std::uint64_t kMersenne61 = (1ULL << 61) - 1;

namespace fp {

// The canonicalizing steps below are written with mask arithmetic instead
// of conditionals so the sketch-plane inner loops (cell-wise add over
// contiguous 3-word cells) stay branch-free and autovectorizable.

/// Reduce any 64-bit value into [0, p).
[[nodiscard]] constexpr std::uint64_t reduce(std::uint64_t x) noexcept {
  x = (x & kMersenne61) + (x >> 61);
  return x - (kMersenne61 & -static_cast<std::uint64_t>(x >= kMersenne61));
}

[[nodiscard]] constexpr std::uint64_t add(std::uint64_t a, std::uint64_t b) noexcept {
  const std::uint64_t s = a + b;  // a,b < 2^61 so no overflow in 64 bits
  return s - (kMersenne61 & -static_cast<std::uint64_t>(s >= kMersenne61));
}

[[nodiscard]] constexpr std::uint64_t sub(std::uint64_t a, std::uint64_t b) noexcept {
  return a - b + (kMersenne61 & -static_cast<std::uint64_t>(a < b));
}

/// a * b mod p. Inline: the sketch build multiplies fingerprint powers once
/// per half-edge and copy, far too often for an out-of-line call.
[[nodiscard]] inline std::uint64_t mul(std::uint64_t a, std::uint64_t b) noexcept {
  const __uint128_t prod = static_cast<__uint128_t>(a) * b;
  // Split at 61 bits: prod = hi * 2^61 + lo, and 2^61 ≡ 1 (mod p).
  const auto lo = static_cast<std::uint64_t>(prod & kMersenne61);
  const auto hi = static_cast<std::uint64_t>(prod >> 61);
  return reduce(lo + hi);
}

/// a^e mod p by square-and-multiply.
[[nodiscard]] std::uint64_t pow(std::uint64_t a, std::uint64_t e) noexcept;

/// Multiplicative inverse via Fermat (a != 0).
[[nodiscard]] std::uint64_t inv(std::uint64_t a) noexcept;

/// Negation mod p.
[[nodiscard]] constexpr std::uint64_t neg(std::uint64_t a) noexcept {
  return a == 0 ? 0 : kMersenne61 - a;
}

}  // namespace fp
}  // namespace kmm
