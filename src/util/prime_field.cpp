#include "util/prime_field.hpp"

#include "util/assert.hpp"

namespace kmm::fp {

std::uint64_t pow(std::uint64_t a, std::uint64_t e) noexcept {
  std::uint64_t base = reduce(a);
  std::uint64_t acc = 1;
  while (e > 0) {
    if (e & 1) acc = mul(acc, base);
    base = mul(base, base);
    e >>= 1;
  }
  return acc;
}

std::uint64_t inv(std::uint64_t a) noexcept {
  KMM_CHECK_MSG(reduce(a) != 0, "division by zero in F_p");
  return pow(a, kMersenne61 - 2);
}

}  // namespace kmm::fp
