#include "util/hashing.hpp"

#include "util/assert.hpp"

namespace kmm {

PolynomialHash::PolynomialHash(int d, Rng& rng) {
  KMM_CHECK(d >= 1);
  coeff_.resize(static_cast<std::size_t>(d));
  for (auto& c : coeff_) c = rng.next_below(kMersenne61);
}

std::uint64_t PolynomialHash::operator()(std::uint64_t x) const noexcept {
  const std::uint64_t xr = fp::reduce(x);
  std::uint64_t acc = 0;
  // Horner: acc = (((c_{d-1}) x + c_{d-2}) x + ...) + c_0
  for (auto it = coeff_.rbegin(); it != coeff_.rend(); ++it) {
    acc = fp::add(fp::mul(acc, xr), *it);
  }
  return acc;
}

}  // namespace kmm
