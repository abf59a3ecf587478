#include "sketch/one_sparse.hpp"

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

void OneSparseCell::add(const OneSparseCell& other) noexcept {
  s0_ += other.s0_;
  s1_ = fp::add(s1_, other.s1_);
  s2_ = fp::add(s2_, other.s2_);
}

std::optional<Recovered> OneSparseCell::recover(std::uint64_t r,
                                                std::uint64_t universe) const noexcept {
  if (s0_ != 1 && s0_ != -1) return std::nullopt;
  // Candidate index: s1 if value = +1, -s1 if value = -1.
  const std::uint64_t idx = s0_ == 1 ? s1_ : fp::neg(s1_);
  if (idx >= universe) return std::nullopt;
  // Fingerprint verification: s2 must equal s0 * r^idx.
  const std::uint64_t expect = fp::pow(r, idx);
  const std::uint64_t want = s0_ == 1 ? expect : fp::neg(expect);
  if (s2_ != want) return std::nullopt;
  return Recovered{idx, s0_ == 1 ? 1 : -1};
}

OneSparseCell OneSparseCell::from_raw(std::int64_t s0, std::uint64_t s1,
                                      std::uint64_t s2) noexcept {
  OneSparseCell c;
  c.s0_ = s0;
  c.s1_ = fp::reduce(s1);
  c.s2_ = fp::reduce(s2);
  return c;
}

std::uint64_t OneSparseCell::wire_bits(std::uint64_t universe) noexcept {
  // s1, s2: field elements (61 bits each); s0: signed counter bounded by
  // the universe size.
  return 61 + 61 + bits_for(2 * universe + 1) + 1;
}

}  // namespace kmm
