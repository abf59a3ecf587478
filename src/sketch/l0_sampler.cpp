#include "sketch/l0_sampler.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "util/assert.hpp"
#include "util/prime_field.hpp"

namespace kmm {

L0Params L0Params::for_universe(std::uint64_t universe, int copies) {
  L0Params p;
  p.copies = copies;
  p.levels = 2;
  while ((1ULL << p.levels) < universe && p.levels < 62) ++p.levels;
  p.levels += 2;  // slack so sparse tails still isolate single items
  return p;
}

L0Sampler::L0Sampler(std::uint64_t universe, L0Params params, std::uint64_t seed)
    : universe_(universe), params_(params), seed_(seed) {
  KMM_CHECK(universe >= 1 && params.levels >= 1 && params.copies >= 1);
  KMM_CHECK_MSG(params.copies <= kMaxCopies, "l0 sampler copies above kMaxCopies");
  KMM_CHECK_MSG(params.levels <= std::numeric_limits<std::uint8_t>::max(),
                "l0 sampler levels exceed the depth counter");
  cells_.resize(static_cast<std::size_t>(params_.cells()));
}

std::uint64_t L0Sampler::fingerprint_base(int copy) const {
  return fingerprint_base_for(seed_, copy);
}

std::uint64_t L0Sampler::fingerprint_base_for(std::uint64_t seed, int copy) {
  // Nonzero field element derived from the shared seed.
  return 2 + split3(seed, 0xf1a9, static_cast<std::uint64_t>(copy)) % (kMersenne61 - 2);
}

std::uint64_t L0Sampler::level_seed(int copy) const { return level_seed_for(seed_, copy); }

std::uint64_t L0Sampler::level_seed_for(std::uint64_t seed, int copy) {
  return split3(seed, 0x1e7e, static_cast<std::uint64_t>(copy));
}

int L0Sampler::level_of(std::uint64_t index, int copy) const {
  return geometric_level(split(level_seed(copy), index), params_.levels - 1);
}

void L0Sampler::update(std::uint64_t index, int value,
                       const std::uint64_t* r_pow_index_per_copy,
                       const std::uint64_t* level_seed_per_copy) {
  KMM_CHECK_MSG(index < universe_, "l0 update outside universe");
  KMM_CHECK_MSG(value == 1 || value == -1, "l0 values must be +-1");
  const std::uint64_t index_mod_p = fp::reduce(index);
  for (int c = 0; c < params_.copies; ++c) {
    const int top = geometric_level(split(level_seed_per_copy[c], index), params_.levels - 1);
    const std::uint64_t rp = r_pow_index_per_copy[c];
    OneSparseCell* row = &cell(c, 0);
    for (int l = 0; l <= top; ++l) row[l].update_reduced(index_mod_p, value, rp);
    auto& depth = depth_[static_cast<std::size_t>(c)];
    depth = std::max(depth, static_cast<std::uint8_t>(top + 1));
  }
}

void L0Sampler::update(std::uint64_t index, int value) {
  std::array<std::uint64_t, kMaxCopies> powers{};
  std::array<std::uint64_t, kMaxCopies> level_seeds{};
  for (int c = 0; c < params_.copies; ++c) {
    powers[static_cast<std::size_t>(c)] = fp::pow(fingerprint_base(c), index);
    level_seeds[static_cast<std::size_t>(c)] = level_seed(c);
  }
  update(index, value, powers.data(), level_seeds.data());
}

void L0Sampler::add(const L0Sampler& other) {
  KMM_CHECK_MSG(universe_ == other.universe_ && seed_ == other.seed_ &&
                    params_.levels == other.params_.levels &&
                    params_.copies == other.params_.copies,
                "cannot combine sketches with different construction");
  for (int c = 0; c < params_.copies; ++c) {
    const auto i = static_cast<std::size_t>(c);
    OneSparseCell* row = &cell(c, 0);
    const OneSparseCell* other_row = &other.cell(c, 0);
    for (int l = 0; l < other.depth_[i]; ++l) row[l].add(other_row[l]);
    depth_[i] = std::max(depth_[i], other.depth_[i]);
  }
}

void L0Sampler::add_serialized(WordReader& reader) {
  for (int c = 0; c < params_.copies; ++c) {
    const std::uint64_t wire_depth = reader.u64();
    KMM_CHECK_MSG(wire_depth <= static_cast<std::uint64_t>(params_.levels),
                  "l0 wire depth exceeds levels");
    const auto depth = static_cast<int>(wire_depth);
    const auto raw = reader.span(static_cast<std::size_t>(depth) * 3);
    const std::uint64_t* words = raw.data();
    OneSparseCell* row = &cell(c, 0);
    for (int l = 0; l < depth; ++l) {
      row[l].add_raw(static_cast<std::int64_t>(words[0]), words[1], words[2]);
      words += 3;
    }
    auto& live = depth_[static_cast<std::size_t>(c)];
    live = std::max(live, static_cast<std::uint8_t>(depth));
  }
}

void L0Sampler::reset(std::uint64_t seed) noexcept {
  seed_ = seed;
  for (int c = 0; c < params_.copies; ++c) {
    auto& depth = depth_[static_cast<std::size_t>(c)];
    OneSparseCell* row = &cell(c, 0);
    std::fill(row, row + depth, OneSparseCell{});
    depth = 0;
  }
}

std::optional<Recovered> L0Sampler::sample() const {
  // Scan levels from the full vector downward in sampling rate; the first
  // verified 1-sparse cell yields the sample. Copies give independence.
  // Levels past the live depth are all-zero and cannot recover anything.
  for (int c = 0; c < params_.copies; ++c) {
    const std::uint64_t r = fingerprint_base(c);
    for (int l = 0; l < depth_[static_cast<std::size_t>(c)]; ++l) {
      if (auto rec = cell(c, l).recover(r, universe_)) return rec;
    }
  }
  return std::nullopt;
}

bool L0Sampler::is_zero() const {
  // Level 0 of each copy sees every index; its fingerprint s2 is a random
  // polynomial evaluation, nonzero w.h.p. for nonzero vectors.
  for (int c = 0; c < params_.copies; ++c) {
    if (cell(c, 0).s2() != 0 || cell(c, 0).s0() != 0) return false;
  }
  return true;
}

std::uint64_t L0Sampler::wire_bits() const {
  return static_cast<std::uint64_t>(params_.cells()) * OneSparseCell::wire_bits(universe_);
}

int L0Sampler::trimmed_depth(int copy) const {
  int depth = depth_[static_cast<std::size_t>(copy)];
  while (depth > 0 && cell(copy, depth - 1).all_zero()) --depth;
  return depth;
}

void L0Sampler::serialize(WordWriter& out) const {
  for (int c = 0; c < params_.copies; ++c) {
    const int depth = trimmed_depth(c);
    out.u64(static_cast<std::uint64_t>(depth));
    for (int l = 0; l < depth; ++l) {
      const OneSparseCell& live = cell(c, l);
      out.u64(static_cast<std::uint64_t>(live.s0()));
      out.u64(live.s1());
      out.u64(live.s2());
    }
  }
}

L0Sampler L0Sampler::deserialize(std::uint64_t universe, L0Params params, std::uint64_t seed,
                                 WordReader& reader) {
  // Adding a wire form to a zero sketch reproduces it exactly: add_raw
  // reduces s1/s2 as from_raw would.
  L0Sampler s(universe, params, seed);
  s.add_serialized(reader);
  return s;
}

}  // namespace kmm
