#pragma once
// Multi-level l0-sampler over a universe [0, U) with values in {-1,0,+1}
// (Section 2.3; [10],[17],[32]).
//
// Structure: `copies` independent repetitions; each repetition holds
// `levels` one-sparse cells. Item i participates in levels 0..z(i) of copy
// c, where z(i) is the number of trailing zeros of h_c(i) — i.e. level l
// subsamples the universe at rate 2^-l. If the vector has support s, the
// level near log2(s) is 1-sparse with constant probability, so a query
// succeeds w.h.p. across copies and recovers a (near-)uniform support
// element.
//
// Linearity: samplers built from the same (universe, params, seed) add
// coordinate-wise; sketch(a) + sketch(b) = sketch(a+b) exactly.
//
// All randomness comes from `seed` — machines sharing a seed build
// combinable sketches, which is how the k-machine algorithm ships per-part
// sketches to proxies and sums them there.
//
// Live depth: levels nest (level l subsamples level l-1), so in every copy
// the nonzero cells form a prefix of the levels. Each copy tracks a live
// depth, an upper bound on that prefix: every level at or above it is
// all-zero. reset(), add(), sample() and the wire form touch only the live
// prefix — a singleton part with a few incident edges has a dozen live
// cells out of copies * levels.
//
// Wire form: per copy, one depth word d followed by 3*d cell words
// (s0, s1, s2) for levels 0..d-1, with trailing all-zero cells trimmed so
// equal sketches serialize to equal words (a zero sketch is `copies` words
// of 0). The ledger charges the dense logical size, wire_bits(), whatever
// the physical length.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sketch/one_sparse.hpp"
#include "util/codec.hpp"
#include "util/hashing.hpp"

namespace kmm {

struct L0Params {
  int levels = 16;
  int copies = 3;

  /// Levels to cover a universe of `universe` indices: log2(U) + 2 slack.
  [[nodiscard]] static L0Params for_universe(std::uint64_t universe, int copies = 3);

  [[nodiscard]] int cells() const noexcept { return levels * copies; }
};

class L0Sampler {
 public:
  /// Upper bound on params.copies: the per-copy live depths live in a fixed
  /// inline array, so a sampler owns exactly one heap block (its cells).
  static constexpr int kMaxCopies = 16;

  L0Sampler(std::uint64_t universe, L0Params params, std::uint64_t seed);

  /// Add `value` (±1) at `index`. O(1) expected cell updates per copy.
  /// Per copy c, `r_pow_index_per_copy[c]` must equal r_c^index and
  /// `level_seed_per_copy[c]` must equal level_seed(c); callers with many
  /// updates precompute both (GraphSketchBuilder), casual callers use the
  /// convenience overload below.
  void update(std::uint64_t index, int value, const std::uint64_t* r_pow_index_per_copy,
              const std::uint64_t* level_seed_per_copy);

  /// Convenience overload computing the fingerprint powers (O(log U) field
  /// mults per copy) and level seeds directly.
  void update(std::uint64_t index, int value);

  /// Linear combination; other must share (universe, params, seed).
  void add(const L0Sampler& other);

  /// Linear combination with a sketch in wire form: adds each copy's live
  /// cells straight off `reader` (a depth word, then 3 words per cell, one
  /// bounds check per copy), without materializing the sending sketch.
  /// Exactly equivalent to deserialize() + add(), minus the heap-allocated
  /// intermediate — the proxy-side merge path of the Borůvka engine.
  /// Rejects (KMM_CHECK) a depth word greater than `levels`.
  void add_serialized(WordReader& reader);

  /// Re-zero the live cells and rebind to `seed`, retaining cell storage
  /// (universe/params stay fixed) — how the Borůvka engine reuses one
  /// sampler per machine for every part sketch and proxy-side sum.
  void reset(std::uint64_t seed) noexcept;

  /// Recover some nonzero index, or nullopt if the vector appears empty /
  /// recovery failed everywhere. For a nonzero vector each copy fails with
  /// constant probability, so with the engine's 3 copies a failure is not
  /// rare: a constant fraction of samples retries (measured on G(n, 3n),
  /// k = 8: about 5% of n per connectivity run, 11-12% per MST run).
  [[nodiscard]] std::optional<Recovered> sample() const;

  /// Whole-vector zero test via the level-0 fingerprints of every copy:
  /// exact for the zero vector; a nonzero vector passes with probability
  /// <= (U/p)^copies. Used for algorithm termination and the MST
  /// MWOE confirmation step.
  [[nodiscard]] bool is_zero() const;

  /// Fingerprint base of copy c (needed by power-table builders).
  [[nodiscard]] std::uint64_t fingerprint_base(int copy) const;
  /// Same derivation without an instance — power-table builders rebind to a
  /// new seed without constructing a probe sampler.
  [[nodiscard]] static std::uint64_t fingerprint_base_for(std::uint64_t seed, int copy);
  /// Level-hash seed of copy c.
  [[nodiscard]] std::uint64_t level_seed(int copy) const;
  /// Same derivation without an instance (see fingerprint_base_for).
  [[nodiscard]] static std::uint64_t level_seed_for(std::uint64_t seed, int copy);
  /// Level (0..levels-1) that index participates up to, in copy c.
  [[nodiscard]] int level_of(std::uint64_t index, int copy) const;

  [[nodiscard]] std::uint64_t universe() const noexcept { return universe_; }
  [[nodiscard]] const L0Params& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Logical wire size the ledger charges: every cell at its dense width,
  /// independent of the physical (prefix-truncated) word count.
  [[nodiscard]] std::uint64_t wire_bits() const;

  /// Physical words of the longest wire form (every level live): writers
  /// that must not grow in steady state reserve this much per sketch.
  [[nodiscard]] std::size_t max_serialized_words() const noexcept {
    return static_cast<std::size_t>(params_.copies) + cells_.size() * 3;
  }

  /// Append the wire form (see the file comment) to a writer.
  void serialize(WordWriter& out) const;

  /// Rebuild a sketch from `reader` given matching construction parameters.
  /// Rejects (KMM_CHECK) a depth word greater than `levels`.
  static L0Sampler deserialize(std::uint64_t universe, L0Params params, std::uint64_t seed,
                               WordReader& reader);

 private:
  [[nodiscard]] OneSparseCell& cell(int copy, int level) {
    return cells_[static_cast<std::size_t>(copy) * static_cast<std::size_t>(params_.levels) +
                  static_cast<std::size_t>(level)];
  }
  [[nodiscard]] const OneSparseCell& cell(int copy, int level) const {
    return cells_[static_cast<std::size_t>(copy) * static_cast<std::size_t>(params_.levels) +
                  static_cast<std::size_t>(level)];
  }

  /// Copy c's live depth with trailing all-zero cells dropped: the depth
  /// word of its wire form.
  [[nodiscard]] int trimmed_depth(int copy) const;

  std::uint64_t universe_;
  L0Params params_;
  std::uint64_t seed_;
  std::vector<OneSparseCell> cells_;
  // Live depth per copy: levels >= depth_[c] of copy c are all-zero.
  std::array<std::uint8_t, kMaxCopies> depth_{};
};

}  // namespace kmm
