#pragma once
// Linear graph sketches over incidence vectors (Section 2.3).
//
// Vertex u's incidence vector a_u lives on the edge-index universe [0, n^2):
//   a_u[(x,y)] = +1 if u = x < y and (x,y) ∈ E,
//                -1 if x < y = u and (x,y) ∈ E.
// Summing a_u over a vertex set S cancels intra-S edges, leaving exactly
// the outgoing edges of S — the property the connectivity algorithm rides.
//
// GraphSketchBuilder fixes the shared per-phase randomness (seed) and
// precomputes, per sampler copy, the level-hash seed and fingerprint power
// tables
//   r^(x*n + y) = (r^n)^x * r^y
// so that building a sketch costs O(1) field mults and one hash per copy
// per incident edge.
//
// The weight threshold (`max_weight`) implements the MST elimination step
// of Section 3.1: entries for edges heavier than the threshold are zeroed
// *at construction*, a purely local operation for the home machine.

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "cluster/distributed_graph.hpp"
#include "sketch/l0_sampler.hpp"

namespace kmm {

inline constexpr Weight kNoWeightLimit = std::numeric_limits<Weight>::max();

class GraphSketchBuilder {
 public:
  /// `seed` is the shared per-(phase, iteration) sketch seed; `copies`
  /// trades failure probability against sketch size.
  GraphSketchBuilder(std::size_t n, std::uint64_t seed, int copies = 3);

  /// Rebind to a new per-iteration seed: recomputes the per-copy level
  /// seeds and the fingerprint power tables in place (O(n * copies) field
  /// mults, zero allocations), so a
  /// long-lived builder costs no heap traffic per iteration. n and copies
  /// are fixed at construction.
  void rebind(std::uint64_t seed);

  /// Sketch of a single vertex's incidence vector, restricted to edges of
  /// weight <= max_weight.
  [[nodiscard]] L0Sampler sketch_vertex(const DistributedGraph& dg, Vertex u,
                                        Weight max_weight = kNoWeightLimit) const;

  /// Combined sketch of a component part (sum over the part's vertices),
  /// built directly without materializing per-vertex sketches.
  [[nodiscard]] L0Sampler sketch_part(const DistributedGraph& dg,
                                      std::span<const Vertex> part,
                                      Weight max_weight = kNoWeightLimit) const;

  /// Allocation-free flavor: accumulate the part into a caller-provided
  /// (typically pooled) sampler, using caller-owned scratch for the per-edge
  /// fingerprint powers. `sink` must be zeroed and bound to this builder's
  /// (universe, params, seed); `power_scratch` is resized to `copies` once
  /// and reused across calls. The engine's SS1 hot path.
  void accumulate_part(const DistributedGraph& dg, std::span<const Vertex> part,
                       Weight max_weight, L0Sampler& sink,
                       std::vector<std::uint64_t>& power_scratch) const;

  /// An empty sketch with this builder's construction parameters
  /// (accumulator for proxy-side summation / deserialization target).
  [[nodiscard]] L0Sampler empty_sketch() const;

  /// Decode a sampled edge index back to endpoints (x < y).
  [[nodiscard]] std::pair<Vertex, Vertex> decode(std::uint64_t index) const;

  [[nodiscard]] std::uint64_t universe() const noexcept { return universe_; }
  [[nodiscard]] const L0Params& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  /// `powers` is caller scratch with one slot per sampler copy — hoisted out
  /// so a part's (or a whole iteration's) vertices share one buffer instead
  /// of re-allocating it per vertex.
  void accumulate(const DistributedGraph& dg, Vertex u, Weight max_weight, L0Sampler& sink,
                  std::uint64_t* powers) const;

  std::size_t n_;
  std::uint64_t universe_;
  L0Params params_;
  std::uint64_t seed_;
  // Per copy: L0Sampler::level_seed_for(seed_, c), hoisted out of the
  // per-update level hash.
  std::vector<std::uint64_t> level_seeds_;
  // Vertex-major power tables: pow_low_[v * copies + c] = r_c^v and
  // pow_high_[v * copies + c] = (r_c^n)^v, so one cache line serves every
  // copy of a neighbor's powers.
  std::vector<std::uint64_t> pow_low_;
  std::vector<std::uint64_t> pow_high_;
};

}  // namespace kmm
