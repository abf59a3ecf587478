#include "sketch/graph_sketch.hpp"

#include "util/assert.hpp"
#include "util/prime_field.hpp"

namespace kmm {

GraphSketchBuilder::GraphSketchBuilder(std::size_t n, std::uint64_t seed, int copies)
    : n_(n),
      universe_(static_cast<std::uint64_t>(n) * n),
      params_(L0Params::for_universe(static_cast<std::uint64_t>(n) * n, copies)),
      seed_(seed) {
  KMM_CHECK(n >= 2);
  const auto per_vertex = static_cast<std::size_t>(params_.copies);
  level_seeds_.resize(per_vertex);
  pow_low_.resize(n * per_vertex);
  pow_high_.resize(n * per_vertex);
  rebind(seed);
}

void GraphSketchBuilder::rebind(std::uint64_t seed) {
  seed_ = seed;
  // Vertex-major, so the copies' independent power chains interleave. Row 1
  // of each table holds the copies' bases r and r^n.
  const auto copies = static_cast<std::size_t>(params_.copies);
  const std::uint64_t* r = &pow_low_[copies];
  const std::uint64_t* r_n = &pow_high_[copies];
  for (std::size_t c = 0; c < copies; ++c) {
    level_seeds_[c] = L0Sampler::level_seed_for(seed_, static_cast<int>(c));
    pow_low_[c] = 1;
    pow_high_[c] = 1;
    pow_low_[copies + c] = L0Sampler::fingerprint_base_for(seed_, static_cast<int>(c));
  }
  for (std::size_t y = 2; y < n_; ++y) {
    for (std::size_t c = 0; c < copies; ++c) {
      pow_low_[y * copies + c] = fp::mul(pow_low_[(y - 1) * copies + c], r[c]);
    }
  }
  for (std::size_t c = 0; c < copies; ++c) {
    pow_high_[copies + c] = fp::mul(pow_low_[(n_ - 1) * copies + c], r[c]);
  }
  for (std::size_t x = 2; x < n_; ++x) {
    for (std::size_t c = 0; c < copies; ++c) {
      pow_high_[x * copies + c] = fp::mul(pow_high_[(x - 1) * copies + c], r_n[c]);
    }
  }
}

L0Sampler GraphSketchBuilder::empty_sketch() const {
  return L0Sampler(universe_, params_, seed_);
}

void GraphSketchBuilder::accumulate(const DistributedGraph& dg, Vertex u, Weight max_weight,
                                    L0Sampler& sink, std::uint64_t* powers) const {
  const std::size_t copies = static_cast<std::size_t>(params_.copies);
  for (const auto& he : dg.neighbors(u)) {
    if (he.weight > max_weight) continue;
    const Vertex x = u < he.to ? u : he.to;
    const Vertex y = u < he.to ? he.to : u;
    const std::uint64_t index = static_cast<std::uint64_t>(x) * n_ + y;
    const int value = u == x ? 1 : -1;
    const std::uint64_t* high = &pow_high_[static_cast<std::size_t>(x) * copies];
    const std::uint64_t* low = &pow_low_[static_cast<std::size_t>(y) * copies];
    for (std::size_t c = 0; c < copies; ++c) powers[c] = fp::mul(high[c], low[c]);
    sink.update(index, value, powers, level_seeds_.data());
  }
}

void GraphSketchBuilder::accumulate_part(const DistributedGraph& dg,
                                         std::span<const Vertex> part, Weight max_weight,
                                         L0Sampler& sink,
                                         std::vector<std::uint64_t>& power_scratch) const {
  KMM_DCHECK(sink.universe() == universe_ && sink.seed() == seed_);
  power_scratch.resize(static_cast<std::size_t>(params_.copies));
  for (const Vertex u : part) accumulate(dg, u, max_weight, sink, power_scratch.data());
}

L0Sampler GraphSketchBuilder::sketch_vertex(const DistributedGraph& dg, Vertex u,
                                            Weight max_weight) const {
  L0Sampler s = empty_sketch();
  std::vector<std::uint64_t> powers(static_cast<std::size_t>(params_.copies));
  accumulate(dg, u, max_weight, s, powers.data());
  return s;
}

L0Sampler GraphSketchBuilder::sketch_part(const DistributedGraph& dg,
                                          std::span<const Vertex> part,
                                          Weight max_weight) const {
  L0Sampler s = empty_sketch();
  std::vector<std::uint64_t> powers(static_cast<std::size_t>(params_.copies));
  for (const Vertex u : part) accumulate(dg, u, max_weight, s, powers.data());
  return s;
}

std::pair<Vertex, Vertex> GraphSketchBuilder::decode(std::uint64_t index) const {
  KMM_CHECK(index < universe_);
  const auto x = static_cast<Vertex>(index / n_);
  const auto y = static_cast<Vertex>(index % n_);
  KMM_CHECK_MSG(x < y, "decoded edge index is not canonical");
  return {x, y};
}

}  // namespace kmm
