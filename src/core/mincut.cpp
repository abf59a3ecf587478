#include "core/mincut.hpp"

#include <cmath>

#include "core/connectivity.hpp"
#include "util/assert.hpp"

namespace kmm {

namespace {

// Independent samples per level; disconnection is decided by majority.
constexpr int kTrialsPerLevel = 3;

}  // namespace

MinCutResult approximate_min_cut(Cluster& cluster, const DistributedGraph& dg,
                                 const MinCutConfig& config) {
  const StatsScope scope(cluster);
  MinCutResult result;
  const std::size_t n = dg.num_vertices();
  const std::size_t m = dg.graph().num_edges();
  const auto conn_config = [&](std::uint64_t seed) {
    BoruvkaConfig conn{config};
    conn.seed = seed;
    conn.fault = config.fault;
    return conn;
  };

  // Level 0 (p = 1) is plain connectivity of the input.
  {
    const auto base = connected_components(cluster, dg, conn_config(split(config.seed, 0)));
    result.graph_connected = base.num_components <= 1;
  }
  if (!result.graph_connected || m == 0) {
    result.estimate = 0;
    result.stats = scope.snapshot();
    return result;
  }

  int last_level = 2;
  while ((1ULL << last_level) < m && last_level < 62) ++last_level;
  last_level += 2;

  for (int level = 1; level <= last_level; ++level) {
    MinCutLevelTrace trace;
    trace.level = level;
    trace.trials = kTrialsPerLevel;
    // keep(e) iff the shared hash of the edge index falls below 2^(64-level)
    // — an exact Bernoulli(2^-level) coin both endpoints can evaluate.
    const std::uint64_t threshold = 1ULL << (64 - level);
    for (int trial = 0; trial < kTrialsPerLevel; ++trial) {
      const std::uint64_t trial_seed =
          split3(config.seed, static_cast<std::uint64_t>(level),
                 static_cast<std::uint64_t>(trial));
      const Graph sampled = dg.graph().filtered([&](Vertex u, Vertex v, Weight) {
        return split(trial_seed, edge_index(u, v, n)) < threshold;
      });
      const DistributedGraph sampled_dg(sampled, dg.partition());
      const auto res = connected_components(
          cluster, sampled_dg, conn_config(split3(config.seed, 0x515, trial_seed)));
      if (res.num_components > 1) ++trace.disconnected_trials;
    }
    result.levels.push_back(trace);
    if (2 * trace.disconnected_trials > trace.trials) {
      result.disconnect_level = level;
      break;
    }
  }
  KMM_CHECK_MSG(result.disconnect_level >= 1,
                "sampling sweep never disconnected a connected graph");

  // λ̂ = 2^{i*-1} · ln n: the sampling rate that still preserved
  // connectivity, scaled by the Karger threshold.
  const double ln_n = std::log(static_cast<double>(std::max<std::size_t>(n, 3)));
  result.estimate = static_cast<std::uint64_t>(std::max(
      1.0, std::ldexp(ln_n, result.disconnect_level - 1)));
  result.stats = scope.snapshot();
  return result;
}

}  // namespace kmm
