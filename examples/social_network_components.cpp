// Scenario: community detection prefilter on a social graph.
//
// A social network of dense friend-groups connected by a few bridges is
// sharded across k machines. We find connected components with the sketch
// algorithm, compare against the flooding baseline a Giraph-style system
// would run, and report how the two scale when machines are added — the
// question the k-machine model was built to answer.
//
//   ./social_network_components [n] [--threads T]
//                               [--metrics-out FILE] [--trace-out FILE]
//
// The obs flags record the sketch-connectivity run at the LARGEST k of the
// sweep (a metrics timeline binds to one cluster).

#include <cstdio>
#include <cstdlib>

#include "example_args.hpp"
#include "kmm.hpp"

int main(int argc, char** argv) {
  using namespace kmm;
  const auto args = kmmex::parse_example_args(argc, argv);
  const unsigned threads = args.threads;
  const std::size_t n = args.pos_u64(0, 4000);

  Rng rng(1234);
  // 25 communities of ~n/25 users; a handful of bridge friendships join
  // some of them, leaving several isolated groups.
  const Graph g = gen::planted_communities(n, 25, 0.08, 18, rng);
  std::printf("social graph: %zu users, %zu friendships, %zu groups\n", g.num_vertices(),
              g.num_edges(), ref::component_count(g));

  std::printf("\nruntime threads requested: %u (effective value is clamped to each k)\n",
              threads);
  kmmex::ObsScope obs(args, "social_network_components");
  const MachineId k_sweep[] = {4, 8, 16, 32};
  const MachineId observed_k = k_sweep[std::size(k_sweep) - 1];
  std::printf("\n%6s %8s %16s %16s %14s %14s\n", "k", "threads", "sketch rounds",
              "flooding rounds", "sketch bits", "speedup vs k/2");
  std::uint64_t prev_rounds = 0;
  for (const MachineId k : k_sweep) {
    const VertexPartition part = VertexPartition::random(n, k, 99);

    Cluster sketch_cluster(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, part);
    BoruvkaConfig config;
    config.seed = 555;
    config.threads = threads;
    if (k == observed_k) config.obs = obs.sink();
    const auto sketch = connected_components(sketch_cluster, dg, config);

    Cluster flood_cluster(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg2(g, part);
    FloodingConfig flood_config;
    flood_config.threads = threads;
    const auto flood = flooding_connectivity(flood_cluster, dg2, flood_config);

    if (canonical_labels(sketch.labels) !=
        std::vector<Vertex>(flood.labels.begin(), flood.labels.end())) {
      std::printf("DISAGREEMENT between algorithms!\n");
      return 1;
    }
    std::printf("%6u %8u %16llu %16llu %14llu", k, resolve_threads(threads, k),
                static_cast<unsigned long long>(sketch.stats.rounds),
                static_cast<unsigned long long>(flood.stats.rounds),
                static_cast<unsigned long long>(sketch.stats.bits));
    if (prev_rounds != 0) {
      std::printf(" %13.1fx", static_cast<double>(prev_rounds) /
                                  static_cast<double>(sketch.stats.rounds));
    }
    std::printf("\n");
    prev_rounds = sketch.stats.rounds;
  }
  std::printf(
      "\nEach doubling of k cuts the sketch algorithm's rounds 2-4x —\n"
      "super-linear while n/k^2 dominates, tapering into the additive polylog\n"
      "floor at large k (the polylog factors Theorem 1's O~ hides). Flooding is cheap\n"
      "on these low-diameter graphs; its worst case (high diameter, hub\n"
      "degrees) is measured in bench_baselines.\n");
  return 0;
}
