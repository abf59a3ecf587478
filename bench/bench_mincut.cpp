// E5 (Theorem 3): O(log n)-approximate min-cut in O~(n/k^2) rounds.
//
// Planted cuts (dumbbell graphs): estimate vs exact lambda, the
// approximation ratio, and the round cost of the sampling sweep.

#include <cmath>

#include "bench_common.hpp"

using namespace kmmbench;

int main() {
  banner("E5: approximate min-cut (Theorem 3)",
         "O(log n)-approximation, O~(n/k^2) rounds");
  BenchJson json("mincut");

  const std::size_t n = 512;
  const std::vector<std::size_t> lambdas{1, 2, 4, 8, 16, 32};

  std::printf("%6s %8s %10s %10s %8s %10s %8s\n", "n", "lambda", "estimate", "ratio",
              "level", "rounds", "k");
  for (const MachineId k : {MachineId{8}, MachineId{16}}) {
    for (const std::size_t lambda : lambdas) {
      Rng rng(split(51, lambda));
      const Graph g = gen::dumbbell(n, lambda, rng);
      Cluster cluster(ClusterConfig::for_graph(n, k));
      const DistributedGraph dg(g, VertexPartition::random(n, k, split(53, lambda)));
      MinCutConfig cfg;
      cfg.seed = split(55, lambda * 100 + k);
      const auto run = timed([&] { return approximate_min_cut(cluster, dg, cfg); });
      const auto& res = run.result;
      std::printf("%6zu %8zu %10llu %10.2f %8d %10llu %8u\n", n, lambda,
                  static_cast<unsigned long long>(res.estimate),
                  static_cast<double>(res.estimate) / static_cast<double>(lambda),
                  res.disconnect_level, static_cast<unsigned long long>(res.stats.rounds),
                  k);
      json.record("dumbbell", n, g.num_edges(), k, 1, res.stats, res.levels.size(),
                  run.wall_ms);
    }
  }
  std::printf("\nO(log n) band: ratios must stay within [1/(8 log2 n), 8 log2 n] = "
              "[%.3f, %.1f] at n=%zu\n",
              1.0 / (8 * std::log2(static_cast<double>(n))),
              8 * std::log2(static_cast<double>(n)), n);

  // Round scaling of the whole sweep in k.
  std::printf("\nround scaling at lambda=8:\n");
  std::vector<double> kd, rounds;
  for (const MachineId k : {MachineId{4}, MachineId{8}, MachineId{16}, MachineId{32}}) {
    Rng rng(57);
    const Graph g = gen::dumbbell(n, 8, rng);
    Cluster cluster(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, VertexPartition::random(n, k, 59));
    MinCutConfig cfg;
    cfg.seed = split(61, k);
    const auto res = approximate_min_cut(cluster, dg, cfg);
    std::printf("  k=%2u: rounds=%llu\n", k,
                static_cast<unsigned long long>(res.stats.rounds));
    kd.push_back(k);
    rounds.push_back(static_cast<double>(res.stats.rounds));
  }
  print_slope("min-cut rounds vs k (~ -2)", kd, rounds);

  // Runtime thread scaling: the whole sampling sweep runs its inner
  // connectivity instances on the parallel runtime (MinCutConfig::threads).
  // The simulated ledger is thread-invariant; only the wall-clock of the
  // simulation changes (requires actual cores to show > 1x).
  std::printf("\nruntime thread scaling, dumbbell(n=4096, lambda=8), k=16:\n");
  {
    const std::size_t big_n = 4096;
    Rng rng(63);
    const Graph g = gen::dumbbell(big_n, 8, rng);
    if (!run_thread_scaling_stats(
            "dumbbell-threads", big_n, g.num_edges(), 16, json,
            [&](unsigned threads, const ObsSink* obs) {
              Cluster cluster(ClusterConfig::for_graph(big_n, 16));
              const DistributedGraph dg(g, VertexPartition::random(big_n, 16, 65));
              MinCutConfig cfg;
              cfg.seed = 67;
              cfg.threads = threads;
              cfg.obs = obs;
              return timed([&] { return approximate_min_cut(cluster, dg, cfg); });
            })) {
      return 1;
    }
  }
  return 0;
}
