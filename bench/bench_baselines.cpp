// E2 (Section 1.2 warm-ups): the baselines are stuck at ~n/k-type scaling
// while the sketch algorithm scales ~n/k^2.
//
//   referee   — collect all edges at one machine: Θ(m/k) rounds
//   flooding  — Θ(n/k + D) via the Conversion Theorem
//
// Prints rounds side by side and per-algorithm log-log slopes in k.

#include "bench_common.hpp"

using namespace kmmbench;

namespace {

struct Row {
  std::uint64_t conn, flood, referee;
};

Row run_all(const Graph& g, MachineId k, std::uint64_t seed, BenchJson& json) {
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_edges();
  const VertexPartition part = VertexPartition::random(n, k, split(seed, 1));
  Row row{};
  {
    Cluster c(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, part);
    BoruvkaConfig cfg;
    cfg.seed = split(seed, 2);
    const auto run = timed([&] { return connected_components(c, dg, cfg); });
    row.conn = run.result.stats.rounds;
    json.record("sketch-conn", n, m, k, 1, run.result, run.wall_ms);
  }
  {
    Cluster c(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, part);
    const auto run = timed([&] { return flooding_connectivity(c, dg); });
    row.flood = run.result.stats.rounds;
    json.record("flooding", n, m, k, 1, run.result.stats, 0, run.wall_ms);
  }
  {
    Cluster c(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, part);
    const auto run = timed(
        [&] { return referee_connectivity(c, dg, RefereeConfig{.broadcast_labels = false}); });
    row.referee = run.result.stats.rounds;
    json.record("referee", n, m, k, 1, run.result.stats, 0, run.wall_ms);
  }
  return row;
}

void family(const char* name, const Graph& g, const std::vector<MachineId>& ks,
            BenchJson& json) {
  std::printf("\n%s (n=%zu, m=%zu, D>=%zu):\n", name, g.num_vertices(), g.num_edges(),
              ref::diameter_lower_bound(g));
  std::printf("%4s %12s %12s %12s %14s\n", "k", "sketch-conn", "flooding", "referee",
              "conn*k2/flood*k");
  std::vector<double> kd, conn, flood, referee;
  for (const MachineId k : ks) {
    const Row row = run_all(g, k, split(11, k), json);
    std::printf("%4u %12llu %12llu %12llu\n", k,
                static_cast<unsigned long long>(row.conn),
                static_cast<unsigned long long>(row.flood),
                static_cast<unsigned long long>(row.referee));
    kd.push_back(k);
    conn.push_back(static_cast<double>(row.conn));
    flood.push_back(static_cast<double>(row.flood));
    referee.push_back(static_cast<double>(row.referee));
  }
  print_slope("sketch-conn rounds vs k (~ -2)", kd, conn);
  print_slope("flooding rounds vs k", kd, flood);
  print_slope("referee rounds vs k (~ -1)", kd, referee);
}

}  // namespace

int main() {
  banner("E2: baselines vs the sketch algorithm",
         "flooding ~ n/k + D and referee ~ m/k scale linearly in k; "
         "the sketch algorithm scales ~ n/k^2");

  BenchJson json("baselines");
  const std::vector<MachineId> ks{4, 8, 16, 32};
  {
    // Large sparse graph: n/k^2 >= log2(n) for every k in the sweep, so
    // the Theorem 1 regime (not the additive polylog floor) is measured.
    Rng rng(1);
    family("sparse gnm(32768, 3n)", gen::gnm(32768, 3 * 32768, rng), ks, json);
  }
  {
    Rng rng(2);
    // Dense: referee pays ~m/k with m = 16n while sketches only see n.
    family("dense gnm(8192, 16n)", gen::gnm(8192, 16 * 8192, rng), ks, json);
  }
  {
    // High diameter + hub degrees: flooding's worst shape.
    family("clique_chain(1024 x 16)", gen::clique_chain(1024, 16), ks, json);
  }
  std::printf(
      "\nNote: absolute crossovers depend on the sketch-size constant "
      "(a sketch is ~2 orders of magnitude larger than one edge record); "
      "the paper's claim is about the k-scaling shape, which the slopes "
      "above measure directly.\n");

  // Runtime thread scaling of the ported baselines. The clique chain is
  // flooding's heaviest local-computation shape (dense local fixpoints),
  // and the referee's per-machine edge enumeration parallelizes the same
  // way. Ledger thread-invariance is enforced by the harness.
  {
    const Graph g = gen::clique_chain(2048, 16);
    const std::size_t n = g.num_vertices();
    std::printf("\nruntime thread scaling, flooding on clique_chain(2048 x 16), k=16:\n");
    if (!run_thread_scaling_stats(
            "flooding-threads", n, g.num_edges(), 16, json,
            [&](unsigned threads, const ObsSink* obs) {
              Cluster c(ClusterConfig::for_graph(n, 16));
              const DistributedGraph dg(g, VertexPartition::random(n, 16, 91));
              FloodingConfig fcfg;
              fcfg.threads = threads;
              fcfg.obs = obs;
              return timed([&] { return flooding_connectivity(c, dg, fcfg); });
            })) {
      return 1;
    }
    std::printf("\nruntime thread scaling, referee on clique_chain(2048 x 16), k=16:\n");
    if (!run_thread_scaling_stats(
            "referee-threads", n, g.num_edges(), 16, json,
            [&](unsigned threads, const ObsSink* obs) {
              Cluster c(ClusterConfig::for_graph(n, 16));
              const DistributedGraph dg(g, VertexPartition::random(n, 16, 93));
              RefereeConfig rcfg;
              rcfg.broadcast_labels = false;
              rcfg.threads = threads;
              rcfg.obs = obs;
              return timed([&] { return referee_connectivity(c, dg, rcfg); });
            })) {
      return 1;
    }
  }
  return 0;
}
