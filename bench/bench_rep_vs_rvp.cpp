// E4 (Section 1.3): under the random edge partition (REP), Θ~(n/k) is
// tight for MST; under RVP the paper's algorithm achieves Θ~(n/k^2).
//
// Runs the footnote-5 REP pipeline (local filter -> reroute -> RVP solve)
// against the plain RVP algorithm on the same weighted graphs, printing
// the reroute bottleneck separately.

#include "bench_common.hpp"

using namespace kmmbench;

int main() {
  banner("E4: REP vs RVP partition models (Section 1.3)",
         "REP MST is Θ~(n/k) (reroute-bound); RVP MST is Θ~(n/k^2)");

  const std::vector<std::size_t> ns{1024, 2048};
  const std::vector<MachineId> ks{4, 8, 16, 32};

  std::printf("%6s %4s %12s %12s %12s %10s %8s\n", "n", "k", "rep-total", "rep-reroute",
              "rvp-total", "rep/rvp", "exact");
  for (const std::size_t n : ns) {
    Rng rng(split(41, n));
    const Graph g = weighted_unique(gen::connected_gnm(n, 4 * n, rng), split(43, n));
    const Weight expected = ref::msf_weight(g);
    std::vector<double> kd, rep_rounds, rvp_rounds;
    for (const MachineId k : ks) {
      Cluster rep_cluster(ClusterConfig::for_graph(n, k));
      const auto ep = EdgePartition::random(g.num_edges(), k, split(45, k));
      const auto rep = rep_model_mst(rep_cluster, g, ep, split(47, n * 100 + k));
      const auto rvp = run_mst(g, k, split(49, n * 100 + k));
      Weight got = 0;
      for (const auto& e : rep.mst_edges) got += e.w;
      std::printf("%6zu %4u %12llu %12llu %12llu %10.2f %8s\n", n, k,
                  static_cast<unsigned long long>(rep.stats.rounds),
                  static_cast<unsigned long long>(rep.reroute_stats.rounds),
                  static_cast<unsigned long long>(rvp.stats.rounds),
                  static_cast<double>(rep.stats.rounds) /
                      static_cast<double>(rvp.stats.rounds),
                  got == expected ? "yes" : "NO");
      kd.push_back(k);
      rep_rounds.push_back(static_cast<double>(rep.reroute_stats.rounds));
      rvp_rounds.push_back(static_cast<double>(rvp.stats.rounds));
    }
    std::printf("  n=%zu:", n);
    print_slope("RVP rounds vs k (~ -2)", kd, rvp_rounds);
    (void)rep_rounds;
  }

  // The Θ~(n/k) reroute bottleneck appears for *dense* inputs: with
  // m = Ω(nk) edges, every machine's local cycle-property filter still
  // retains a near-spanning forest of ~n-1 edges, and shipping ~n edge
  // records over k-1 links costs Θ~(n/k) rounds per machine. Construct
  // that worst-case filtered state directly (one spanning tree per
  // machine) and measure the reroute superstep alone.
  std::printf("\nreroute-stage scaling, worst-case filtered state "
              "(every machine holds a spanning tree):\n");
  std::printf("%8s %4s %12s %16s\n", "n", "k", "reroute-rds", "n*lg/(k*B) pred");
  for (const std::size_t n : {std::size_t{16384}, std::size_t{65536}}) {
    std::vector<double> kd, reroute;
    for (const MachineId k : {MachineId{4}, MachineId{8}, MachineId{16}, MachineId{32}}) {
      Cluster cluster(ClusterConfig::for_graph(n, k));
      const VertexPartition rvp = VertexPartition::random(n, k, split(147, k));
      const std::uint64_t label_bits = bits_for(n);
      const std::uint64_t edge_bits = 2 * label_bits + 64;
      const StatsScope scope(cluster);
      Runtime rt(cluster);
      rt.step([&](MachineId i, std::span<const Message>, Outbox& out) {
        Rng tree_rng(split3(149, i, n));
        const Graph tree = gen::random_tree(n, tree_rng);
        for (const auto& edge : tree.edges()) {
          for (const MachineId dst : {rvp.home(edge.u), rvp.home(edge.v)}) {
            out.send(dst, 1, {}, edge_bits);
          }
        }
      });
      const auto rounds = scope.snapshot().rounds;
      const double predicted = 2.0 * static_cast<double>(n) * edge_bits /
                               (static_cast<double>(k) *
                                static_cast<double>(cluster.bandwidth_bits()));
      std::printf("%8zu %4u %12llu %16.0f\n", n, k,
                  static_cast<unsigned long long>(rounds), predicted);
      kd.push_back(k);
      reroute.push_back(static_cast<double>(rounds));
    }
    std::printf("  n=%zu:", n);
    print_slope("reroute rounds vs k (~ -1)", kd, reroute);
  }
  std::printf(
      "\nreading: the reroute stage scales ~1/k (each machine pushes its ~n\n"
      "surviving edges over k-1 links), while the RVP algorithm scales ~1/k^2\n"
      "(E1/E3) — reproducing the Section 1.3 separation: REP Θ~(n/k) vs RVP "
      "Θ~(n/k^2).\n");
  return 0;
}
