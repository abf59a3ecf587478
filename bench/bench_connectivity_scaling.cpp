// E1/E12 (Theorem 1): connectivity in O~(n/k^2) rounds; superlinear
// speedup in k; component counting folded in at O~(n/k^2).
//
// Prints rounds(n, k) for G(n, 3n) and a multi-component family, the
// normalization rounds*k^2/n (flat in k if the claim holds), and the
// fitted log-log slope of rounds vs k (should be ~ -2). A final section
// measures the src/runtime/ thread scaling: same ledger, shrinking
// wall-clock. Every run is appended to BENCH_connectivity_scaling.json.

#include "bench_common.hpp"

using namespace kmmbench;

int main() {
  banner("E1: connectivity scaling (Theorem 1)",
         "O~(n/k^2) rounds; speedup quadratic in k; counting adds O~(n/k^2)");
  BenchJson json("connectivity_scaling");

  const std::vector<std::size_t> ns{2048, 8192, 32768};
  const std::vector<MachineId> ks{4, 8, 16, 32};

  std::printf("%-18s %6s %4s %10s %10s %12s %12s %8s %7s %9s\n", "family", "n", "k",
              "rounds", "msgs", "bits", "rk2/n", "phases", "cc", "wall_ms");
  for (const std::size_t n : ns) {
    Rng rng(split(1, n));
    const Graph g = gen::gnm(n, 3 * n, rng);
    std::vector<double> kd, rounds, kd_regime, rounds_regime;
    const std::uint64_t lg = bits_for(n);
    for (const MachineId k : ks) {
      const auto run = timed([&] { return run_connectivity(g, k, split(2, n * 100 + k)); });
      const auto& res = run.result;
      const double norm = static_cast<double>(res.stats.rounds) * k * k / n;
      std::printf("%-18s %6zu %4u %10llu %10llu %12llu %12.1f %8zu %7llu %9.1f\n",
                  "gnm(3n)", n, k, static_cast<unsigned long long>(res.stats.rounds),
                  static_cast<unsigned long long>(res.stats.messages),
                  static_cast<unsigned long long>(res.stats.bits), norm, res.phases.size(),
                  static_cast<unsigned long long>(res.num_components), run.wall_ms);
      json.record("gnm(3n)", n, g.num_edges(), k, 1, res, run.wall_ms);
      kd.push_back(k);
      rounds.push_back(static_cast<double>(res.stats.rounds));
      // The Theorem 1 bound is n/k^2 *plus additive polylog*; the quadratic
      // shape is the claim only while n/k^2 dominates the hidden log
      // factors. Fit a second slope restricted to that regime.
      if (n / (static_cast<std::size_t>(k) * k) >= lg) {
        kd_regime.push_back(k);
        rounds_regime.push_back(static_cast<double>(res.stats.rounds));
      }
    }
    std::printf("  n=%zu:", n);
    print_slope("rounds vs k, all points", kd, rounds);
    if (kd_regime.size() >= 2) {
      std::printf("  n=%zu:", n);
      print_slope("rounds vs k, n/k^2 >= log2(n) regime", kd_regime, rounds_regime);
    }
  }

  // Disconnected inputs: counting the components costs only the final
  // O~(n/k^2) protocol on top (Section 2, closing remark).
  std::printf("\nmulti-component family (8 components):\n");
  for (const MachineId k : ks) {
    Rng rng(7);
    const Graph g = gen::multi_component(4096, 10000, 8, rng);
    const auto run = timed([&] { return run_connectivity(g, k, split(3, k)); });
    const auto& res = run.result;
    std::printf("%-18s %6u %4u %10llu %10llu %12llu %12.1f %8zu %7llu %9.1f\n", "multi(8)",
                4096u, k, static_cast<unsigned long long>(res.stats.rounds),
                static_cast<unsigned long long>(res.stats.messages),
                static_cast<unsigned long long>(res.stats.bits),
                static_cast<double>(res.stats.rounds) * k * k / 4096, res.phases.size(),
                static_cast<unsigned long long>(res.num_components), run.wall_ms);
    json.record("multi(8)", 4096, g.num_edges(), k, 1, res, run.wall_ms);
  }

  // Runtime thread scaling: the simulated ledger is identical across thread
  // counts (tests/test_runtime.cpp proves bit-identity); what changes is the
  // wall-clock of the simulation itself, dominated by per-machine sketch
  // construction. Speedup here requires actual cores — on a single-core
  // host the column stays ~1x.
  std::printf("\nruntime thread scaling, gnm(3n) n=120000, k=16:\n");
  {
    const std::size_t n = 120000;
    Rng rng(split(5, n));
    const Graph g = gen::gnm(n, 3 * n, rng);
    if (!run_thread_scaling_stats(
            "gnm(3n)-threads", n, g.num_edges(), 16, json,
            [&](unsigned threads, const ObsSink* obs) {
              return timed([&] { return run_connectivity(g, 16, split(6, n), threads, obs); });
            })) {
      return 1;
    }
  }
  return 0;
}
