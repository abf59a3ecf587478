// E3 (Theorem 2a): MST in O~(n/k^2) rounds under the relaxed output
// criterion, paying an extra O(log n) factor for the MWOE elimination loop.
//
// Prints rounds(n, k), the elimination-iteration counts (the Section 3.1
// log factor), verification against Kruskal, and slopes in k, plus the
// src/runtime/ thread scaling of the simulation wall-clock. Every run is
// appended to BENCH_mst_scaling.json.

#include "bench_common.hpp"

using namespace kmmbench;

int main() {
  banner("E3: MST scaling (Theorem 2a)",
         "O~(n/k^2) rounds; each edge output by >= 1 machine; exact MST");
  BenchJson json("mst_scaling");

  const std::vector<std::size_t> ns{4096, 16384};
  const std::vector<MachineId> ks{4, 8, 16, 32};

  std::printf("%6s %4s %10s %12s %10s %10s %6s %9s\n", "n", "k", "rounds", "rk2/n",
              "elim-avg", "elim-max", "exact", "wall_ms");
  for (const std::size_t n : ns) {
    Rng rng(split(21, n));
    const Graph g = weighted_unique(gen::connected_gnm(n, 3 * n, rng), split(22, n));
    const Weight expected = ref::msf_weight(g);
    const std::uint64_t lg = bits_for(n);
    std::vector<double> kd, rounds, kd_regime, rounds_regime;
    for (const MachineId k : ks) {
      const auto run = timed([&] { return run_mst(g, k, split(23, n * 100 + k)); });
      const auto& res = run.result;
      Accumulator elim;
      for (const auto& phase : res.phases) elim.add(phase.elimination_iterations);
      Weight got = 0;
      for (const auto& e : res.mst_edges()) got += e.w;
      std::printf("%6zu %4u %10llu %12.1f %10.1f %10.0f %6s %9.1f\n", n, k,
                  static_cast<unsigned long long>(res.stats.rounds),
                  static_cast<double>(res.stats.rounds) * k * k / n, elim.mean(),
                  elim.max(), got == expected ? "yes" : "NO", run.wall_ms);
      json.record("connected_gnm(3n)", n, g.num_edges(), k, 1, res, run.wall_ms);
      kd.push_back(k);
      rounds.push_back(static_cast<double>(res.stats.rounds));
      if (n / (static_cast<std::size_t>(k) * k) >= lg) {
        kd_regime.push_back(k);
        rounds_regime.push_back(static_cast<double>(res.stats.rounds));
      }
    }
    std::printf("  n=%zu:", n);
    print_slope("MST rounds vs k, all points", kd, rounds);
    if (kd_regime.size() >= 2) {
      std::printf("  n=%zu:", n);
      print_slope("MST rounds vs k, n/k^2 >= log2(n)", kd_regime, rounds_regime);
    }
  }

  // MST vs plain connectivity: the elimination loop costs ~log n extra.
  std::printf("\nMST / connectivity round ratio at n=16384 (the Section 3.1 log factor):\n");
  Rng rng(31);
  const Graph g = weighted_unique(gen::connected_gnm(16384, 3 * 16384, rng), 33);
  for (const MachineId k : {MachineId{8}, MachineId{16}}) {
    const auto mst = run_mst(g, k, split(35, k));
    const auto conn = run_connectivity(g, k, split(37, k));
    std::printf("  k=%2u: mst=%llu conn=%llu ratio=%.2f (log2 n = %u)\n", k,
                static_cast<unsigned long long>(mst.stats.rounds),
                static_cast<unsigned long long>(conn.stats.rounds),
                static_cast<double>(mst.stats.rounds) / static_cast<double>(conn.stats.rounds),
                static_cast<unsigned>(bits_for(16384)));
  }

  // Runtime thread scaling (ledger is thread-invariant; wall-clock is not).
  std::printf("\nruntime thread scaling, connected_gnm(3n) n=65536, k=16:\n");
  {
    const std::size_t n = 65536;
    Rng grng(split(41, n));
    const Graph wg = weighted_unique(gen::connected_gnm(n, 3 * n, grng), split(42, n));
    if (!run_thread_scaling_stats(
            "connected_gnm(3n)-threads", n, wg.num_edges(), 16, json,
            [&](unsigned threads, const ObsSink* obs) {
              return timed([&] { return run_mst(wg, 16, split(43, n), threads, obs); });
            })) {
      return 1;
    }
  }
  return 0;
}
