// E9 (Lemma 7): the algorithm finishes within 12 log n phases w.h.p., with
// the number of participating components decaying by a constant factor per
// phase.
//
// Prints per-phase component counts across graph families and the
// phases-used / 12 log2 n budget fraction. Each family's run records a
// per-superstep metrics timeline (src/obs/), and BENCH_phases.json carries
// the superstep wall-time distribution (p50/p95/max) alongside the ledger —
// the columns that expose a straggler superstep hiding in a flat phase
// table.

#include "bench_common.hpp"

using namespace kmmbench;

namespace {

void trace_family(const char* name, const Graph& g, MachineId k, std::uint64_t seed,
                  BenchJson& json) {
  MetricsTimeline timeline;
  const ObsSink sink{&timeline, nullptr};
  const auto run = timed([&] { return run_connectivity(g, k, seed, /*threads=*/1, &sink); });
  const auto& res = run.result;

  const auto budget = 12 * bits_for(g.num_vertices());
  std::printf("\n%s (n=%zu, m=%zu, k=%u): %zu phases / budget %llu\n", name,
              g.num_vertices(), g.num_edges(), k, res.phases.size(),
              static_cast<unsigned long long>(budget));
  std::printf("  %-6s %12s %12s %8s %10s\n", "phase", "comps-in", "comps-out", "decay",
              "rounds");
  for (const auto& ph : res.phases) {
    std::printf("  %-6u %12llu %12llu %8.2f %10llu\n", ph.phase,
                static_cast<unsigned long long>(ph.components_before),
                static_cast<unsigned long long>(ph.components_after),
                ph.components_before
                    ? static_cast<double>(ph.components_after) /
                          static_cast<double>(ph.components_before)
                    : 0.0,
                static_cast<unsigned long long>(ph.rounds));
  }

  const auto wall = summarize_superstep_wall(timeline);
  std::printf("  superstep wall time over %zu supersteps: p50 %.1fus, p95 %.1fus, "
              "max %.1fus\n",
              wall.supersteps, wall.p50_us, wall.p95_us, wall.max_us);

  char rec[512];
  std::snprintf(rec, sizeof(rec),
                "{\"family\": \"%s\", \"n\": %zu, \"m\": %zu, \"k\": %u, "
                "\"rounds\": %llu, \"supersteps\": %llu, \"phases\": %zu, "
                "\"phase_budget\": %llu, \"wall_ms\": %.3f, %s}",
                name, g.num_vertices(), g.num_edges(), k,
                static_cast<unsigned long long>(res.stats.rounds),
                static_cast<unsigned long long>(res.stats.supersteps), res.phases.size(),
                static_cast<unsigned long long>(budget), run.wall_ms,
                superstep_wall_json(wall).c_str());
  json.record_raw(rec);
}

}  // namespace

int main() {
  banner("E9: phase count (Lemma 7)",
         "<= 12 log n phases w.h.p.; participating components decay by a "
         "constant factor (<= 3/4 per successful phase)");

  BenchJson json("phases");
  Rng rng(101);
  trace_family("sparse gnm(4096, 1.2n)", gen::gnm(4096, 4915, rng), 16, 103, json);
  trace_family("dense gnm(4096, 8n)", gen::gnm(4096, 8 * 4096, rng), 16, 105, json);
  trace_family("path(4096)", gen::path(4096), 16, 107, json);
  trace_family("grid(64x64)", gen::grid(64, 64), 16, 109, json);
  trace_family("communities(4096, 16 blocks)",
               gen::planted_communities(4096, 16, 0.02, 32, rng), 16, 111, json);

  // Aggregate decay statistics over many random graphs.
  std::printf("\naggregate over 20 random graphs (n=2048, m=3n):\n");
  Accumulator phases_used, decay;
  for (int trial = 0; trial < 20; ++trial) {
    Rng grng(split(113, trial));
    const Graph g = gen::gnm(2048, 3 * 2048, grng);
    const auto res = run_connectivity(g, 16, split(115, trial));
    phases_used.add(static_cast<double>(res.phases.size()));
    for (const auto& ph : res.phases) {
      if (ph.components_before > ph.components_after && ph.components_before > 1) {
        decay.add(static_cast<double>(ph.components_after) /
                  static_cast<double>(ph.components_before));
      }
    }
  }
  std::printf("  phases used: mean %.1f, max %.0f (budget %llu)\n", phases_used.mean(),
              phases_used.max(), static_cast<unsigned long long>(12 * bits_for(2048)));
  std::printf("  per-phase decay factor: mean %.3f (Lemma 7 successful-phase "
              "threshold: 0.75)\n",
              decay.mean());
  return 0;
}
