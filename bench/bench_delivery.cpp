// Delivery-plane throughput: wall time of one superstep split into its
// phases — handler (parallel local computation), deliver (moving messages
// into inboxes), reduce (folding ledger partials) — across payload sizes
// and thread counts.
//
// The k-machine cost model makes local computation free, so after PRs 3-4
// made the handler side parallel and allocation-free, the serial half of
// every superstep is delivery itself: this bench measures exactly that
// half. Compare against bench/baselines/BENCH_delivery.pre-parallel.json
// (captured with the sequential count-then-bucket delivery) to see the
// direct shard->inbox delivery plane's speedup; the acceptance bar is
// deliver-phase speedup > 1.5x at threads=8 on a multi-core host and >= 1x
// at threads=1 (no single-thread regression), with 0 steady-state
// allocations preserved.
//
// A second section exercises the parallel input pipeline at the large-graph
// tier (n >= 10^6): chunked deterministic generation, parallel CSR build,
// parallel hosted-list build, and a flooding run whose per-superstep
// message volume makes delivery the dominant phase.

#include <array>
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace kmm;
using namespace kmmbench;

constexpr MachineId kMachines = 16;
constexpr std::size_t kFanout = 64;       // messages per machine per superstep
constexpr std::size_t kWarmupSteps = 16;  // let buffers reach steady-state capacity
constexpr std::size_t kMeasureSteps = 160;

struct DeliveryRow {
  std::size_t payload_words;
  unsigned threads;
  double wall_ms = 0.0;
  double msgs_per_sec = 0.0;
  double handler_ms = 0.0;  // totals over the measured steps
  double deliver_ms = 0.0;
  double reduce_ms = 0.0;
  double allocs_per_superstep = 0.0;
  SuperstepWallSummary wall;  // per-superstep distribution over the window
};

/// One synthetic superstep tuned so delivery dominates: the handler only
/// sums inbox payload words (so delivery isn't dead code) before fanning
/// out `kFanout` messages of `payload_words` words each.
DeliveryRow run_config(std::size_t payload_words, unsigned threads) {
  Cluster cluster(ClusterConfig{.k = kMachines, .bandwidth_bits = 1 << 16});
  // Timeline with summarized traffic: the percentile columns need only the
  // per-row phase ns, and summarized rows keep recording allocation-free.
  MetricsTimeline timeline(MetricsTimelineConfig{.full_traffic_steps = 0});
  timeline.reserve(kWarmupSteps + kMeasureSteps + 2, kMachines);
  const ObsSink obs{&timeline, nullptr};
  Runtime rt(cluster, RuntimeConfig{.threads = threads, .obs = &obs});

  std::vector<std::uint64_t> sink(kMachines, 0);
  std::vector<std::array<std::uint64_t, 16>> scratch(kMachines);
  std::size_t step_index = 0;

  const auto handler = [&](MachineId self, std::span<const Message> inbox, Outbox& out) {
    std::uint64_t acc = 0;
    for (const auto& msg : inbox) {
      for (const std::uint64_t w : msg.payload()) acc += w;
    }
    sink[self] += acc;
    auto& payload = scratch[self];
    for (std::size_t w = 0; w < payload_words; ++w) {
      payload[w] = static_cast<std::uint64_t>(self) * 1315423911u + w;
    }
    for (std::size_t j = 0; j < kFanout; ++j) {
      const auto dst = static_cast<MachineId>((self + 1 + (step_index + j) % (kMachines - 1)) %
                                              kMachines);
      out.send(dst, /*tag=*/1, std::span<const std::uint64_t>(payload.data(), payload_words),
               /*bits=*/0);
    }
  };

  for (std::size_t s = 0; s < kWarmupSteps; ++s, ++step_index) rt.step(handler);
  const std::size_t warm_rows = timeline.size();

  const auto a0 = alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < kMeasureSteps; ++s, ++step_index) rt.step(handler);
  const auto t1 = std::chrono::steady_clock::now();
  const auto allocs = alloc_count() - a0;
  const SuperstepWallSummary wall = summarize_superstep_wall(timeline, warm_rows);
  const PhaseMs phase = PhaseMs::of(timeline, warm_rows);

  // One drain step so the last deliveries are consumed (outside the timer).
  rt.step([&](MachineId self, std::span<const Message> inbox, Outbox&) {
    for (const auto& msg : inbox) sink[self] += msg.payload().size();
  });

  DeliveryRow row;
  row.payload_words = payload_words;
  row.threads = threads;
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double msgs = static_cast<double>(kMachines * kFanout * kMeasureSteps);
  row.msgs_per_sec = msgs / (row.wall_ms / 1000.0);
  row.handler_ms = phase.handler_ms;
  row.deliver_ms = phase.deliver_ms;
  row.reduce_ms = phase.reduce_ms;
  row.allocs_per_superstep = static_cast<double>(allocs) / static_cast<double>(kMeasureSteps);
  row.wall = wall;
  return row;
}

void run_microbench(BenchJson& json) {
  std::printf("k=%u, %zu msgs/machine/superstep, %zu measured supersteps\n\n", kMachines,
              kFanout, kMeasureSteps);
  std::printf("%14s %8s %9s %14s %11s %11s %10s %13s %9s %9s\n", "payload_words",
              "threads", "wall_ms", "msgs/s", "handler_ms", "deliver_ms", "reduce_ms",
              "allocs/sstep", "p50_us", "p95_us");

  for (const std::size_t payload_words : {1u, 4u, 16u}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      const auto row = run_config(payload_words, threads);
      std::printf("%14zu %8u %9.1f %14.0f %11.1f %11.1f %10.1f %13.1f %9.1f %9.1f\n",
                  row.payload_words, row.threads, row.wall_ms, row.msgs_per_sec,
                  row.handler_ms, row.deliver_ms, row.reduce_ms, row.allocs_per_superstep,
                  row.wall.p50_us, row.wall.p95_us);
      char buf[576];
      std::snprintf(buf, sizeof(buf),
                    "{\"section\": \"microbench\", \"payload_words\": %zu, \"threads\": %u, "
                    "\"k\": %u, \"supersteps\": %zu, \"messages_per_superstep\": %zu, "
                    "\"wall_ms\": %.3f, \"msgs_per_sec\": %.0f, \"handler_ms\": %.3f, "
                    "\"deliver_ms\": %.3f, \"reduce_ms\": %.3f, "
                    "\"allocs_per_superstep\": %.1f, %s}",
                    row.payload_words, row.threads, kMachines, kMeasureSteps,
                    static_cast<std::size_t>(kMachines) * kFanout, row.wall_ms,
                    row.msgs_per_sec, row.handler_ms, row.deliver_ms, row.reduce_ms,
                    row.allocs_per_superstep, superstep_wall_json(row.wall).c_str());
      json.record_raw(buf);
    }
  }
}

/// The large-graph scenario tier the parallel input pipeline opens: with
/// sequential generation + CSR + hosted-list builds, setting up an n=10^6
/// input dominated any measurement; chunked generation and the parallel
/// builds make it a bench-sized fixture. Flooding is the workload because
/// its per-superstep message volume (every changed boundary vertex) makes
/// delivery the dominant phase — exactly what this PR parallelizes.
bool run_large_tier(BenchJson& json) {
  constexpr std::size_t kN = 1'000'000;
  constexpr std::size_t kM = 2'000'000;
  constexpr MachineId kK = 16;
  std::printf("\nlarge-graph tier: gnm_par n=%zu m=%zu, flooding on k=%u\n", kN, kM, kK);
  std::printf("%8s %9s %9s %10s %9s %11s %11s %10s\n", "threads", "gen_ms", "build_ms",
              "rounds", "wall_ms", "handler_ms", "deliver_ms", "reduce_ms");

  std::uint64_t base_fp = 0;
  std::uint64_t base_rounds = 0;
  bool ok = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    gen::ParGenConfig cfg;
    cfg.seed = 1234;
    ThreadPool pool(threads);
    const auto g0 = std::chrono::steady_clock::now();
    const Graph g = gen::gnm_par(kN, kM, cfg, &pool);
    const auto g1 = std::chrono::steady_clock::now();
    const double gen_ms = std::chrono::duration<double, std::milli>(g1 - g0).count();
    const std::uint64_t fp = edge_list_fingerprint(g.edges());
    if (threads == 1) {
      base_fp = fp;
    } else if (fp != base_fp) {
      std::printf("  GENERATOR MISMATCH at threads=%u — pipeline determinism violated\n",
                  threads);
      ok = false;
    }

    const auto b0 = std::chrono::steady_clock::now();
    const DistributedGraph dg(g, VertexPartition::random(kN, kK, 5), &pool);
    const auto b1 = std::chrono::steady_clock::now();
    const double build_ms = std::chrono::duration<double, std::milli>(b1 - b0).count();

    Cluster cluster(ClusterConfig::for_graph(kN, kK));
    MetricsTimeline timeline(MetricsTimelineConfig{.full_traffic_steps = 0});
    const ObsSink sink{&timeline, nullptr};
    FloodingConfig fcfg;
    fcfg.threads = threads;
    fcfg.obs = &sink;
    const auto run = timed([&] { return flooding_connectivity(cluster, dg, fcfg); });
    const PhaseMs phase = PhaseMs::of(timeline);
    const std::uint64_t rounds = cluster.stats().rounds;
    if (threads == 1) {
      base_rounds = rounds;
    } else if (rounds != base_rounds) {
      std::printf("  LEDGER MISMATCH at threads=%u — runtime invariant violated\n", threads);
      ok = false;
    }
    const SuperstepWallSummary wall = summarize_superstep_wall(timeline);
    std::printf("%8u %9.0f %9.0f %10llu %9.0f %11.0f %11.0f %10.1f  (superstep p95 "
                "%.0fus, max %.0fus)\n",
                threads, gen_ms, build_ms, static_cast<unsigned long long>(rounds), run.wall_ms,
                phase.handler_ms, phase.deliver_ms, phase.reduce_ms, wall.p95_us, wall.max_us);
    char buf[576];
    std::snprintf(buf, sizeof(buf),
                  "{\"section\": \"large_tier\", \"family\": \"gnm_par\", \"n\": %zu, "
                  "\"m\": %zu, \"k\": %u, \"threads\": %u, \"gen_ms\": %.1f, "
                  "\"build_ms\": %.1f, \"rounds\": %llu, \"supersteps\": %llu, "
                  "\"wall_ms\": %.1f, \"handler_ms\": %.1f, \"deliver_ms\": %.1f, "
                  "\"reduce_ms\": %.1f, \"components\": %llu, %s}",
                  kN, g.num_edges(), kK, threads, gen_ms, build_ms,
                  static_cast<unsigned long long>(rounds),
                  static_cast<unsigned long long>(cluster.stats().supersteps), run.wall_ms,
                  phase.handler_ms, phase.deliver_ms, phase.reduce_ms,
                  static_cast<unsigned long long>(run.result.num_components),
                  superstep_wall_json(wall).c_str());
    json.record_raw(buf);
  }
  return ok;
}

}  // namespace

int main() {
  banner("delivery-plane throughput (per-phase superstep breakdown)",
         "delivery was the Amdahl serial half of every superstep: msgs/s and "
         "handler/deliver/reduce wall time across threads and payload sizes");

  BenchJson json("delivery");
  run_microbench(json);
  const bool ok = run_large_tier(json);
  return ok ? 0 : 1;
}
