// Tier-1 counting-allocator proof of the allocation-free sketch plane.
//
// A standalone binary (not part of kmm_tests): it replaces the global
// operator new/delete with the counting hook from bench/alloc_counter.hpp,
// which must not leak into the GoogleTest suite, so it registers with ctest
// as its own test with a plain main().
//
// What it asserts: one steady-state Borůvka elimination iteration — builder
// rebind, part sketching into a reused sampler with caller scratch,
// serialization into a reused WordWriter, the proxy-side sort of the inbox
// by label, wire-level merging of each label's sketches into that one reset
// sampler, and the sample/is_zero state transitions — performs ZERO heap
// allocations once the capacity-retaining structures are warm. This is the
// compute-plane analogue of the message plane's 0 allocs/superstep;
// bench_boruvka_hotpath reports the same quantity with throughput numbers
// against the checked-in baseline. The full-engine section also bounds the
// peak heap per vertex of a whole connectivity run.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "kmm.hpp"

namespace {

using namespace kmm;
using kmmbench::alloc_count;

constexpr std::size_t kN = 512;      // vertices (universe kN^2)
constexpr std::size_t kLabels = 16;  // active components per iteration
constexpr std::size_t kParts = 4;    // part-sketches per label
constexpr int kWarmupIters = 3;
constexpr int kMeasureIters = 8;

int failures = 0;

#define EXPECT_ZERO(expr, what)                                                      \
  do {                                                                               \
    const auto v = (expr);                                                           \
    if (v != 0) {                                                                    \
      std::printf("FAIL: %s = %llu, expected 0\n", what,                             \
                  static_cast<unsigned long long>(v));                               \
      ++failures;                                                                    \
    }                                                                                \
  } while (0)

/// One elimination iteration over pre-partitioned component parts: the
/// home-side sketch+serialize half and the proxy-side merge+transition half,
/// exactly the containers and calls the engine's hot path uses.
void run_iteration(GraphSketchBuilder& builder, const DistributedGraph& dg,
                   std::uint64_t seed, const std::vector<std::vector<Vertex>>& parts,
                   L0Sampler& sampler, WordWriter& writer,
                   std::vector<std::uint64_t>& power_scratch,
                   std::vector<std::vector<std::uint64_t>>& wire,
                   std::vector<std::pair<Label, std::uint32_t>>& order, std::uint64_t* sink) {
  builder.rebind(seed);

  // Home side: sketch each part into the reset sampler, serialize into the
  // reused writer, "send" by copying into the wire buffers (stand-in for the
  // already allocation-free message plane; the writer and buffers are
  // pre-sized to the longest wire form, as the engine's writers are).
  for (std::size_t label = 0; label < kLabels; ++label) {
    for (std::size_t p = 0; p < kParts; ++p) {
      sampler.reset(builder.seed());
      builder.accumulate_part(dg, parts[label * kParts + p], kNoWeightLimit, sampler,
                              power_scratch);
      writer.clear();
      writer.u64(label);
      sampler.serialize(writer);
      auto& slot = wire[label * kParts + p];
      slot.assign(writer.words().begin(), writer.words().end());
    }
  }

  // Proxy side: sort the inbox by label, merge each label's sketches
  // wire-level into the reset sampler, then run its transition.
  order.clear();
  for (std::uint32_t m = 0; m < wire.size(); ++m) order.emplace_back(wire[m][0], m);
  std::sort(order.begin(), order.end());
  for (auto next = order.begin(); next != order.end();) {
    const Label label = next->first;
    sampler.reset(builder.seed());
    for (; next != order.end() && next->first == label; ++next) {
      WordReader r(std::span<const std::uint64_t>{wire[next->second]}.subspan(1));
      sampler.add_serialized(r);
    }
    if (sampler.is_zero()) continue;
    if (const auto rec = sampler.sample()) *sink += rec->index + label;
  }
}

}  // namespace

int main() {
  Rng rng(5);
  const Graph g = gen::gnm(kN, 3 * kN, rng);
  const DistributedGraph dg(g, VertexPartition::random(kN, 4, 7));

  // Disjoint vertex slices standing in for component parts.
  std::vector<std::vector<Vertex>> parts(kLabels * kParts);
  const std::size_t chunk = kN / parts.size();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (std::size_t j = 0; j < chunk; ++j) {
      parts[i].push_back(static_cast<Vertex>(i * chunk + j));
    }
  }

  GraphSketchBuilder builder(kN, /*seed=*/1);
  L0Sampler sampler = builder.empty_sketch();
  // Sketch payloads vary in length with the live depth: one label word plus
  // at most copies depth words and 3 words per cell.
  const std::size_t max_payload = 1 + sampler.max_serialized_words();
  WordWriter writer;
  writer.reserve(max_payload);
  std::vector<std::uint64_t> power_scratch;
  std::vector<std::vector<std::uint64_t>> wire(kLabels * kParts);
  for (auto& slot : wire) slot.reserve(max_payload);
  std::vector<std::pair<Label, std::uint32_t>> order;
  std::uint64_t sink = 0;

  for (int it = 0; it < kWarmupIters; ++it) {
    run_iteration(builder, dg, 100 + static_cast<std::uint64_t>(it), parts, sampler, writer,
                  power_scratch, wire, order, &sink);
  }

  const auto a0 = alloc_count();
  for (int it = 0; it < kMeasureIters; ++it) {
    run_iteration(builder, dg, 200 + static_cast<std::uint64_t>(it), parts, sampler, writer,
                  power_scratch, wire, order, &sink);
  }
  const auto steady_allocs = alloc_count() - a0;
  EXPECT_ZERO(steady_allocs, "steady-state sketch-plane allocations");
  std::printf("sketch plane: %d warm iterations, %llu allocations (sink=%llu)\n",
              kMeasureIters, static_cast<unsigned long long>(steady_allocs),
              static_cast<unsigned long long>(sink));

  // Full-engine regression guard: the registry representation must keep
  // allocations-per-superstep far below the pre-registry ~290 (see
  // bench/baselines/BENCH_boruvka_hotpath.pre-registry.json). The bound is
  // loose — it catches representation regressions, not stdlib noise.
  {
    Rng grng(17);
    const Graph eg = gen::gnm(600, 1800, grng);
    Cluster cluster(ClusterConfig::for_graph(600, 8));
    const DistributedGraph edg(eg, VertexPartition::random(600, 8, 19));
    BoruvkaConfig cfg;
    cfg.seed = 29;
    const auto e0 = alloc_count();
    const auto res = connected_components(cluster, edg, cfg);
    const auto engine_allocs = alloc_count() - e0;
    const double per_superstep =
        static_cast<double>(engine_allocs) / static_cast<double>(res.stats.supersteps);
    std::printf("full engine: %llu allocations / %llu supersteps = %.1f per superstep\n",
                static_cast<unsigned long long>(engine_allocs),
                static_cast<unsigned long long>(res.stats.supersteps), per_superstep);
    if (per_superstep > 100.0) {
      std::printf("FAIL: allocations per superstep %.1f > 100 — registry "
                  "representation regressed\n",
                  per_superstep);
      ++failures;
    }
  }

  // Full-engine peak heap: with one sampler per machine the proxy side holds
  // O(1) accumulators, not one per label in its inbox, so a connectivity
  // run's heap high-water mark (graph, shards, engine state and all) stays
  // a small constant per vertex. One live accumulator per label measured
  // 3,769 B/vertex here; one per machine 1,761 B/vertex.
  {
    constexpr std::size_t kPeakN = 4096;
    constexpr double kMaxBytesPerVertex = 2500.0;
    kmmbench::reset_peak_heap();
    const auto base = kmmbench::heap_bytes();
    {
      Rng grng(31);
      const Graph eg = gen::gnm(kPeakN, 3 * kPeakN, grng);
      Cluster cluster(ClusterConfig::for_graph(kPeakN, 8));
      const DistributedGraph edg(eg, VertexPartition::random(kPeakN, 8, 37));
      BoruvkaConfig cfg;
      cfg.seed = 41;
      if (!connected_components(cluster, edg, cfg).converged) {
        std::printf("FAIL: peak-heap run did not converge\n");
        ++failures;
      }
    }
    const double per_vertex = static_cast<double>(kmmbench::peak_heap_bytes() - base) /
                              static_cast<double>(kPeakN);
    std::printf("full engine: peak heap %.0f B/vertex (n=%zu, k=8; bound %.0f)\n",
                per_vertex, kPeakN, kMaxBytesPerVertex);
    if (per_vertex > kMaxBytesPerVertex) {
      std::printf("FAIL: peak heap %.0f B/vertex > %.0f — per-label sketch "
                  "accumulators are back\n",
                  per_vertex, kMaxBytesPerVertex);
      ++failures;
    }
  }

  // Observability-plane steady state. Three claims, measured on the same
  // warmed runtime loop (a charged all-to-successor ring superstep):
  //   1. sinks disabled: the obs seam adds ZERO allocations per superstep
  //      on top of the allocation-free message plane;
  //   2. sinks attached (summarized timeline, pre-reserved; warm trace
  //      rings): recording is also allocation-free per superstep;
  //   3. with the alloc-count source registered, the timeline's own allocs
  //      column agrees — every steady-state row records 0.
  {
    obs::set_alloc_count_source(&kmmbench::alloc_count);
    constexpr MachineId kMachines = 8;
    constexpr int kSteps = 64;
    const auto ring_step = [](Runtime& rt) {
      rt.step([](MachineId self, std::span<const Message>, Outbox& out) {
        out.send((self + 1) % kMachines, 1, {std::uint64_t{self}}, 64);
      });
    };

    for (const unsigned threads : {1u, 4u}) {
      // Sinks disabled.
      {
        Cluster cluster(ClusterConfig{kMachines, 64});
        Runtime rt(cluster, RuntimeConfig{threads});
        for (int i = 0; i < 4; ++i) ring_step(rt);  // warm pool + arenas
        const auto b0 = alloc_count();
        for (int i = 0; i < kSteps; ++i) ring_step(rt);
        char what[96];
        std::snprintf(what, sizeof what,
                      "sinks-off runtime allocations (threads=%u)", threads);
        EXPECT_ZERO(alloc_count() - b0, what);
      }

      // Sinks attached.
      {
        Cluster cluster(ClusterConfig{kMachines, 64});
        MetricsTimelineConfig tcfg;
        tcfg.full_traffic_steps = 0;  // summarized rows: O(top_traffic) each
        MetricsTimeline timeline(tcfg);
        timeline.reserve(1024, kMachines);
        TraceRecorder trace;  // rings pre-reserved at construction
        const ObsSink sink{&timeline, &trace};
        Runtime rt(cluster, RuntimeConfig{threads, &sink});
        for (int i = 0; i < 4; ++i) ring_step(rt);
        const std::size_t warm_rows = timeline.size();
        const auto b0 = alloc_count();
        for (int i = 0; i < kSteps; ++i) ring_step(rt);
        char what[96];
        std::snprintf(what, sizeof what,
                      "sinks-on runtime allocations (threads=%u)", threads);
        EXPECT_ZERO(alloc_count() - b0, what);
        for (std::size_t i = warm_rows; i < timeline.size(); ++i) {
          EXPECT_ZERO(timeline.row(i).allocs, "timeline row alloc column");
        }
      }
    }
    obs::set_alloc_count_source(nullptr);
    std::printf("obs plane: steady-state supersteps allocation-free with sinks "
                "off and on\n");
  }

  if (failures == 0) std::printf("PASS\n");
  return failures == 0 ? 0 : 1;
}
