// The observability plane (src/obs/): per-superstep MetricsTimeline rows,
// TraceRecorder spans, and the guarantee that attaching either sink never
// perturbs the cluster ledger.
//
// Core invariants pinned here (CI also runs this suite under TSan):
//   * timeline row count == ClusterStats::supersteps, for every thread
//     count, with free supersteps and analytic charge_rounds folded in;
//   * summing the rows reproduces the final ClusterStats exactly — the
//     timeline is a lossless decomposition of the ledger;
//   * the ledger with sinks attached is bit-identical to the ledger
//     without (observation must not change the experiment);
//   * trace span counts are a function of steps and phases.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "kmm.hpp"

namespace kmm {
namespace {

Graph test_graph(std::size_t n = 256) {
  Rng rng(4242);
  return gen::gnm(n, 3 * n, rng);
}

/// Full-resolution timeline config (every row keeps per-machine vectors).
MetricsTimelineConfig full_res() {
  MetricsTimelineConfig cfg;
  cfg.full_traffic_steps = 1u << 20;
  return cfg;
}

struct LedgerRow {
  std::uint64_t superstep, rounds, messages, local_messages, bits, link_max;
  bool operator==(const LedgerRow&) const = default;
};

// ------------------------------------------------- timeline vs. the ledger

TEST(ObsPlane, TimelineRowsSumToFinalLedgerAcrossThreads) {
  const Graph g = test_graph();
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;

  std::vector<std::vector<LedgerRow>> per_thread_rows;
  for (const unsigned threads : {1u, 2u, 8u}) {
    Cluster cluster(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, VertexPartition::random(n, k, 7));
    MetricsTimeline timeline(full_res());
    TraceRecorder trace;
    const ObsSink sink{&timeline, &trace};

    BoruvkaConfig cfg;
    cfg.seed = 99;
    cfg.threads = threads;
    cfg.obs = &sink;
    const auto res = connected_components(cluster, dg, cfg);
    EXPECT_TRUE(res.converged);

    const ClusterStats& s = cluster.stats();
    // One row per *ledger* superstep, free steps notwithstanding.
    ASSERT_EQ(timeline.size(), s.supersteps) << "threads=" << threads;

    // The rows decompose the final ledger exactly (charge_rounds included).
    const auto total = timeline.totals();
    EXPECT_EQ(total.rounds, s.rounds) << "threads=" << threads;
    EXPECT_EQ(total.messages, s.messages) << "threads=" << threads;
    EXPECT_EQ(total.local_messages, s.local_messages) << "threads=" << threads;
    EXPECT_EQ(total.bits, s.total_bits) << "threads=" << threads;
    EXPECT_EQ(total.cut_bits, s.cut_bits) << "threads=" << threads;
    EXPECT_EQ(total.link_max_bits, s.max_link_bits) << "threads=" << threads;

    // Per-machine traffic columns decompose the per-machine ledger arrays.
    std::vector<std::uint64_t> sent(k, 0), received(k, 0);
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      const auto row_sent = timeline.sent_bits(i);
      const auto row_recv = timeline.received_bits(i);
      ASSERT_EQ(row_sent.size(), k);
      ASSERT_EQ(row_recv.size(), k);
      for (MachineId m = 0; m < k; ++m) {
        sent[m] += row_sent[m];
        received[m] += row_recv[m];
      }
    }
    EXPECT_EQ(sent, s.sent_bits_by_machine) << "threads=" << threads;
    EXPECT_EQ(received, s.received_bits_by_machine) << "threads=" << threads;

    // Ledger columns of every row are thread-invariant (phase ns are not).
    std::vector<LedgerRow> rows;
    rows.reserve(timeline.size());
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      const auto& r = timeline.row(i);
      rows.push_back(LedgerRow{r.superstep, r.rounds, r.messages, r.local_messages,
                               r.bits, r.link_max_bits});
    }
    per_thread_rows.push_back(std::move(rows));
  }
  ASSERT_EQ(per_thread_rows.size(), 3u);
  EXPECT_EQ(per_thread_rows[0], per_thread_rows[1]);
  EXPECT_EQ(per_thread_rows[0], per_thread_rows[2]);
}

TEST(ObsPlane, SequentialRuntimesConcatenateOnOneTimeline) {
  Rng wrng(7);
  const Graph g = with_unique_weights(with_random_weights(test_graph(128), wrng, 10000));
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;
  Cluster cluster(ClusterConfig::for_graph(n, k));
  const DistributedGraph dg(g, VertexPartition::random(n, k, 5));

  MetricsTimeline timeline(full_res());
  const ObsSink sink{&timeline, nullptr};
  BoruvkaConfig cfg;
  cfg.threads = 2;
  cfg.obs = &sink;
  const auto mst = minimum_spanning_forest(cluster, dg, cfg);
  const std::size_t rows_after_mst = timeline.size();
  const auto strict = announce_mst_to_home_machines(cluster, dg, mst, 2, &sink);
  EXPECT_FALSE(strict.edges_by_home.empty());
  const std::size_t rows_after_announce = timeline.size();
  EXPECT_GT(rows_after_announce, rows_after_mst);

  // The four verifiers that finish with a label comparison: their
  // control-plane supersteps must land on the same timeline too.
  const WeightedEdge e0 = g.edges()[0];
  const WeightedEdge e1 = g.edges()[1];
  (void)verify_st_connectivity(cluster, dg, 0, static_cast<Vertex>(n - 1), cfg);
  (void)verify_edge_on_all_paths(cluster, dg, e0.u, e0.v, e0.u, e0.v, cfg);
  (void)verify_st_cut(cluster, dg, e1.u, e1.v, {{e0.u, e0.v}, {e1.u, e1.v}}, cfg);
  (void)verify_e_cycle_containment(cluster, dg, e1.u, e1.v, cfg);

  // The announce pass and the verifiers appended their charged supersteps
  // to the same timeline and the sum still reproduces the cluster-lifetime
  // ledger.
  const ClusterStats& s = cluster.stats();
  EXPECT_GT(timeline.size(), rows_after_announce);
  EXPECT_EQ(timeline.size(), s.supersteps);
  const auto total = timeline.totals();
  EXPECT_EQ(total.rounds, s.rounds);
  EXPECT_EQ(total.bits, s.total_bits);
  EXPECT_EQ(total.messages, s.messages);
}

TEST(ObsPlane, TimelineDecomposesLedgerWithFaultScheduleActive) {
  // With the fault plane injecting crashes and lossy links, the timeline
  // must still be a lossless decomposition of the final ledger: recovery
  // stalls and retransmit overhead (charge_rounds between steps) fold into
  // charged rows, replayed supersteps never produce extra rows, and the
  // fault_events column accounts for every injected fault.
  const Graph g = test_graph();
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;

  FaultSchedule sched(11, FaultProfile::named("lossy"));
  sched.add_crash(2, 3);
  sched.add_crash(6, 5);

  for (const unsigned threads : {1u, 2u, 8u}) {
    Cluster cluster(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, VertexPartition::random(n, k, 7));
    MetricsTimeline timeline(full_res());
    const ObsSink sink{&timeline, nullptr};
    FaultPlane plane(sched);

    BoruvkaConfig cfg;
    cfg.seed = 99;
    cfg.threads = threads;
    cfg.obs = &sink;
    cfg.fault = &plane;
    const auto res = connected_components(cluster, dg, cfg);
    EXPECT_TRUE(res.converged);
    const FaultStats fs = plane.stats();
    ASSERT_EQ(fs.crashes, 2u) << "threads=" << threads;
    ASSERT_GT(fs.drops + fs.duplicates + fs.reorders, 0u);

    const ClusterStats& s = cluster.stats();
    ASSERT_EQ(timeline.size(), s.supersteps) << "threads=" << threads;
    const auto total = timeline.totals();
    EXPECT_EQ(total.rounds, s.rounds) << "threads=" << threads;
    EXPECT_EQ(total.messages, s.messages) << "threads=" << threads;
    EXPECT_EQ(total.bits, s.total_bits) << "threads=" << threads;

    // Every injected fault lands in exactly one row's fault_events column.
    std::uint64_t row_events = 0;
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      row_events += timeline.row(i).fault_events;
    }
    EXPECT_EQ(row_events, total.fault_events);
    EXPECT_EQ(total.fault_events, fs.crashes + fs.drops + fs.duplicates + fs.reorders +
                                      fs.corruptions);
    EXPECT_GT(total.fault_events, 0u);
  }
}

// ---------------------------------------------- observation changes nothing

TEST(ObsPlane, LedgerIsBitIdenticalWithAndWithoutSinks) {
  const Graph g = test_graph();
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;
  const auto run = [&](const ObsSink* obs) {
    Cluster cluster(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, VertexPartition::random(n, k, 7));
    BoruvkaConfig cfg;
    cfg.seed = 99;
    cfg.threads = 2;
    cfg.obs = obs;
    (void)connected_components(cluster, dg, cfg);
    return cluster.stats();
  };

  const ClusterStats off = run(nullptr);
  MetricsTimeline timeline;
  TraceRecorder trace;
  const ObsSink sink{&timeline, &trace};
  const ClusterStats on = run(&sink);

  EXPECT_EQ(on.rounds, off.rounds);
  EXPECT_EQ(on.supersteps, off.supersteps);
  EXPECT_EQ(on.messages, off.messages);
  EXPECT_EQ(on.local_messages, off.local_messages);
  EXPECT_EQ(on.total_bits, off.total_bits);
  EXPECT_EQ(on.max_link_bits, off.max_link_bits);
  EXPECT_EQ(on.cut_bits, off.cut_bits);
  EXPECT_EQ(on.last_superstep_link_bits, off.last_superstep_link_bits);
  EXPECT_EQ(on.sent_bits_by_machine, off.sent_bits_by_machine);
  EXPECT_EQ(on.received_bits_by_machine, off.received_bits_by_machine);
  EXPECT_EQ(on.superstep_link_max.count(), off.superstep_link_max.count());
  EXPECT_EQ(on.superstep_link_max.sum(), off.superstep_link_max.sum());
}

// ------------------------------------------------------------- trace spans

// One charged ring superstep: machine i sends one word to (i + 1) % k.
void ring_step(Runtime& rt, StepMode mode = StepMode::kParallel) {
  const MachineId k = rt.k();
  rt.step(
      [k](MachineId self, std::span<const Message>, Outbox& out) {
        out.send((self + 1) % k, 1, {std::uint64_t{self}}, 64);
      },
      mode);
}

TEST(ObsPlane, TraceSpanCountsMatchStepsTimesPhasesParallel) {
  const MachineId k = 8;
  const std::size_t steps = 10;
  Cluster cluster(ClusterConfig{k, 64});
  TraceRecorder trace;
  const ObsSink sink{nullptr, &trace};
  Runtime rt(cluster, RuntimeConfig{8, &sink});
  ASSERT_EQ(rt.threads(), 8u);
  for (std::size_t s = 0; s < steps; ++s) ring_step(rt);

  // Parallel direct path: 1 superstep span, k handler spans, k delivery
  // task spans, 1 reduce span — per step.
  EXPECT_EQ(trace.spans(SpanKind::kSuperstep), steps);
  EXPECT_EQ(trace.spans(SpanKind::kInline), 0u);
  EXPECT_EQ(trace.spans(SpanKind::kHandler), steps * k);
  EXPECT_EQ(trace.spans(SpanKind::kDeliver), steps * k);
  EXPECT_EQ(trace.spans(SpanKind::kReduce), steps);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(ObsPlane, TraceSpanCountsSequentialAndInline) {
  const MachineId k = 4;
  Cluster cluster(ClusterConfig{k, 64});
  TraceRecorder trace;
  const ObsSink sink{nullptr, &trace};
  Runtime rt(cluster, RuntimeConfig{1, &sink});
  const std::size_t parallel_steps = 3, inline_steps = 2;
  for (std::size_t s = 0; s < parallel_steps; ++s) ring_step(rt);
  for (std::size_t s = 0; s < inline_steps; ++s) ring_step(rt, StepMode::kInline);

  // The one delivery sequence, run in order on this thread: 1 top-level
  // span, k handler spans, k delivery task spans, 1 reduce span — per step.
  EXPECT_EQ(trace.spans(SpanKind::kSuperstep), parallel_steps);
  EXPECT_EQ(trace.spans(SpanKind::kInline), inline_steps);
  EXPECT_EQ(trace.spans(SpanKind::kHandler), (parallel_steps + inline_steps) * k);
  EXPECT_EQ(trace.spans(SpanKind::kDeliver), (parallel_steps + inline_steps) * k);
  EXPECT_EQ(trace.spans(SpanKind::kReduce), parallel_steps + inline_steps);
}

TEST(ObsPlane, TraceRingDropsOldestBeyondCapacity) {
  TraceRecorderConfig cfg;
  cfg.lanes = 1;
  cfg.events_per_lane = 4;
  TraceRecorder trace(cfg);
  for (std::uint32_t i = 0; i < 10; ++i) {
    trace.record(0, SpanKind::kHandler, i, i, i * 10, i * 10 + 5);
  }
  EXPECT_EQ(trace.total_spans(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  trace.clear();
  EXPECT_EQ(trace.total_spans(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
}

// -------------------------------------------------- free steps and charges

TEST(ObsPlane, FreeSuperstepsFoldIntoNextChargedRow) {
  const MachineId k = 4;
  Cluster cluster(ClusterConfig{k, 64});
  MetricsTimeline timeline(full_res());
  const ObsSink sink{&timeline, nullptr};
  Runtime rt(cluster, RuntimeConfig{1, &sink});

  const auto free_step = [&] {
    rt.step([](MachineId, std::span<const Message>, Outbox&) {});
  };
  free_step();          // free: no row
  ring_step(rt);        // charged: row 0 (carries the free step's time)
  free_step();
  free_step();
  cluster.charge_rounds(17);  // analytic charge between steps
  ring_step(rt);        // charged: row 1 (carries the 17 rounds)
  free_step();          // trailing free step: banked, never emitted

  EXPECT_EQ(cluster.stats().supersteps, 2u);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline.row(0).superstep, 1u);
  EXPECT_EQ(timeline.row(1).superstep, 2u);
  // Row 1 includes the analytic charge: its rounds delta is the delivery's
  // rounds plus 17.
  EXPECT_EQ(timeline.row(0).rounds + 17, timeline.row(1).rounds);
  EXPECT_EQ(timeline.totals().rounds, cluster.stats().rounds);
}

// --------------------------------------------------------- top-k skew rows

TEST(ObsPlane, TopTrafficSummaryRanksHeaviestMachines) {
  const MachineId k = 6;
  Cluster cluster(ClusterConfig{k, 64});
  MetricsTimelineConfig tcfg;
  tcfg.full_traffic_steps = 0;  // summarize from row 0
  tcfg.top_traffic = 2;
  MetricsTimeline timeline(tcfg);
  const ObsSink sink{&timeline, nullptr};
  Runtime rt(cluster, RuntimeConfig{1, &sink});

  // Machine 3 sends by far the most bits, machine 1 second; everyone else
  // one small message. All traffic lands on machine 0.
  rt.step([](MachineId self, std::span<const Message>, Outbox& out) {
    if (self == 0) return;
    const std::uint64_t bits = self == 3 ? 50000 : (self == 1 ? 9000 : 100);
    out.send(0, 1, {std::uint64_t{self}}, bits);
  });

  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_TRUE(timeline.sent_bits(0).empty());  // summarized, not full-res
  const auto top_sent = timeline.top_sent(0);
  ASSERT_EQ(top_sent.size(), 2u);
  EXPECT_EQ(top_sent[0].machine, 3u);
  EXPECT_EQ(top_sent[1].machine, 1u);
  EXPECT_GT(top_sent[0].bits, top_sent[1].bits);
  const auto top_recv = timeline.top_received(0);
  ASSERT_EQ(top_recv.size(), 2u);
  EXPECT_EQ(top_recv[0].machine, 0u);
  // Only one machine received anything; the summary pads with zero rows.
  EXPECT_EQ(top_recv[1].bits, 0u);
}

}  // namespace
}  // namespace kmm
