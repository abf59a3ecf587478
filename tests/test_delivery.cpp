// The direct shard->inbox delivery plane: determinism under scheduling
// skew, payload integrity through the per-inbox arenas, and the
// staged-send fallback.
//
// test_runtime.cpp proves every ported algorithm's ledger is
// thread-invariant; this suite attacks the delivery plane itself with
// graph-shaped traffic whose handler completion order is deliberately
// skewed by deterministic pseudo-random busy-waits, and checks the
// strongest observable contract: the full ClusterStats ledger AND the
// per-inbox message sequence (source, tag, every payload word, in
// delivered order) are bit-identical to the sequential threads=1 run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "kmm.hpp"

namespace kmm {
namespace {

constexpr MachineId kMachines = 8;

void expect_stats_identical(const ClusterStats& a, const ClusterStats& b, const char* what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.supersteps, b.supersteps) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.local_messages, b.local_messages) << what;
  EXPECT_EQ(a.total_bits, b.total_bits) << what;
  EXPECT_EQ(a.max_link_bits, b.max_link_bits) << what;
  EXPECT_EQ(a.cut_bits, b.cut_bits) << what;
  EXPECT_EQ(a.sent_bits_by_machine, b.sent_bits_by_machine) << what;
  EXPECT_EQ(a.received_bits_by_machine, b.received_bits_by_machine) << what;
  EXPECT_EQ(a.superstep_link_max.count(), b.superstep_link_max.count()) << what;
  EXPECT_DOUBLE_EQ(a.superstep_link_max.mean(), b.superstep_link_max.mean()) << what;
  EXPECT_DOUBLE_EQ(a.superstep_link_max.min(), b.superstep_link_max.min()) << what;
  EXPECT_DOUBLE_EQ(a.superstep_link_max.max(), b.superstep_link_max.max()) << what;
}

std::vector<std::pair<const char*, Graph>> stress_graphs() {
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("path", gen::path(600));
  Rng rng_gnm(7);
  graphs.emplace_back("gnm", gen::gnm(800, 2400, rng_gnm));
  Rng rng_rmat(11);
  graphs.emplace_back("rmat", gen::rmat(1024, 3000, rng_rmat));
  return graphs;
}

struct StressOutcome {
  ClusterStats stats;
  // Per machine: (src, tag, payload...) of every delivered message, in
  // delivered order — the strongest per-inbox observation available.
  std::vector<std::vector<std::uint64_t>> inbox_log;
};

/// Flooding-shaped stress traffic: every machine pushes each hosted
/// vertex's id toward its cross-machine neighbors' homes each step; every
/// 17th vertex sends a 9-word payload so delivery exercises the spilled
/// (arena) path, the rest send 3-word inline payloads. With `delays`, a
/// per-(step, machine) PRF-derived busy-wait skews which handlers finish
/// first — the message pattern is untouched, so any observable difference
/// is a delivery-plane ordering bug.
StressOutcome run_skewed_stress(const Graph& g, unsigned threads, bool delays) {
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), kMachines));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), kMachines, 99));
  Runtime rt(cluster, RuntimeConfig{.threads = threads});
  std::vector<std::vector<std::uint64_t>> log(kMachines);
  const std::uint64_t label_bits = 2 * bits_for(g.num_vertices()) + 8;
  constexpr std::size_t kSteps = 6;
  for (std::uint64_t s = 0; s < kSteps; ++s) {
    rt.step([&](MachineId self, std::span<const Message> inbox, Outbox& out) {
      if (delays) {
        const std::uint64_t spins = split3(1717, s, self) % 40000;
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < spins; ++i) sink = sink + i;
      }
      auto& mylog = log[self];
      for (const auto& msg : inbox) {
        mylog.push_back(msg.src);
        mylog.push_back(msg.tag);
        for (const std::uint64_t w : msg.payload()) mylog.push_back(w);
      }
      std::uint64_t big[9];
      for (const Vertex v : dg.vertices_of(self)) {
        for (const auto& he : dg.neighbors(v)) {
          const MachineId dst = dg.home(he.to);
          if (dst == self) continue;
          if (v % 17 == 0) {
            for (std::size_t w = 0; w < 9; ++w) {
              big[w] = static_cast<std::uint64_t>(v) * 100 + he.to + w + s;
            }
            out.send(dst, v, big, 0);
          } else {
            out.send(dst, v, {v, he.to, s}, label_bits);
          }
        }
      }
    });
  }
  // Drain step: the last superstep's deliveries must be logged too.
  rt.step([&](MachineId self, std::span<const Message> inbox, Outbox&) {
    for (const auto& msg : inbox) {
      log[self].push_back(msg.src);
      log[self].push_back(msg.tag);
      for (const std::uint64_t w : msg.payload()) log[self].push_back(w);
    }
  });
  return StressOutcome{cluster.stats(), std::move(log)};
}

TEST(DeliveryPlane, SkewedSchedulingKeepsLedgerAndInboxOrderIdentical) {
  for (const auto& [name, g] : stress_graphs()) {
    const auto baseline = run_skewed_stress(g, 1, /*delays=*/false);
    ASSERT_GT(baseline.stats.messages, 0u) << name;
    // Delays must be invisible even sequentially (they only burn cycles).
    const auto delayed_seq = run_skewed_stress(g, 1, /*delays=*/true);
    EXPECT_EQ(baseline.inbox_log, delayed_seq.inbox_log) << name;
    expect_stats_identical(delayed_seq.stats, baseline.stats, name);
    for (const unsigned threads : {2u, 8u}) {
      const auto run = run_skewed_stress(g, threads, /*delays=*/true);
      EXPECT_EQ(run.inbox_log, baseline.inbox_log) << name << " threads=" << threads;
      expect_stats_identical(run.stats, baseline.stats, name);
    }
  }
}

TEST(DeliveryPlane, StagedDirectSendsFallBackToMergePath) {
  // Messages staged via Cluster::send() between steps force the runtime
  // off the direct plane for that superstep; the observable contract —
  // staged messages first, then shard messages in ascending source order —
  // must match the sequential path exactly.
  const auto run = [](unsigned threads) {
    Cluster cluster(ClusterConfig{.k = 4, .bandwidth_bits = 64});
    Runtime rt(cluster, RuntimeConfig{.threads = threads});
    cluster.send(0, 2, /*tag=*/7, {111}, 8);
    cluster.send(1, 2, /*tag=*/7, {222}, 8);
    rt.step([](MachineId self, std::span<const Message>, Outbox& out) {
      out.send(2, /*tag=*/9, {static_cast<std::uint64_t>(self)}, 8);
    });
    std::vector<std::uint64_t> seen;
    for (const auto& msg : cluster.inbox(2)) {
      seen.push_back(msg.src);
      seen.push_back(msg.tag);
      seen.push_back(msg.payload()[0]);
    }
    return std::pair{std::move(seen), cluster.stats().total_bits};
  };
  const auto sequential = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(parallel.first, sequential.first);
  EXPECT_EQ(parallel.second, sequential.second);
  // Machine 2's own send is self-addressed (local, free) but still lands in
  // its inbox, between sources 1 and 3.
  EXPECT_EQ(sequential.first,
            (std::vector<std::uint64_t>{0, 7, 111, 1, 7, 222, 0, 9, 0, 1, 9, 1, 2, 9, 2, 3,
                                        9, 3}));
}

TEST(DeliveryPlane, SpilledPayloadsStayValidForTheWholeInboxGeneration) {
  // Spilled payloads live in the destination inbox's arena after direct
  // delivery; they must survive until the NEXT delivery recycles that
  // generation, including across a step where other machines' inboxes are
  // refilled (per-destination arenas are independent).
  Cluster cluster(ClusterConfig{.k = 4, .bandwidth_bits = 1 << 20});
  Runtime rt(cluster, RuntimeConfig{.threads = 4});
  std::vector<std::uint64_t> big(3 * kInlinePayloadWords);
  rt.step([&](MachineId self, std::span<const Message>, Outbox& out) {
    if (self == 0) {
      for (std::size_t w = 0; w < big.size(); ++w) big[w] = 1000 + w;
      out.send(3, /*tag=*/1, big, 0);
    }
  });
  // Machine 3's payload must be intact after an intervening superstep that
  // delivers only to other machines' inboxes... which is impossible by
  // design: every delivery recycles every inbox. What must hold instead is
  // that the span handed to the NEXT step's handler is the still-valid one.
  int checked = 0;
  rt.step([&](MachineId self, std::span<const Message> inbox, Outbox&) {
    if (self != 3) return;
    ASSERT_EQ(inbox.size(), 1u);
    ASSERT_EQ(inbox[0].payload().size(), 3 * kInlinePayloadWords);
    for (std::size_t w = 0; w < inbox[0].payload().size(); ++w) {
      EXPECT_EQ(inbox[0].payload()[w], 1000 + w);
    }
    ++checked;
  });
  EXPECT_EQ(checked, 1);
}

TEST(DeliveryPlane, MixedDirectAndInlineStepsShareOneLedger) {
  // Alternating StepMode::kInline (sequential staging + superstep()) and
  // parallel (direct plane) supersteps must accumulate one coherent ledger,
  // identical to the all-sequential run.
  const auto run = [](unsigned threads) {
    Cluster cluster(ClusterConfig{.k = 4, .bandwidth_bits = 64});
    Runtime rt(cluster, RuntimeConfig{.threads = threads});
    for (int s = 0; s < 6; ++s) {
      const StepMode mode = s % 2 == 0 ? StepMode::kParallel : StepMode::kInline;
      rt.step(
          [&](MachineId self, std::span<const Message>, Outbox& out) {
            out.send((self + 1) % 4, /*tag=*/1, {static_cast<std::uint64_t>(s)}, 24);
          },
          mode);
    }
    return cluster.stats();
  };
  const auto sequential = run(1);
  const auto parallel = run(4);
  expect_stats_identical(parallel, sequential, "mixed modes");
  EXPECT_EQ(sequential.supersteps, 6u);
}

TEST(InputPipeline, DistributedGraphParallelBuildMatchesSerial) {
  // Above the cutoff, the chunked hosted-list build (per-chunk histograms +
  // exclusive prefix + scatter) must produce the identical CSR-flattened
  // hosted lists as the serial fill, for hashed and tabled partitions.
  const Graph g = gen::path(50000);
  ThreadPool pool(4);
  for (const bool hashed : {true, false}) {
    const auto part = hashed ? VertexPartition::random(50000, 12, 31)
                             : VertexPartition::skewed(50000, 12, 0.3);
    const DistributedGraph serial(g, part);
    const DistributedGraph parallel(g, part, &pool);
    EXPECT_EQ(parallel.max_machine_load(), serial.max_machine_load());
    for (MachineId i = 0; i < 12; ++i) {
      const auto a = serial.vertices_of(i);
      const auto b = parallel.vertices_of(i);
      ASSERT_EQ(a.size(), b.size()) << "machine " << i;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "machine " << i;
      // Ascending ids — the iteration order the algorithms depend on.
      EXPECT_TRUE(std::is_sorted(b.begin(), b.end())) << "machine " << i;
    }
  }
}

}  // namespace
}  // namespace kmm
