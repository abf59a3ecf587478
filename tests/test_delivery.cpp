// The shard->inbox delivery plane, the only way messages move:
// determinism under scheduling skew, an independent message-by-message
// ledger reference, and payload integrity through the per-inbox arenas.
//
// test_runtime.cpp proves every ported algorithm's ledger is
// thread-invariant; this suite attacks the delivery plane itself with
// graph-shaped traffic whose handler completion order is deliberately
// skewed by deterministic pseudo-random busy-waits, and checks the
// strongest observable contract: the full ClusterStats ledger AND the
// per-inbox message sequence (source, tag, every payload word, in
// delivered order) are bit-identical to the threads=1 run, and the ledger
// equals the cost rule applied by hand to the logged traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "kmm.hpp"

namespace kmm {
namespace {

constexpr MachineId kMachines = 8;
constexpr std::uint64_t kStressSteps = 6;  // sending steps per stress run

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

/// One delivered message as its receiver saw it.
struct Hop {
  std::uint64_t superstep;  // index of the delivering step
  MachineId src;
  MachineId dst;
  std::uint64_t wire_bits;
};

struct StressOutcome {
  ClusterStats stats;
  // Per machine: (src, tag, payload...) of every delivered message, in
  // delivered order — the strongest per-inbox observation available.
  std::vector<std::vector<std::uint64_t>> inbox_log;
  std::vector<std::vector<Hop>> hops;         // per receiving machine
  std::vector<std::uint64_t> sent_by_machine;  // Outbox::send calls per source
};

/// Flooding-shaped stress traffic: every machine pushes each hosted
/// vertex's id toward its cross-machine neighbors' homes each step; every
/// 17th vertex sends a 9-word payload so delivery exercises the spilled
/// (arena) path, the rest send 3-word inline payloads, and every 5th vertex
/// with a same-machine neighbor sends that machine a free local message.
/// With `delays`, a per-(step, machine) PRF-derived busy-wait skews which
/// handlers finish first — the message pattern is untouched, so any
/// observable difference is a delivery-plane ordering bug.
StressOutcome run_skewed_stress(const Graph& g, unsigned threads, bool delays) {
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), kMachines));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), kMachines, 99));
  Runtime rt(cluster, RuntimeConfig{.threads = threads});
  std::vector<std::vector<std::uint64_t>> log(kMachines);
  std::vector<std::vector<Hop>> hops(kMachines);
  std::vector<std::uint64_t> sent(kMachines, 0);
  const auto receive = [&](std::uint64_t s, MachineId self, std::span<const Message> inbox) {
    for (const auto& msg : inbox) {
      log[self].push_back(msg.src);
      log[self].push_back(msg.tag);
      for (const std::uint64_t w : msg.payload()) log[self].push_back(w);
      hops[self].push_back(Hop{s - 1, msg.src, self, msg.wire_bits()});
    }
  };
  const std::uint64_t label_bits = 2 * bits_for(g.num_vertices()) + 8;
  for (std::uint64_t s = 0; s < kStressSteps; ++s) {
    rt.step([&](MachineId self, std::span<const Message> inbox, Outbox& out) {
      if (delays) {
        const std::uint64_t spins = split3(1717, s, self) % 40000;
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < spins; ++i) sink = sink + i;
      }
      receive(s, self, inbox);
      std::uint64_t big[9];
      for (const Vertex v : dg.vertices_of(self)) {
        for (const auto& he : dg.neighbors(v)) {
          const MachineId dst = dg.home(he.to);
          if (dst == self) {
            if (v % 5 == 0) {
              out.send(self, v, {v, he.to}, label_bits);
              ++sent[self];
            }
            continue;
          }
          ++sent[self];
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
    receive(kStressSteps, self, inbox);
  });
  return StressOutcome{cluster.stats(), std::move(log), std::move(hops), std::move(sent)};
}

/// The k-machine cost rule applied message by message to logged traffic,
/// independently of the Cluster: per superstep, sum wire bits per directed
/// link and charge ceil(max link / B) rounds; self-messages are local and
/// free; a superstep counts when it moved any message.
ClusterStats reference_ledger(const std::vector<std::vector<Hop>>& hops_by_dst,
                              std::uint64_t steps, std::uint64_t bandwidth) {
  ClusterStats ref;
  ref.sent_bits_by_machine.assign(kMachines, 0);
  ref.received_bits_by_machine.assign(kMachines, 0);
  for (std::uint64_t s = 0; s < steps; ++s) {
    std::vector<std::uint64_t> link(static_cast<std::size_t>(kMachines) * kMachines, 0);
    bool moved = false;
    for (const auto& hops : hops_by_dst) {
      for (const Hop& hop : hops) {
        if (hop.superstep != s) continue;
        moved = true;
        if (hop.src == hop.dst) {
          ++ref.local_messages;
          continue;
        }
        ++ref.messages;
        ref.total_bits += hop.wire_bits;
        ref.sent_bits_by_machine[hop.src] += hop.wire_bits;
        ref.received_bits_by_machine[hop.dst] += hop.wire_bits;
        link[hop.src * kMachines + hop.dst] += hop.wire_bits;
      }
    }
    if (!moved) continue;
    const std::uint64_t max_link = *std::max_element(link.begin(), link.end());
    ++ref.supersteps;
    ref.rounds += (max_link + bandwidth - 1) / bandwidth;
    ref.max_link_bits = std::max(ref.max_link_bits, max_link);
    ref.last_superstep_link_bits = max_link;
    if (max_link > 0) ref.superstep_link_max.add(static_cast<double>(max_link));
  }
  return ref;
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

TEST(DeliveryPlane, LedgerMatchesMessageByMessageReference) {
  for (const auto& [name, g] : stress_graphs()) {
    const std::uint64_t bandwidth =
        ClusterConfig::for_graph(g.num_vertices(), kMachines).bandwidth_bits;
    for (const unsigned threads : {1u, 2u, 8u}) {
      const auto run = run_skewed_stress(g, threads, /*delays=*/threads > 1);
      // Nothing sent went missing: every Outbox::send, self-addressed ones
      // included, reached an inbox, and each inbox lists its senders in
      // ascending source order.
      std::vector<std::uint64_t> received_from(kMachines, 0);
      for (const auto& hops : run.hops) {
        for (std::size_t i = 0; i < hops.size(); ++i) {
          ++received_from[hops[i].src];
          if (i > 0 && hops[i - 1].superstep == hops[i].superstep) {
            EXPECT_LE(hops[i - 1].src, hops[i].src) << name << " threads=" << threads;
          }
        }
      }
      EXPECT_EQ(received_from, run.sent_by_machine) << name << " threads=" << threads;
      const ClusterStats ref = reference_ledger(run.hops, kStressSteps, bandwidth);
      ASSERT_GT(ref.messages, 0u) << name;
      ASSERT_GT(ref.local_messages, 0u) << name;
      expect_stats_identical(run.stats, ref, name);
      EXPECT_EQ(run.stats.last_superstep_link_bits, ref.last_superstep_link_bits) << name;
    }
  }
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
  // Alternating StepMode::kInline (in-order handlers and delivery on the
  // calling thread) and parallel supersteps must accumulate one coherent
  // ledger, identical to the threads=1 run.
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
