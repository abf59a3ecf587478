// The parallel superstep runtime: thread pool, MachineProgram execution,
// and the central invariant that results AND the full cluster ledger are
// bit-identical for every thread count (threads ∈ {1, 2, 8}), on
// path / gnm / rmat inputs.
//
// The RuntimeDeterminism suite covers every ported algorithm — Borůvka
// connectivity/MST, flooding, referee, leader election, min-cut, two-edge
// connectivity, the verification reductions, and the REP-model baselines —
// and CI runs it under ThreadSanitizer.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "kmm.hpp"

namespace kmm {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyGenerations) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(16, [&](std::size_t i) { sum += i; });
  }
  EXPECT_EQ(sum.load(), 50u * (15 * 16 / 2));
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(32,
                                 [&](std::size_t i) {
                                   if (i == 17) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must still be usable after an exceptional generation.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ZeroCountIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

// ------------------------------------------------------------ MachineProgram

// Every machine forwards an accumulating value one position around the ring
// each superstep; the trajectory is fully deterministic, so any scheduling
// nondeterminism in the runtime would show up as a wrong final state.
class ShiftSumProgram final : public MachineProgram {
 public:
  ShiftSumProgram(MachineId k, int total_supersteps)
      : k_(k), total_(total_supersteps), value_(k), calls_(k, 0) {
    std::iota(value_.begin(), value_.end(), 0);
  }

  void on_superstep(MachineId self, std::span<const Message> inbox, Outbox& out) override {
    for (const auto& msg : inbox) value_[self] = msg.payload()[0] + self;
    if (calls_[self] < total_) {
      out.send((self + 1) % k_, /*tag=*/1, {value_[self]}, 8);
    }
    ++calls_[self];
  }

  // Done once the superstep after the last send has consumed the final
  // deliveries (that trailing superstep carries no messages, so it's free).
  [[nodiscard]] bool done() const override { return calls_[0] > total_; }

  [[nodiscard]] const std::vector<std::uint64_t>& values() const { return value_; }

 private:
  MachineId k_;
  int total_;
  std::vector<std::uint64_t> value_;
  std::vector<int> calls_;
};

std::vector<std::uint64_t> reference_shift_sum(MachineId k, int total) {
  std::vector<std::uint64_t> value(k);
  std::iota(value.begin(), value.end(), 0);
  for (int s = 0; s < total; ++s) {
    std::vector<std::uint64_t> next(k);
    for (MachineId i = 0; i < k; ++i) next[(i + 1) % k] = value[i] + (i + 1) % k;
    value = next;
  }
  return value;
}

TEST(Runtime, MachineProgramMatchesReferenceSequential) {
  Cluster cluster(ClusterConfig{.k = 6, .bandwidth_bits = 64});
  Runtime rt(cluster, RuntimeConfig{.threads = 1});
  EXPECT_EQ(rt.threads(), 1u);
  ShiftSumProgram prog(6, 10);
  rt.run(prog, 64);
  EXPECT_EQ(prog.values(), reference_shift_sum(6, 10));
  // Exactly the 10 shifting supersteps deliver; the drain step is free.
  EXPECT_EQ(cluster.stats().supersteps, 10u);
}

TEST(Runtime, MachineProgramMatchesReferenceParallel) {
  Cluster cluster(ClusterConfig{.k = 6, .bandwidth_bits = 64});
  Runtime rt(cluster, RuntimeConfig{.threads = 4});
  EXPECT_EQ(rt.threads(), 4u);
  ShiftSumProgram prog(6, 10);
  rt.run(prog, 64);
  EXPECT_EQ(prog.values(), reference_shift_sum(6, 10));
}

TEST(Runtime, ThreadsZeroResolvesToHardwareClampedToK) {
  Cluster cluster(ClusterConfig{.k = 2, .bandwidth_bits = 64});
  Runtime rt(cluster, RuntimeConfig{.threads = 0});
  EXPECT_GE(rt.threads(), 1u);
  EXPECT_LE(rt.threads(), 2u);
}

TEST(Runtime, InlineStepModeMatchesParallel) {
  // The per-step execution mode is observationally invisible: same inbox
  // contents, same ledger.
  auto run = [](StepMode mode) {
    Cluster cluster(ClusterConfig{.k = 5, .bandwidth_bits = 64});
    Runtime rt(cluster, RuntimeConfig{.threads = 4});
    ShiftSumProgram prog(5, 7);
    while (!prog.done()) rt.step(prog, mode);
    return std::pair{prog.values(), cluster.stats().rounds};
  };
  const auto parallel = run(StepMode::kParallel);
  const auto inline_ = run(StepMode::kInline);
  EXPECT_EQ(parallel.first, inline_.first);
  EXPECT_EQ(parallel.second, inline_.second);
  EXPECT_EQ(parallel.first, reference_shift_sum(5, 7));
}

TEST(Runtime, SpilledPayloadsSurviveShardMerge) {
  // Payloads longer than kInlinePayloadWords go through a shard arena in
  // parallel mode and are re-homed into the cluster's pending arena at the
  // batch merge; they must arrive intact and stay readable for the whole
  // following superstep.
  Cluster cluster(ClusterConfig{.k = 4, .bandwidth_bits = 1 << 20});
  Runtime rt(cluster, RuntimeConfig{.threads = 4});
  rt.step([&](MachineId i, std::span<const Message>, Outbox& out) {
    std::array<std::uint64_t, 2 * kInlinePayloadWords> buf;
    for (MachineId j = 0; j < 4; ++j) {
      for (auto& w : buf) w = static_cast<std::uint64_t>(i) * 100 + j;
      out.send(j, /*tag=*/5, buf, 0);
      buf.fill(0);  // send copied; the scratch buffer is reusable at once
    }
  });
  std::atomic<int> checked{0};
  std::atomic<int> bad{0};
  rt.step([&](MachineId i, std::span<const Message> inbox, Outbox&) {
    if (inbox.size() != 4) ++bad;
    for (const auto& msg : inbox) {
      if (msg.payload().size() != 2 * kInlinePayloadWords) ++bad;
      for (const std::uint64_t w : msg.payload()) {
        if (w != static_cast<std::uint64_t>(msg.src) * 100 + i) ++bad;
      }
      ++checked;
    }
  });
  EXPECT_EQ(checked.load(), 16);
  EXPECT_EQ(bad.load(), 0);
}

TEST(Runtime, SilentSuperstepIsFree) {
  Cluster cluster(ClusterConfig{.k = 4, .bandwidth_bits = 64});
  Runtime rt(cluster, RuntimeConfig{.threads = 2});
  const auto rounds = rt.step([](MachineId, std::span<const Message>, Outbox&) {});
  EXPECT_EQ(rounds, 0u);
  EXPECT_EQ(cluster.stats().supersteps, 0u);
  EXPECT_EQ(cluster.stats().rounds, 0u);
}

// ------------------------------------------------- ledger thread-invariance

void expect_stats_identical(const ClusterStats& a, const ClusterStats& b,
                            const char* what) {
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

struct LedgeredRun {
  BoruvkaResult result;
  ClusterStats cluster_stats;
};

LedgeredRun run_connectivity_with_threads(const Graph& g, MachineId k, unsigned threads) {
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), k));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), k, 99));
  BoruvkaConfig cfg{.seed = 1234};
  cfg.threads = threads;
  auto result = connected_components(cluster, dg, cfg);
  return LedgeredRun{std::move(result), cluster.stats()};
}

LedgeredRun run_mst_with_threads(const Graph& g, MachineId k, unsigned threads) {
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), k));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), k, 99));
  BoruvkaConfig cfg{.seed = 4321};
  cfg.threads = threads;
  auto result = minimum_spanning_forest(cluster, dg, cfg);
  return LedgeredRun{std::move(result), cluster.stats()};
}

std::vector<Graph> determinism_inputs() {
  std::vector<Graph> graphs;
  graphs.push_back(gen::path(600));
  Rng rng_gnm(7);
  graphs.push_back(gen::gnm(800, 2400, rng_gnm));
  Rng rng_rmat(11);
  graphs.push_back(gen::rmat(1024, 3000, rng_rmat));
  return graphs;
}

constexpr const char* kInputNames[] = {"path", "gnm", "rmat"};

TEST(RuntimeDeterminism, ConnectivityLedgerIdenticalAcrossThreadCounts) {
  const auto graphs = determinism_inputs();
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const auto baseline = run_connectivity_with_threads(graphs[gi], 8, 1);
    // Sequential run must also be correct, not merely self-consistent.
    EXPECT_EQ(canonical_labels(baseline.result.labels),
              ref::component_labels(graphs[gi]))
        << kInputNames[gi];
    for (const unsigned threads : {2u, 8u}) {
      const auto run = run_connectivity_with_threads(graphs[gi], 8, threads);
      EXPECT_EQ(run.result.labels, baseline.result.labels)
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(run.result.num_components, baseline.result.num_components)
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(run.result.forest_edges(), baseline.result.forest_edges())
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(run.result.phases.size(), baseline.result.phases.size())
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(run.result.sampler_retries, baseline.result.sampler_retries)
          << kInputNames[gi] << " threads=" << threads;
      expect_stats_identical(run.cluster_stats, baseline.cluster_stats, kInputNames[gi]);
    }
  }
}

TEST(RuntimeDeterminism, MstLedgerIdenticalAcrossThreadCounts) {
  const auto graphs = determinism_inputs();
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    Rng wrng(split(17, gi));
    const Graph g = with_unique_weights(with_random_weights(graphs[gi], wrng, 100000));
    const auto baseline = run_mst_with_threads(g, 8, 1);
    Weight total = 0;
    for (const auto& e : baseline.result.mst_edges()) total += e.w;
    EXPECT_EQ(total, ref::msf_weight(g)) << kInputNames[gi];
    for (const unsigned threads : {2u, 8u}) {
      const auto run = run_mst_with_threads(g, 8, threads);
      EXPECT_EQ(run.result.mst_edges(), baseline.result.mst_edges())
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(run.result.labels, baseline.result.labels)
          << kInputNames[gi] << " threads=" << threads;
      expect_stats_identical(run.cluster_stats, baseline.cluster_stats, kInputNames[gi]);
    }
  }
}

TEST(RuntimeDeterminism, AnnounceMstLedgerIdenticalAcrossThreadCounts) {
  const auto graphs = determinism_inputs();
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    Rng wrng(split(19, gi));
    const Graph g = with_unique_weights(with_random_weights(graphs[gi], wrng, 100000));
    // One MST per thread count, then the strict announce pass on top; both
    // the announced edge partition and the announce-pass ledger must be
    // thread-invariant.
    const auto run_announce = [&](unsigned threads) {
      Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 8));
      const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), 8, 99));
      BoruvkaConfig cfg{.seed = 4321};
      cfg.threads = threads;
      const auto mst = minimum_spanning_forest(cluster, dg, cfg);
      auto strict = announce_mst_to_home_machines(cluster, dg, mst, threads);
      return std::pair{std::move(strict), cluster.stats()};
    };
    const auto baseline = run_announce(1);
    for (const unsigned threads : {2u, 8u}) {
      const auto run = run_announce(threads);
      EXPECT_EQ(run.first.edges_by_home, baseline.first.edges_by_home)
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(run.first.stats.rounds, baseline.first.stats.rounds)
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(run.first.stats.bits, baseline.first.stats.bits)
          << kInputNames[gi] << " threads=" << threads;
      expect_stats_identical(run.second, baseline.second, kInputNames[gi]);
    }
  }
}

TEST(RuntimeDeterminism, CutBitsTrackedIdenticallyAcrossThreadCounts) {
  Rng rng(23);
  const Graph g = gen::gnm(400, 1200, rng);
  auto run_with_cut = [&](unsigned threads) {
    Cluster cluster(ClusterConfig::for_graph(400, 8));
    std::vector<std::uint8_t> side(8, 0);
    for (MachineId i = 4; i < 8; ++i) side[i] = 1;
    cluster.track_cut(side);
    const DistributedGraph dg(g, VertexPartition::random(400, 8, 5));
    BoruvkaConfig cfg{.seed = 77};
    cfg.threads = threads;
    (void)connected_components(cluster, dg, cfg);
    return cluster.stats();
  };
  const auto seq = run_with_cut(1);
  EXPECT_GT(seq.cut_bits, 0u);
  expect_stats_identical(run_with_cut(2), seq, "cut threads=2");
  expect_stats_identical(run_with_cut(8), seq, "cut threads=8");
}

// ------------------------------------------- ported-algorithm determinism
//
// Same contract, one test per ported algorithm: run with threads ∈ {1,2,8}
// on path/gnm/rmat and demand identical results AND an identical ledger.

/// Fresh cluster + partition for one determinism run; returns the stats
/// after `body` ran the algorithm on it.
template <typename Body>
ClusterStats run_on_fresh_cluster(const Graph& g, MachineId k, const Body& body) {
  Cluster cluster(ClusterConfig::for_graph(std::max<std::size_t>(g.num_vertices(), 2), k));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), k, 99));
  body(cluster, dg);
  return cluster.stats();
}

TEST(RuntimeDeterminism, FloodingLedgerIdenticalAcrossThreadCounts) {
  const auto graphs = determinism_inputs();
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    FloodingResult baseline_res;
    const auto baseline = run_on_fresh_cluster(
        graphs[gi], 8, [&](Cluster& c, const DistributedGraph& dg) {
          baseline_res = flooding_connectivity(c, dg, FloodingConfig{.threads = 1});
        });
    EXPECT_TRUE(baseline_res.converged) << kInputNames[gi];
    EXPECT_EQ(std::vector<Vertex>(baseline_res.labels.begin(), baseline_res.labels.end()),
              ref::component_labels(graphs[gi]))
        << kInputNames[gi];
    for (const unsigned threads : {2u, 8u}) {
      FloodingResult res;
      const auto stats = run_on_fresh_cluster(
          graphs[gi], 8, [&](Cluster& c, const DistributedGraph& dg) {
            res = flooding_connectivity(c, dg, FloodingConfig{.threads = threads});
          });
      EXPECT_EQ(res.labels, baseline_res.labels) << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(res.num_components, baseline_res.num_components)
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(res.supersteps, baseline_res.supersteps)
          << kInputNames[gi] << " threads=" << threads;
      expect_stats_identical(stats, baseline, kInputNames[gi]);
    }
  }
}

TEST(RuntimeDeterminism, RefereeLedgerIdenticalAcrossThreadCounts) {
  const auto graphs = determinism_inputs();
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    RefereeResult baseline_res;
    const auto baseline = run_on_fresh_cluster(
        graphs[gi], 8, [&](Cluster& c, const DistributedGraph& dg) {
          baseline_res = referee_connectivity(c, dg, RefereeConfig{.threads = 1});
        });
    EXPECT_EQ(std::vector<Vertex>(baseline_res.labels.begin(), baseline_res.labels.end()),
              ref::component_labels(graphs[gi]))
        << kInputNames[gi];
    for (const unsigned threads : {2u, 8u}) {
      RefereeResult res;
      const auto stats = run_on_fresh_cluster(
          graphs[gi], 8, [&](Cluster& c, const DistributedGraph& dg) {
            res = referee_connectivity(c, dg, RefereeConfig{.threads = threads});
          });
      EXPECT_EQ(res.labels, baseline_res.labels) << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(res.num_components, baseline_res.num_components)
          << kInputNames[gi] << " threads=" << threads;
      expect_stats_identical(stats, baseline, kInputNames[gi]);
    }
  }
}

TEST(RuntimeDeterminism, LeaderElectionLedgerIdenticalAcrossThreadCounts) {
  LeaderResult baseline_res;
  const auto baseline =
      run_on_fresh_cluster(Graph(4, {}), 8, [&](Cluster& c, const DistributedGraph&) {
        baseline_res = elect_leader(c, LeaderElectionConfig{.seed = 42, .threads = 1});
      });
  for (const unsigned threads : {2u, 8u}) {
    LeaderResult res;
    const auto stats =
        run_on_fresh_cluster(Graph(4, {}), 8, [&](Cluster& c, const DistributedGraph&) {
          res = elect_leader(c, LeaderElectionConfig{.seed = 42, .threads = threads});
        });
    EXPECT_EQ(res.leader, baseline_res.leader) << "threads=" << threads;
    expect_stats_identical(stats, baseline, "leader");
  }
}

TEST(RuntimeDeterminism, MinCutLedgerIdenticalAcrossThreadCounts) {
  // Smaller inputs than the connectivity suite: one min-cut run is a whole
  // sweep of inner connectivity runs.
  std::vector<Graph> graphs;
  graphs.push_back(gen::path(160));
  Rng rng_gnm(7);
  graphs.push_back(gen::gnm(192, 576, rng_gnm));
  Rng rng_rmat(11);
  graphs.push_back(gen::rmat(256, 700, rng_rmat));
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const auto run = [&](unsigned threads, MinCutResult& res) {
      return run_on_fresh_cluster(graphs[gi], 8, [&](Cluster& c, const DistributedGraph& dg) {
        MinCutConfig cfg;
        cfg.seed = 4242;
        cfg.threads = threads;
        res = approximate_min_cut(c, dg, cfg);
      });
    };
    MinCutResult baseline_res;
    const auto baseline = run(1, baseline_res);
    for (const unsigned threads : {2u, 8u}) {
      MinCutResult res;
      const auto stats = run(threads, res);
      EXPECT_EQ(res.estimate, baseline_res.estimate)
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(res.disconnect_level, baseline_res.disconnect_level)
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(res.graph_connected, baseline_res.graph_connected)
          << kInputNames[gi] << " threads=" << threads;
      expect_stats_identical(stats, baseline, kInputNames[gi]);
    }
  }
}

TEST(RuntimeDeterminism, TwoEdgeLedgerIdenticalAcrossThreadCounts) {
  const auto graphs = determinism_inputs();
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const auto run = [&](unsigned threads, TwoEdgeResult& res) {
      return run_on_fresh_cluster(graphs[gi], 8, [&](Cluster& c, const DistributedGraph& dg) {
        BoruvkaConfig cfg{.seed = 77};
        cfg.threads = threads;
        res = two_edge_connectivity(c, dg, cfg);
      });
    };
    TwoEdgeResult baseline_res;
    const auto baseline = run(1, baseline_res);
    for (const unsigned threads : {2u, 8u}) {
      TwoEdgeResult res;
      const auto stats = run(threads, res);
      EXPECT_EQ(res.two_edge_connected, baseline_res.two_edge_connected)
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(res.certificate_edges, baseline_res.certificate_edges)
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(res.connected, baseline_res.connected)
          << kInputNames[gi] << " threads=" << threads;
      expect_stats_identical(stats, baseline, kInputNames[gi]);
    }
  }
}

TEST(RuntimeDeterminism, VerificationLedgerIdenticalAcrossThreadCounts) {
  // st-connectivity exercises the ported label-equality exchange;
  // cycle containment exercises the ported count/sum-reduce path.
  const auto graphs = determinism_inputs();
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Vertex s = 1;
    const Vertex t = static_cast<Vertex>(graphs[gi].num_vertices() - 2);
    const auto run = [&](unsigned threads, VerifyResult& st, VerifyResult& cyc) {
      return run_on_fresh_cluster(graphs[gi], 8, [&](Cluster& c, const DistributedGraph& dg) {
        BoruvkaConfig cfg{.seed = 31};
        cfg.threads = threads;
        st = verify_st_connectivity(c, dg, s, t, cfg);
        cyc = verify_cycle_containment(c, dg, cfg);
      });
    };
    VerifyResult baseline_st, baseline_cyc;
    const auto baseline = run(1, baseline_st, baseline_cyc);
    for (const unsigned threads : {2u, 8u}) {
      VerifyResult st, cyc;
      const auto stats = run(threads, st, cyc);
      EXPECT_EQ(st.ok, baseline_st.ok) << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(st.components, baseline_st.components)
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(cyc.ok, baseline_cyc.ok) << kInputNames[gi] << " threads=" << threads;
      expect_stats_identical(stats, baseline, kInputNames[gi]);
    }
  }
}

TEST(RuntimeDeterminism, RepMstLedgerIdenticalAcrossThreadCounts) {
  const auto graphs = determinism_inputs();
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    Rng wrng(split(19, gi));
    const Graph g = with_unique_weights(with_random_weights(graphs[gi], wrng, 100000));
    const auto ep = EdgePartition::random(g.num_edges(), 8, split(21, gi));
    const auto run = [&](unsigned threads, RepMstResult& res) {
      return run_on_fresh_cluster(g, 8, [&](Cluster& c, const DistributedGraph&) {
        BoruvkaConfig cfg{.seed = 1717};
        cfg.threads = threads;
        res = rep_model_mst(c, g, ep, split(23, gi), cfg);
      });
    };
    RepMstResult baseline_res;
    const auto baseline = run(1, baseline_res);
    Weight total = 0;
    for (const auto& e : baseline_res.mst_edges) total += e.w;
    EXPECT_EQ(total, ref::msf_weight(g)) << kInputNames[gi];
    for (const unsigned threads : {2u, 8u}) {
      RepMstResult res;
      const auto stats = run(threads, res);
      EXPECT_EQ(res.mst_edges, baseline_res.mst_edges)
          << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(res.filtered_edges, baseline_res.filtered_edges)
          << kInputNames[gi] << " threads=" << threads;
      expect_stats_identical(stats, baseline, kInputNames[gi]);
    }
  }
}

TEST(RuntimeDeterminism, RepConnectivityLedgerIdenticalAcrossThreadCounts) {
  const auto graphs = determinism_inputs();
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    const auto ep = EdgePartition::random(g.num_edges(), 8, split(25, gi));
    const auto run = [&](unsigned threads, RepConnectivityResult& res) {
      return run_on_fresh_cluster(g, 8, [&](Cluster& c, const DistributedGraph&) {
        BoruvkaConfig cfg{.seed = 2929};
        cfg.threads = threads;
        res = rep_model_connectivity(c, g, ep, split(27, gi), cfg);
      });
    };
    RepConnectivityResult baseline_res;
    const auto baseline = run(1, baseline_res);
    EXPECT_EQ(canonical_labels(baseline_res.labels), ref::component_labels(g))
        << kInputNames[gi];
    for (const unsigned threads : {2u, 8u}) {
      RepConnectivityResult res;
      const auto stats = run(threads, res);
      EXPECT_EQ(res.labels, baseline_res.labels) << kInputNames[gi] << " threads=" << threads;
      EXPECT_EQ(res.num_components, baseline_res.num_components)
          << kInputNames[gi] << " threads=" << threads;
      expect_stats_identical(stats, baseline, kInputNames[gi]);
    }
  }
}

// gen::rmat sanity so the determinism inputs mean what they claim.
TEST(RmatGenerator, DeterministicSkewedAndInRange) {
  Rng a(3), b(3);
  const Graph g1 = gen::rmat(512, 1500, a);
  const Graph g2 = gen::rmat(512, 1500, b);
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  EXPECT_GT(g1.num_edges(), 1000u);  // most attempts land (sparse regime)
  EXPECT_EQ(g1.num_vertices(), 512u);
  std::size_t max_deg = 0;
  for (Vertex v = 0; v < 512; ++v) max_deg = std::max(max_deg, g1.neighbors(v).size());
  // Skew: the hottest vertex far exceeds the average degree.
  EXPECT_GE(max_deg, 4 * (2 * g1.num_edges() / 512));
}

}  // namespace
}  // namespace kmm
