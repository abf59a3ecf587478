// The fault-injection & recovery plane (src/fault/): a seeded FaultSchedule
// is a pure function of structural keys, so every injected fault — and the
// whole recovered run — replays bit-identically across runs and thread
// counts. The invariants pinned here (CI also runs this suite under TSan):
//   * an attached plane with an empty schedule is ledger-bit-identical to
//     no plane at all (the seam costs nothing when silent);
//   * crash recovery (checkpoint/replay, the one recovery mode) produces
//     answers equal to the fault-free run, with the recovered ledger
//     identical for every thread count — also when the replay window spans
//     several Borůvka elimination iterations;
//   * lossy links (drops, duplicates, reorders) never change answers —
//     their entire effect is deterministic extra rounds;
//   * programs run one after another on one plane (two_edge_connectivity,
//     the min-cut sweep) recover from a crash just after a program
//     boundary, since each program checkpoints at its first step;
//   * corruption is NOT recovered: it must be *caught* downstream by the
//     raw-label referee (canonicalization would mask a uniformly
//     propagated tampered label — see kmachine_cli's --verify).

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "kmm.hpp"

namespace kmm {
namespace {

Graph test_graph(std::size_t n = 256, std::uint64_t seed = 4242) {
  Rng rng(seed);
  return gen::gnm(n, 3 * n, rng);
}

struct LedgerKey {
  std::uint64_t rounds, supersteps, messages, bits, link_max;
  bool operator==(const LedgerKey&) const = default;
};

LedgerKey ledger_key(const ClusterStats& s) {
  return LedgerKey{s.rounds, s.supersteps, s.messages, s.total_bits, s.max_link_bits};
}

// ------------------------------------------------------ schedule determinism

TEST(FaultPlane, ScheduleIsAPureFunctionOfSeedAndKeys) {
  const FaultProfile* chaos = FaultProfile::find("chaos");
  ASSERT_NE(chaos, nullptr);
  EXPECT_EQ(FaultProfile::find("no-such-profile"), nullptr);

  const FaultSchedule a(77, *chaos);
  const FaultSchedule b(77, *chaos);
  const FaultSchedule other(78, *chaos);

  std::vector<FaultSchedule::Crash> ca, cb;
  bool any_difference = false;
  for (std::uint64_t step = 0; step < 64; ++step) {
    a.crashes_at(step, 8, ca);
    b.crashes_at(step, 8, cb);
    ASSERT_EQ(ca.size(), cb.size()) << "step " << step;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].machine, cb[i].machine);
      EXPECT_EQ(ca[i].stall, cb[i].stall);
    }
    for (MachineId s = 0; s < 4; ++s) {
      for (MachineId d = 0; d < 4; ++d) {
        if (s == d) continue;
        for (std::uint64_t idx = 0; idx < 4; ++idx) {
          EXPECT_EQ(a.drop_attempts(step, s, d, idx), b.drop_attempts(step, s, d, idx));
          EXPECT_EQ(a.duplicated(step, s, d, idx), b.duplicated(step, s, d, idx));
          if (a.drop_attempts(step, s, d, idx) != other.drop_attempts(step, s, d, idx) ||
              a.duplicated(step, s, d, idx) != other.duplicated(step, s, d, idx)) {
            any_difference = true;
          }
        }
        EXPECT_EQ(a.reordered(step, s, d), b.reordered(step, s, d));
      }
    }
  }
  // A different seed is a different schedule (somewhere in the sample).
  EXPECT_TRUE(any_difference);
}

// ------------------------------------------- silent plane changes nothing

TEST(FaultPlane, EmptySchedulePlaneIsLedgerBitIdentical) {
  const Graph g = test_graph();
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;
  const auto run = [&](FaultPlane* plane) {
    Cluster cluster(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, VertexPartition::random(n, k, 7));
    BoruvkaConfig cfg;
    cfg.seed = 99;
    cfg.threads = 2;
    cfg.fault = plane;
    const auto res = connected_components(cluster, dg, cfg);
    return std::pair{res.labels, cluster.stats()};
  };

  const auto [labels_off, stats_off] = run(nullptr);
  const FaultSchedule empty(123);  // no profile, no explicit events
  FaultPlane plane(empty);
  const auto [labels_on, stats_on] = run(&plane);

  EXPECT_EQ(labels_on, labels_off);
  EXPECT_EQ(ledger_key(stats_on), ledger_key(stats_off));
  EXPECT_EQ(stats_on.local_messages, stats_off.local_messages);
  EXPECT_EQ(stats_on.cut_bits, stats_off.cut_bits);
  EXPECT_EQ(stats_on.sent_bits_by_machine, stats_off.sent_bits_by_machine);
  EXPECT_EQ(stats_on.received_bits_by_machine, stats_off.received_bits_by_machine);
  const FaultStats fs = plane.stats();
  EXPECT_EQ(fs.crashes, 0u);
  EXPECT_EQ(fs.checkpoints, 0u);
  EXPECT_EQ(fs.drops + fs.duplicates + fs.reorders + fs.corruptions, 0u);
}

// ---------------------------------------- crash recovery (checkpoint/replay)

TEST(FaultPlane, FloodingRecoversFromCrashesThreadInvariantly) {
  const Graph g = test_graph(192, 99);
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;
  const auto ref_labels = ref::component_labels(g);

  Cluster fault_free(ClusterConfig::for_graph(n, k));
  const DistributedGraph dg0(g, VertexPartition::random(n, k, 7));
  const FloodingResult clean = flooding_connectivity(fault_free, dg0, FloodingConfig{});
  ASSERT_TRUE(clean.converged);

  FaultSchedule sched(11);
  sched.add_crash(1, 3);
  sched.add_crash(2, 5);
  sched.add_hang(4, 1);  // watchdog converts the hang into a crash

  std::vector<LedgerKey> per_thread;
  for (const unsigned threads : {1u, 2u, 8u}) {
    Cluster cluster(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, VertexPartition::random(n, k, 7));
    FaultPlane plane(sched);  // fresh plane per run: the ordinal is global
    FloodingConfig cfg;
    cfg.threads = threads;
    cfg.fault = &plane;
    const FloodingResult res = flooding_connectivity(cluster, dg, cfg);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.labels, clean.labels);
    ASSERT_EQ(res.labels.size(), ref_labels.size());
    for (std::size_t v = 0; v < res.labels.size(); ++v) {
      // flooding's exact-contract labels, element-wise (Label vs Vertex width)
      EXPECT_EQ(res.labels[v], ref_labels[v]) << "v=" << v;
    }
    const FaultStats fs = plane.stats();
    EXPECT_EQ(fs.crashes, 3u) << "threads=" << threads;
    EXPECT_EQ(fs.watchdog_trips, 1u);
    EXPECT_EQ(fs.restores, 3u);
    // Recovery rolls back to a checkpoint and replays logged inboxes.
    EXPECT_GT(fs.replayed_steps, 0u);
    EXPECT_GT(fs.stall_rounds, 0u);
    // The stall charge is real: recovery is visible in the ledger.
    EXPECT_GT(cluster.stats().rounds, clean.stats.rounds);
    // Pinned recovered ledger: stall and retransmit charges on top of the
    // golden flooding step sequence.
    EXPECT_EQ(ledger_key(cluster.stats()), (LedgerKey{53, 13, 1961, 61822, 608}))
        << "threads=" << threads;
    per_thread.push_back(ledger_key(cluster.stats()));
  }
  ASSERT_EQ(per_thread.size(), 3u);
  EXPECT_EQ(per_thread[0], per_thread[1]);
  EXPECT_EQ(per_thread[0], per_thread[2]);
}

TEST(FaultPlane, ConnectivityAndMstRecoverFromCrashesThreadInvariantly) {
  Rng wrng(5);
  const Graph g = with_unique_weights(with_random_weights(test_graph(192, 17), wrng, 100000));
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;

  BoruvkaConfig base;
  base.seed = 99;
  Cluster c0(ClusterConfig::for_graph(n, k));
  const DistributedGraph dg0(g, VertexPartition::random(n, k, 13));
  const BoruvkaResult conn_clean = connected_components(c0, dg0, base);
  Cluster c1(ClusterConfig::for_graph(n, k));
  const BoruvkaResult mst_clean = minimum_spanning_forest(c1, dg0, base);
  ASSERT_TRUE(conn_clean.converged);
  ASSERT_TRUE(mst_clean.converged);

  FaultSchedule sched(31);
  sched.add_crash(2, 1);
  sched.add_crash(7, 4);
  sched.add_crash(11, 6);

  std::vector<LedgerKey> conn_ledgers, mst_ledgers;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const DistributedGraph dg(g, VertexPartition::random(n, k, 13));

    Cluster cc(ClusterConfig::for_graph(n, k));
    FaultPlane conn_plane(sched);
    BoruvkaConfig cfg = base;
    cfg.threads = threads;
    cfg.fault = &conn_plane;
    const BoruvkaResult conn = connected_components(cc, dg, cfg);
    EXPECT_EQ(conn.labels, conn_clean.labels) << "threads=" << threads;
    EXPECT_EQ(conn.num_components, conn_clean.num_components);
    EXPECT_EQ(conn_plane.stats().crashes, 3u);
    EXPECT_EQ(conn_plane.stats().restores, 3u);
    // Recovery rolls back to a checkpoint and replays logged inboxes.
    EXPECT_GT(conn_plane.stats().replayed_steps, 0u);
    // Pinned recovered ledger: stall and retransmit charges on top of the
    // golden Borůvka step sequence.
    EXPECT_EQ(ledger_key(cc.stats()), (LedgerKey{4154, 142, 3275, 4746265, 60672}))
        << "threads=" << threads;
    conn_ledgers.push_back(ledger_key(cc.stats()));

    Cluster cm(ClusterConfig::for_graph(n, k));
    FaultPlane mst_plane(sched);
    cfg.fault = &mst_plane;
    const BoruvkaResult mst = minimum_spanning_forest(cm, dg, cfg);
    EXPECT_EQ(mst.labels, mst_clean.labels) << "threads=" << threads;
    EXPECT_EQ(mst.mst_edges(), mst_clean.mst_edges());
    EXPECT_EQ(mst_plane.stats().crashes, 3u);
    EXPECT_EQ(mst_plane.stats().restores, 3u);
    EXPECT_GT(mst_plane.stats().replayed_steps, 0u);
    EXPECT_EQ(ledger_key(cm.stats()), (LedgerKey{18532, 340, 11389, 20944185, 68648}))
        << "threads=" << threads;
    mst_ledgers.push_back(ledger_key(cm.stats()));
  }
  for (std::size_t i = 1; i < conn_ledgers.size(); ++i) {
    EXPECT_EQ(conn_ledgers[0], conn_ledgers[i]);
    EXPECT_EQ(mst_ledgers[0], mst_ledgers[i]);
  }
}

TEST(FaultPlane, MstReplayCrossesAnEliminationIterationBoundary) {
  // Cadence 16 outlasts one 7-step elimination iteration (sketch, proxy
  // merge, answer, reply, threshold, OR-gather, OR-broadcast), so a replay
  // re-runs proxy-merge steps of earlier iterations while the driver's
  // sketch builder is bound to the current one. Handlers must take the
  // sketch seed from their own cursor. Phase 0 runs ordinals 2..50 as
  // elimination: the crash at 15 replays 0..14 (the proxy merges of t = 0
  // and t = 1), the crash at 30 replays 16..29 (those of t = 2 and t = 3,
  // with the builder bound to t = 4).
  Rng wrng(5);
  const Graph g = with_unique_weights(with_random_weights(test_graph(192, 17), wrng, 100000));
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;

  BoruvkaConfig base;
  base.seed = 99;
  Cluster c0(ClusterConfig::for_graph(n, k));
  const DistributedGraph dg0(g, VertexPartition::random(n, k, 13));
  const BoruvkaResult clean = minimum_spanning_forest(c0, dg0, base);
  ASSERT_TRUE(clean.converged);
  ASSERT_GE(clean.phases.front().elimination_iterations, 5u);

  FaultSchedule sched(31);
  sched.add_crash(15, 2);
  sched.add_crash(30, 5);
  FaultPlaneConfig pcfg;
  pcfg.checkpoint_every = 16;

  std::vector<LedgerKey> ledgers;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const DistributedGraph dg(g, VertexPartition::random(n, k, 13));
    Cluster cluster(ClusterConfig::for_graph(n, k));
    FaultPlane plane(sched, pcfg);
    BoruvkaConfig cfg = base;
    cfg.threads = threads;
    cfg.fault = &plane;
    const BoruvkaResult mst = minimum_spanning_forest(cluster, dg, cfg);
    EXPECT_EQ(mst.labels, clean.labels) << "threads=" << threads;
    EXPECT_EQ(mst.mst_edges(), clean.mst_edges()) << "threads=" << threads;
    EXPECT_EQ(mst.num_components, clean.num_components);
    const FaultStats fs = plane.stats();
    EXPECT_EQ(fs.restores, 2u);
    EXPECT_EQ(fs.replayed_steps, 15u + 14u);
    // The clean ledger plus the crashes' stall and retransmit rounds.
    EXPECT_EQ(cluster.stats().rounds, clean.stats.rounds + fs.stall_rounds + fs.overhead_rounds);
    EXPECT_EQ(cluster.stats().total_bits, clean.stats.bits);
    ledgers.push_back(ledger_key(cluster.stats()));
  }
  EXPECT_EQ(ledgers[0], ledgers[1]);
  EXPECT_EQ(ledgers[0], ledgers[2]);
}

// ------------------------------------------------------------- lossy links

TEST(FaultPlane, LossyLinksNeverChangeAnswersOnlyRounds) {
  const Graph g = test_graph(224, 3);
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;

  BoruvkaConfig base;
  base.seed = 42;
  Cluster c0(ClusterConfig::for_graph(n, k));
  const DistributedGraph dg0(g, VertexPartition::random(n, k, 9));
  const BoruvkaResult clean = connected_components(c0, dg0, base);

  const FaultSchedule sched(5, FaultProfile::named("lossy"));
  std::vector<LedgerKey> per_thread;
  for (const unsigned threads : {1u, 2u, 8u}) {
    Cluster cluster(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, VertexPartition::random(n, k, 9));
    FaultPlane plane(sched);
    BoruvkaConfig cfg = base;
    cfg.threads = threads;
    cfg.fault = &plane;
    const BoruvkaResult res = connected_components(cluster, dg, cfg);
    EXPECT_EQ(res.labels, clean.labels) << "threads=" << threads;
    EXPECT_EQ(res.num_components, clean.num_components);
    const FaultStats fs = plane.stats();
    EXPECT_GT(fs.drops + fs.duplicates + fs.reorders, 0u) << "threads=" << threads;
    EXPECT_EQ(fs.corruptions, 0u);  // lossy preset never tampers
    // Drops and duplicates burn wire bits: the overhead is charged rounds.
    EXPECT_GE(cluster.stats().rounds, clean.stats.rounds);
    if (fs.overhead_rounds > 0) {
      EXPECT_GT(cluster.stats().rounds, clean.stats.rounds);
    }
    per_thread.push_back(ledger_key(cluster.stats()));
  }
  ASSERT_EQ(per_thread.size(), 3u);
  EXPECT_EQ(per_thread[0], per_thread[1]);
  EXPECT_EQ(per_thread[0], per_thread[2]);
}

// -------------------------------------------------------------- corruption

TEST(FaultPlane, CorruptionIsCaughtByTheRawLabelReferee) {
  // Flooding's contract is exact smallest-member labels, so the referee is
  // an element-wise raw comparison against ref::component_labels — the
  // check canonical_labels() would defeat (a tampered label that floods a
  // whole component uniformly survives canonicalization).
  const Graph g = test_graph(160, 77);
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;
  const auto expect = ref::component_labels(g);

  FaultProfile tamper;
  tamper.corrupt_prob = 1.0;  // every cross-machine payload's last word
  const FaultSchedule sched(3, tamper);
  FaultPlane plane(sched);

  Cluster cluster(ClusterConfig::for_graph(n, k));
  const DistributedGraph dg(g, VertexPartition::random(n, k, 7));
  FloodingConfig cfg;
  cfg.fault = &plane;
  // Corrupted labels can creep toward fixpoint in smaller decrements than
  // honest flooding; give the loop room beyond the n+1 default.
  cfg.max_supersteps = 1u << 20;
  const FloodingResult res = flooding_connectivity(cluster, dg, cfg);

  EXPECT_GT(plane.stats().corruptions, 0u);
  ASSERT_EQ(res.labels.size(), expect.size());
  std::size_t mismatches = 0;
  for (std::size_t v = 0; v < n; ++v) {
    // The in-range invariant holds even under tampering: a corrupted label
    // is only ever adopted when smaller than a current in-range label.
    ASSERT_LT(res.labels[v], n);
    if (res.labels[v] != expect[v]) ++mismatches;
  }
  EXPECT_GT(mismatches, 0u) << "corruption went undetected by the referee";
}

// --------------------------------------------- checkpoint/replay (rule 8)

/// Minimal checkpointable program: a k-machine ring where every machine
/// folds each received word into a running value and forwards a token for
/// `target` supersteps. Cross-step state is exactly (value, steps) per
/// machine — what snapshot/restore serialize.
class RingCounter final : public MachineProgram {
 public:
  RingCounter(MachineId k, std::uint64_t target) : k_(k), target_(target),
                                                   value_(k, 0), steps_(k, 0) {}

  void on_superstep(MachineId self, std::span<const Message> inbox, Outbox& out) override {
    for (const Message& m : inbox) value_[self] = split(value_[self], m.payload()[0]);
    if (steps_[self] < target_) {
      out.send((self + 1) % k_, 1, {split(value_[self] + steps_[self], self)}, 64);
      ++steps_[self];
    }
  }
  [[nodiscard]] bool done() const override {
    for (MachineId m = 0; m < k_; ++m) {
      if (steps_[m] < target_) return false;
    }
    return true;
  }
  [[nodiscard]] bool checkpointable() const override { return true; }
  void snapshot(MachineId m, WordWriter& w) override { w.u64(value_[m]).u64(steps_[m]); }
  void restore(MachineId m, WordReader& r) override {
    value_[m] = r.u64();
    steps_[m] = r.u64();
  }

  [[nodiscard]] const std::vector<std::uint64_t>& values() const noexcept { return value_; }

 private:
  MachineId k_;
  std::uint64_t target_;
  std::vector<std::uint64_t> value_;
  std::vector<std::uint64_t> steps_;
};

TEST(FaultPlane, CheckpointReplayRebuildsCrashedMachines) {
  const MachineId k = 6;
  const std::uint64_t target = 20;

  Cluster clean_cluster(ClusterConfig{k, 64});
  RingCounter clean(k, target);
  Runtime clean_rt(clean_cluster);
  (void)clean_rt.run(clean);
  ASSERT_TRUE(clean.done());

  for (const unsigned cadence : {1u, 4u}) {
    FaultSchedule sched(17);
    sched.add_crash(5, 2);
    sched.add_crash(13, 4);
    FaultPlaneConfig pcfg;
    pcfg.checkpoint_every = cadence;
    FaultPlane plane(sched, pcfg);

    Cluster cluster(ClusterConfig{k, 64});
    RingCounter program(k, target);
    Runtime rt(cluster, RuntimeConfig{1, nullptr, &plane});
    (void)rt.run(program);

    EXPECT_TRUE(program.done()) << "cadence=" << cadence;
    EXPECT_EQ(program.values(), clean.values()) << "cadence=" << cadence;
    const FaultStats fs = plane.stats();
    EXPECT_EQ(fs.crashes, 2u);
    EXPECT_EQ(fs.restores, 2u);
    EXPECT_GT(fs.checkpoints, 0u);
    // cadence 1 checkpoints at the crash ordinal itself (nothing to
    // replay); cadence 4 rolls back to ordinals 4 and 12 (one logged
    // superstep each).
    EXPECT_EQ(fs.replayed_steps, cadence == 1 ? 0u : 2u);
    EXPECT_GT(fs.checkpoint_words, 0u);
    EXPECT_GT(cluster.stats().rounds, clean_cluster.stats().rounds);
  }
}

// ------------------------------------------ sequential programs, one plane

TEST(FaultPlane, CrashAfterAProgramBoundaryRestoresTheNewProgram) {
  // two_edge_connectivity's two forest runs and the min-cut level sweep
  // share one plane, whose ordinal runs on across programs. Each program
  // checkpoints at its own first step, so a crash just after a boundary
  // rolls back into the new program and never restores it from the
  // previous program's snapshot. The sweep crashes every ordinal from one
  // before the first boundary to one full cadence after it.
  Rng rng(3);
  const Graph g = gen::dumbbell(64, 3, rng);
  const std::size_t n = g.num_vertices();
  const MachineId k = 4;
  const DistributedGraph dg(g, VertexPartition::random(n, k, 9));
  FaultPlaneConfig pcfg;
  pcfg.checkpoint_every = 8;

  // The plane ordinal at which a connectivity run seeded `seed` hands the
  // plane to the next program.
  const auto boundary = [&](std::uint64_t seed) {
    const FaultSchedule silent(1);
    FaultPlane plane(silent, pcfg);
    Cluster cluster(ClusterConfig::for_graph(n, k));
    BoruvkaConfig cfg;
    cfg.seed = seed;
    cfg.fault = &plane;
    (void)connected_components(cluster, dg, cfg);
    return plane.step_ordinal();
  };
  const auto sweep = [&](std::uint64_t first_program_seed, const auto& run) {
    const std::uint64_t b = boundary(first_program_seed);
    ASSERT_NE(b % pcfg.checkpoint_every, 0u) << "the boundary must fall between cadences";
    for (std::uint64_t o = b - 1; o <= b + pcfg.checkpoint_every; ++o) {
      FaultSchedule sched(5);
      sched.add_crash(o, 1);
      FaultPlane plane(sched, pcfg);
      Cluster cluster(ClusterConfig::for_graph(n, k));
      run(plane, cluster, o);
      EXPECT_EQ(plane.stats().crashes, 1u) << "o=" << o;
      EXPECT_GT(plane.stats().restores, 0u) << "o=" << o;
    }
  };

  BoruvkaConfig base;
  base.seed = 11;
  Cluster c0(ClusterConfig::for_graph(n, k));
  const TwoEdgeResult clean_2ec = two_edge_connectivity(c0, dg, base);
  ASSERT_TRUE(clean_2ec.connected);
  // two_edge_connectivity seeds its first forest run with split(seed, 0x2ec1).
  sweep(split(base.seed, 0x2ec1), [&](FaultPlane& plane, Cluster& cluster, std::uint64_t o) {
    BoruvkaConfig cfg = base;
    cfg.fault = &plane;
    const TwoEdgeResult res = two_edge_connectivity(cluster, dg, cfg);
    EXPECT_EQ(res.two_edge_connected, clean_2ec.two_edge_connected) << "o=" << o;
    EXPECT_EQ(res.certificate_edges, clean_2ec.certificate_edges) << "o=" << o;
  });

  MinCutConfig mc;
  mc.seed = 6;  // its level-0 run ends off the cadence, at ordinal 147
  Cluster c1(ClusterConfig::for_graph(n, k));
  const MinCutResult clean_cut = approximate_min_cut(c1, dg, mc);
  ASSERT_TRUE(clean_cut.graph_connected);
  // approximate_min_cut seeds its level-0 connectivity run with split(seed, 0).
  sweep(split(mc.seed, 0), [&](FaultPlane& plane, Cluster& cluster, std::uint64_t o) {
    MinCutConfig cfg = mc;
    cfg.fault = &plane;
    const MinCutResult res = approximate_min_cut(cluster, dg, cfg);
    EXPECT_EQ(res.estimate, clean_cut.estimate) << "o=" << o;
    EXPECT_EQ(res.disconnect_level, clean_cut.disconnect_level) << "o=" << o;
  });
}

// --------------------------------------------------- rule 8 is enforced

TEST(FaultPlaneDeathTest, UnrecoverableProgramAbortsWithRule8) {
  const MachineId k = 4;
  FaultSchedule sched(1);
  sched.add_crash(0, 2);
  FaultPlane plane(sched);
  Cluster cluster(ClusterConfig{k, 64});
  Runtime rt(cluster, RuntimeConfig{1, nullptr, &plane});
  // An ad-hoc lambda step is not checkpointable — nothing the plane can
  // recover with.
  EXPECT_DEATH((void)rt.step([](MachineId self, std::span<const Message>, Outbox& out) {
                 out.send((self + 1) % 4, 1, {std::uint64_t{1}}, 64);
               }),
               "rule 8");
}

}  // namespace
}  // namespace kmm
