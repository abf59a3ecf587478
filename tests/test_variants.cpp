// Algorithm variants and extensions: footnote-9 coin-flip merging, the
// Section 1.2 single-coordinator ablation, Theorem 2(b) strict MST output,
// and leader election.

#include <gtest/gtest.h>

#include <algorithm>

#include "kmm.hpp"

namespace kmm {
namespace {

TEST(CoinFlipMerge, MatchesReferenceAcrossFamilies) {
  Rng rng(1);
  const std::vector<Graph> graphs = {gen::path(120), gen::cycle(121),
                                     gen::gnm(150, 300, rng),
                                     gen::multi_component(160, 400, 4, rng)};
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 8));
    const DistributedGraph dg(
        g, VertexPartition::random(g.num_vertices(), 8, split(3, i)));
    BoruvkaConfig cfg{.seed = split(5, i)};
    cfg.merge_rule = MergeRule::kCoinFlip;
    const auto res = connected_components(cluster, dg, cfg);
    EXPECT_EQ(canonical_labels(res.labels), ref::component_labels(g)) << "family " << i;
    EXPECT_TRUE(ref::is_spanning_forest(g, res.forest_edges()));
    EXPECT_TRUE(res.converged);
  }
}

TEST(CoinFlipMerge, TreesHaveDepthOne) {
  // The footnote-9 rule never builds chains: one merge iteration per
  // phase suffices (plus the empty closing check).
  Rng rng(7);
  const Graph g = gen::connected_gnm(300, 700, rng);
  Cluster cluster(ClusterConfig::for_graph(300, 8));
  const DistributedGraph dg(g, VertexPartition::random(300, 8, 9));
  BoruvkaConfig cfg{.seed = 11};
  cfg.merge_rule = MergeRule::kCoinFlip;
  const auto res = connected_components(cluster, dg, cfg);
  EXPECT_LE(res.max_merge_iterations, 1u);
  EXPECT_EQ(res.num_components, 1u);
}

TEST(CoinFlipMerge, UsesMorePhasesThanDrr) {
  // Merge probability per selection is 1/4 vs DRR's 1/2, so coin-flip
  // needs more phases on average (both O(log n)).
  Rng rng(13);
  const Graph g = gen::connected_gnm(512, 1200, rng);
  double drr_phases = 0, coin_phases = 0;
  for (int trial = 0; trial < 5; ++trial) {
    for (const MergeRule rule : {MergeRule::kDrr, MergeRule::kCoinFlip}) {
      Cluster cluster(ClusterConfig::for_graph(512, 8));
      const DistributedGraph dg(g, VertexPartition::random(512, 8, split(15, trial)));
      BoruvkaConfig cfg{.seed = split(17, trial)};
      cfg.merge_rule = rule;
      const auto res = connected_components(cluster, dg, cfg);
      (rule == MergeRule::kDrr ? drr_phases : coin_phases) +=
          static_cast<double>(res.phases.size());
    }
  }
  EXPECT_GT(coin_phases, drr_phases);
}

TEST(CoinFlipMerge, MstStillExact) {
  Rng rng(19);
  Graph g = with_unique_weights(
      with_random_weights(gen::connected_gnm(100, 260, rng), rng));
  Cluster cluster(ClusterConfig::for_graph(100, 4));
  const DistributedGraph dg(g, VertexPartition::random(100, 4, 21));
  BoruvkaConfig cfg{.seed = 23};
  cfg.merge_rule = MergeRule::kCoinFlip;
  const auto res = minimum_spanning_forest(cluster, dg, cfg);
  const auto expected = ref::minimum_spanning_forest(g);
  ASSERT_EQ(res.mst_edges().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(res.mst_edges()[i].u, expected[i].u);
    EXPECT_EQ(res.mst_edges()[i].v, expected[i].v);
  }
}

TEST(Coordinator, CorrectButCongested) {
  Rng rng(25);
  const Graph g = gen::gnm(512, 1500, rng);
  const VertexPartition part = VertexPartition::random(512, 16, 27);

  Cluster c1(ClusterConfig::for_graph(512, 16));
  const DistributedGraph d1(g, part);
  // Disable the (identical-in-both-modes) randomness-relay charge so the
  // comparison isolates the routing difference.
  BoruvkaConfig proxies{.seed = 29, .charge_randomness = false};
  const auto rp = connected_components(c1, d1, proxies);

  Cluster c2(ClusterConfig::for_graph(512, 16));
  const DistributedGraph d2(g, part);
  BoruvkaConfig coord = proxies;
  coord.single_coordinator = true;
  const auto rc = connected_components(c2, d2, coord);

  // Same answers...
  EXPECT_EQ(canonical_labels(rp.labels), canonical_labels(rc.labels));
  EXPECT_EQ(rp.num_components, rc.num_components);
  // ...but the coordinator pays for the congestion (Section 1.2).
  EXPECT_GT(rc.stats.rounds, 2 * rp.stats.rounds);
  // All sketch traffic landed on machine 0's links.
  EXPECT_GT(c2.stats().received_bits_by_machine[0],
            c1.stats().received_bits_by_machine[0]);
}

TEST(StrictOutput, BothHomesKnowEveryEdge) {
  Rng rng(31);
  Graph g = with_unique_weights(
      with_random_weights(gen::connected_gnm(120, 300, rng), rng));
  Cluster cluster(ClusterConfig::for_graph(120, 8));
  const DistributedGraph dg(g, VertexPartition::random(120, 8, 33));
  const auto mst = minimum_spanning_forest(cluster, dg);
  const auto strict = announce_mst_to_home_machines(cluster, dg, mst);

  // Theorem 2(b): each edge must be present at BOTH endpoints' homes.
  for (const auto& e : mst.mst_edges()) {
    for (const MachineId home : {dg.home(e.u), dg.home(e.v)}) {
      const auto& list = strict.edges_by_home[home];
      const bool found = std::any_of(list.begin(), list.end(), [&](const WeightedEdge& x) {
        return x.u == e.u && x.v == e.v;
      });
      EXPECT_TRUE(found) << "edge (" << e.u << "," << e.v << ") missing at machine "
                         << home;
    }
  }
  // And each home machine only holds edges incident to its vertices.
  for (MachineId i = 0; i < cluster.k(); ++i) {
    for (const auto& e : strict.edges_by_home[i]) {
      EXPECT_TRUE(dg.home(e.u) == i || dg.home(e.v) == i);
    }
  }
  EXPECT_GT(strict.stats.rounds, 0u);
}

TEST(StrictOutput, StarCentersHomePaysTheBill) {
  // The Ω~(n/k) criterion-(b) cost concentrates at the star center's home.
  const std::size_t n = 1024;
  const Graph g = with_unique_weights(gen::star(n));
  Cluster cluster(ClusterConfig::for_graph(n, 8));
  const DistributedGraph dg(g, VertexPartition::random(n, 8, 35));
  const auto mst = minimum_spanning_forest(cluster, dg);
  ASSERT_EQ(mst.mst_edges().size(), n - 1);  // the star IS its MST

  const auto before = cluster.stats().received_bits_by_machine;
  const auto strict = announce_mst_to_home_machines(cluster, dg, mst);
  const auto after = cluster.stats().received_bits_by_machine;

  const MachineId center_home = dg.home(0);
  std::uint64_t center_recv = after[center_home] - before[center_home];
  std::uint64_t max_other = 0;
  for (MachineId i = 0; i < cluster.k(); ++i) {
    if (i != center_home) max_other = std::max(max_other, after[i] - before[i]);
  }
  EXPECT_GT(center_recv, 3 * max_other);
  EXPECT_EQ(strict.edges_by_home[center_home].size(), n - 1);
}

TEST(LeaderElection, AllMachinesAgree) {
  for (const MachineId k : {MachineId{2}, MachineId{5}, MachineId{16}}) {
    Cluster cluster(ClusterConfig::for_graph(1024, k));
    const auto a = elect_leader(cluster, LeaderElectionConfig{.seed = 42});
    EXPECT_LT(a.leader, k);
    // O(1) rounds, k(k-1) messages.
    EXPECT_LE(a.stats.rounds, 4u);
    EXPECT_EQ(a.stats.messages, static_cast<std::uint64_t>(k) * (k - 1));
    // Deterministic given the seed.
    Cluster cluster2(ClusterConfig::for_graph(1024, k));
    EXPECT_EQ(elect_leader(cluster2, LeaderElectionConfig{.seed = 42}).leader, a.leader);
  }
}

TEST(LeaderElection, DifferentSeedsMoveTheLeader) {
  std::set<MachineId> leaders;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Cluster cluster(ClusterConfig::for_graph(64, 8));
    leaders.insert(elect_leader(cluster, LeaderElectionConfig{.seed = seed}).leader);
  }
  EXPECT_GE(leaders.size(), 4u);  // the choice is genuinely random
}

}  // namespace
}  // namespace kmm
