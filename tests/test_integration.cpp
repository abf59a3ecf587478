// Cross-module integration: end-to-end pipelines, determinism, failure
// injection (starved bandwidth, adversarial partitions), ledger coherence.

#include <gtest/gtest.h>

#include "kmm.hpp"

namespace kmm {
namespace {

TEST(Integration, PipelineOnSocialGraph) {
  // Communities -> connectivity -> per-component MST, all on one cluster,
  // validated against sequential references at each stage.
  Rng rng(1);
  Graph g = gen::planted_communities(300, 5, 0.05, 0, rng);
  g = with_unique_weights(with_random_weights(g, rng, 1000));

  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 8));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), 8, 3));

  const auto conn = connected_components(cluster, dg);
  EXPECT_EQ(conn.num_components, 5u);
  EXPECT_EQ(canonical_labels(conn.labels), ref::component_labels(g));

  const auto mst = minimum_spanning_forest(cluster, dg);
  const auto expected = ref::minimum_spanning_forest(g);
  EXPECT_EQ(mst.mst_edges().size(), expected.size());
  Weight got_w = 0, exp_w = 0;
  for (const auto& e : mst.mst_edges()) got_w += e.w;
  for (const auto& e : expected) exp_w += e.w;
  EXPECT_EQ(got_w, exp_w);

  // The ledger accumulated both runs coherently.
  EXPECT_EQ(cluster.stats().rounds, conn.stats.rounds + mst.stats.rounds);
}

TEST(Integration, FullResultDeterminism) {
  Rng rng(2);
  const Graph g = gen::connected_gnm(150, 400, rng);
  auto run = [&](std::uint64_t seed) {
    Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 8));
    const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), 8, 5));
    BoruvkaConfig cfg;
    cfg.seed = seed;
    return connected_components(cluster, dg, cfg);
  };
  const auto a = run(99), b = run(99);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.bits, b.stats.bits);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].rounds, b.phases[i].rounds);
  }
}

TEST(Integration, StarvedBandwidthStillCorrect) {
  // Failure injection: a 1-bit-per-round network explodes the round count
  // but must not change any answer.
  Rng rng(3);
  const Graph g = gen::gnm(24, 40, rng);
  ClusterConfig cfg;
  cfg.k = 3;
  cfg.bandwidth_bits = 1;
  Cluster cluster(cfg);
  const DistributedGraph dg(g, VertexPartition::random(24, 3, 7));
  const auto result = connected_components(cluster, dg);
  EXPECT_EQ(canonical_labels(result.labels), ref::component_labels(g));
  EXPECT_GT(result.stats.rounds, 10000u);  // the starvation is real
}

TEST(Integration, AdversarialPartitionAllOnOneMachine) {
  Rng rng(4);
  const Graph g = gen::connected_gnm(60, 140, rng);
  // Everything on machine 0 except one stray vertex.
  std::vector<MachineId> table(60, 0);
  table[59] = 1;
  Cluster cluster(ClusterConfig::for_graph(60, 4));
  const DistributedGraph dg(g, VertexPartition::from_table(std::move(table), 4));
  const auto result = connected_components(cluster, dg);
  EXPECT_EQ(canonical_labels(result.labels), ref::component_labels(g));
}

TEST(Integration, AllAlgorithmsShareOneCluster) {
  Rng rng(5);
  Graph g = with_unique_weights(
      with_random_weights(gen::connected_gnm(100, 260, rng), rng));
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 6));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), 6, 9));

  std::uint64_t last = 0;
  const auto step = [&](std::uint64_t rounds) {
    EXPECT_GT(rounds, 0u);
    EXPECT_GT(cluster.stats().rounds, last);
    last = cluster.stats().rounds;
  };
  step(connected_components(cluster, dg).stats.rounds);
  step(minimum_spanning_forest(cluster, dg).stats.rounds);
  step(flooding_connectivity(cluster, dg).stats.rounds);
  step(referee_connectivity(cluster, dg).stats.rounds);
  MinCutConfig mc;
  step(approximate_min_cut(cluster, dg, mc).stats.rounds);
  step(verify_bipartiteness(cluster, dg, {}).stats.rounds);
}

TEST(Integration, SuperlinearSpeedupInK) {
  // The paper's headline claim in miniature: at fixed n, quadrupling k
  // should cut the connectivity round count by roughly k^2 = 16x
  // (superlinear), while the referee baseline only gains the linear ~4x.
  // Absolute crossovers between algorithms live in the benches at larger
  // n; constants make small-n absolute comparisons meaningless (the
  // sketch is ~500x larger than a raw edge record).
  Rng rng(6);
  const std::size_t n = 4096;  // large enough that n/k^2 dominates the
                               // O(1)-per-superstep control floor at k=16
  const Graph g = gen::connected_gnm(n, 3 * n, rng);
  const auto run_conn = [&](MachineId k) {
    Cluster c(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, VertexPartition::random(n, k, 11));
    BoruvkaConfig cfg;
    cfg.seed = 13;
    return static_cast<double>(connected_components(c, dg, cfg).stats.rounds);
  };
  const auto run_referee = [&](MachineId k) {
    Cluster c(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, VertexPartition::random(n, k, 11));
    return static_cast<double>(
        referee_connectivity(c, dg, RefereeConfig{.broadcast_labels = false}).stats.rounds);
  };
  const double conn_ratio = run_conn(4) / run_conn(16);
  const double referee_ratio = run_referee(4) / run_referee(16);
  // The ideal 16x is damped by the model's additive polylog term (tail
  // phases with few components cost ~1 round/superstep at any k); at
  // n=4096 the measured ratio is ~5.9 vs the referee's ~4.0 and grows
  // with n (see bench_connectivity_scaling).
  EXPECT_GT(conn_ratio, 4.5) << "expected superlinear speedup";
  EXPECT_LT(referee_ratio, 8.0) << "referee should gain only ~linear";
  EXPECT_GT(conn_ratio, 1.1 * referee_ratio);
}

TEST(Integration, SamplerRetriesAreRare) {
  Rng rng(7);
  std::uint64_t total_retries = 0, total_phases = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = gen::connected_gnm(120, 300, rng);
    Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 8));
    const DistributedGraph dg(
        g, VertexPartition::random(g.num_vertices(), 8, split(13, trial)));
    BoruvkaConfig cfg;
    cfg.seed = split(17, trial);
    const auto result = connected_components(cluster, dg, cfg);
    total_retries += result.sampler_retries;
    total_phases += result.phases.size();
  }
  // Recovery failures should be a small fraction of sampling attempts.
  EXPECT_LT(total_retries, 10 * total_phases);
}

TEST(Integration, SamplerRetryRateIsBounded) {
  // At the default 3 sketch copies a failed l0 recovery is not rare: each
  // copy fails with constant probability, so a constant fraction of all
  // samples retries. Measured on these seeds: conn retries 4.1-4.5% of n,
  // MST 10.7-11.4% of n. The bounds sit just above, so a change that makes
  // sampling fail more often shows here.
  const std::size_t n = 4096;
  const MachineId k = 8;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const Graph g = with_unique_weights(with_random_weights(gen::gnm(n, 3 * n, rng), rng,
                                                            1000000));
    const DistributedGraph dg(g, VertexPartition::random(n, k, seed));
    BoruvkaConfig cfg;
    cfg.seed = seed;
    Cluster c1(ClusterConfig::for_graph(n, k));
    const BoruvkaResult conn = connected_components(c1, dg, cfg);
    Cluster c2(ClusterConfig::for_graph(n, k));
    const BoruvkaResult mst = minimum_spanning_forest(c2, dg, cfg);
    const double conn_rate = static_cast<double>(conn.sampler_retries) / n;
    const double mst_rate = static_cast<double>(mst.sampler_retries) / n;
    EXPECT_GT(conn.sampler_retries, 0u) << "seed=" << seed;
    EXPECT_LE(conn_rate, 0.055) << "seed=" << seed;
    EXPECT_GT(mst.sampler_retries, 0u) << "seed=" << seed;
    EXPECT_LE(mst_rate, 0.125) << "seed=" << seed;
  }
}

TEST(Integration, CountingProtocolOptional) {
  Rng rng(8);
  const Graph g = gen::multi_component(90, 200, 3, rng);
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 4));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), 4, 15));
  BoruvkaConfig cfg;
  cfg.count_components = false;
  const auto result = connected_components(cluster, dg, cfg);
  EXPECT_EQ(result.num_components, 3u);  // instrumented count still filled
}

TEST(Integration, ChargeRandomnessToggle) {
  Rng rng(9);
  const Graph g = gen::connected_gnm(100, 240, rng);
  auto run = [&](bool charge) {
    Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 4));
    const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), 4, 17));
    BoruvkaConfig cfg;
    cfg.seed = 19;
    cfg.charge_randomness = charge;
    return connected_components(cluster, dg, cfg).stats.rounds;
  };
  // The Section 2.2 relay is a real cost: charging it must increase rounds
  // without changing anything else.
  EXPECT_GT(run(true), run(false));
}

}  // namespace
}  // namespace kmm
