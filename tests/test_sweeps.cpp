// Broad parameterized sweeps for the remaining algorithms: min-cut bands,
// flooding across partitions and machine counts, REP-model MST, and
// verification problems on random instances.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "kmm.hpp"

namespace kmm {
namespace {

// ---------------------------------------------------------------- min-cut
struct MinCutCase {
  std::size_t n;
  std::size_t lambda;
  MachineId k;
  std::uint64_t seed;
};

class MinCutSweep : public ::testing::TestWithParam<MinCutCase> {};

TEST_P(MinCutSweep, EstimateInLogBand) {
  const auto& c = GetParam();
  Rng rng(split(c.seed, c.lambda));
  const Graph g = gen::dumbbell(c.n, c.lambda, rng);
  Cluster cluster(ClusterConfig::for_graph(c.n, c.k));
  const DistributedGraph dg(g, VertexPartition::random(c.n, c.k, split(c.seed, 1)));
  MinCutConfig cfg;
  cfg.seed = split(c.seed, 2);
  const auto res = approximate_min_cut(cluster, dg, cfg);
  ASSERT_TRUE(res.graph_connected);
  const double logn = std::log2(static_cast<double>(c.n) + 2);
  const double ratio =
      static_cast<double>(res.estimate) / static_cast<double>(c.lambda);
  EXPECT_GE(ratio, 1.0 / (8.0 * logn));
  EXPECT_LE(ratio, 8.0 * logn);
}

INSTANTIATE_TEST_SUITE_P(
    Band, MinCutSweep,
    ::testing::Values(MinCutCase{32, 1, 4, 1}, MinCutCase{32, 4, 4, 2},
                      MinCutCase{64, 2, 8, 3}, MinCutCase{64, 8, 8, 4},
                      MinCutCase{96, 3, 4, 5}, MinCutCase{96, 12, 8, 6},
                      MinCutCase{128, 6, 16, 7}, MinCutCase{128, 24, 16, 8}),
    [](const auto& info) {
      std::ostringstream os;
      os << "n" << info.param.n << "_l" << info.param.lambda << "_k" << info.param.k;
      return os.str();
    });

// --------------------------------------------------------------- flooding
struct FloodCase {
  int family;
  MachineId k;
};

class FloodingSweep : public ::testing::TestWithParam<FloodCase> {};

TEST_P(FloodingSweep, MatchesReference) {
  const auto& c = GetParam();
  Rng rng(split(99, c.family));
  Graph g(0, {});
  switch (c.family) {
    case 0: g = gen::path(150); break;
    case 1: g = gen::star(150); break;
    case 2: g = gen::grid(12, 12); break;
    case 3: g = gen::gnm(150, 200, rng); break;
    case 4: g = gen::multi_component(150, 300, 3, rng); break;
    case 5: g = gen::clique_chain(12, 8); break;
    default: FAIL();
  }
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), c.k));
  const DistributedGraph dg(
      g, VertexPartition::random(g.num_vertices(), c.k, split(7, c.family)));
  const auto res = flooding_connectivity(cluster, dg);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(std::vector<Vertex>(res.labels.begin(), res.labels.end()),
            ref::component_labels(g));
}

std::vector<FloodCase> flood_cases() {
  std::vector<FloodCase> cases;
  for (int family = 0; family < 6; ++family) {
    for (const MachineId k : {MachineId{2}, MachineId{6}, MachineId{12}}) {
      cases.push_back({family, k});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Families, FloodingSweep, ::testing::ValuesIn(flood_cases()),
                         [](const auto& info) {
                           std::ostringstream os;
                           os << "f" << info.param.family << "_k" << info.param.k;
                           return os.str();
                         });

// ---------------------------------------------------------------- REP MST
class RepMstSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepMstSweep, ExactAcrossSeeds) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::size_t n = 60 + rng.next_below(60);
  const std::size_t m = 2 * n + rng.next_below(3 * n);
  Graph g = with_unique_weights(with_random_weights(gen::connected_gnm(n, m, rng), rng));
  const MachineId k = 2 + static_cast<MachineId>(rng.next_below(7));
  Cluster cluster(ClusterConfig::for_graph(n, k));
  const auto ep = EdgePartition::random(g.num_edges(), k, split(seed, 1));
  const auto res = rep_model_mst(cluster, g, ep, split(seed, 2));
  const auto expected = ref::minimum_spanning_forest(g);
  ASSERT_EQ(res.mst_edges.size(), expected.size());
  Weight got = 0, want = 0;
  for (const auto& e : res.mst_edges) got += e.w;
  for (const auto& e : expected) want += e.w;
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepMstSweep, ::testing::Range<std::uint64_t>(1, 11));

// ----------------------------------------------------- verification random
class VerifySweepWide : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerifySweepWide, CutAndScsAgainstReference) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::size_t n = 80;
  const Graph g = gen::connected_gnm(n, 2 * n, rng);
  Cluster cluster(ClusterConfig::for_graph(n, 4));
  const DistributedGraph dg(g, VertexPartition::random(n, 4, split(seed, 1)));
  const BoruvkaConfig cfg{.seed = split(seed, 2)};

  // Random edge subset as a cut candidate; reference decides.
  std::vector<std::pair<Vertex, Vertex>> subset;
  for (const auto& e : g.edges()) {
    if (rng.next_bool(0.4)) subset.emplace_back(e.u, e.v);
  }
  const bool is_cut =
      ref::component_count(g.without_edges(subset)) > ref::component_count(g);
  EXPECT_EQ(verify_cut(cluster, dg, subset, cfg).ok, is_cut);

  // The complement subgraph as an SCS candidate.
  std::vector<std::pair<Vertex, Vertex>> complement;
  for (const auto& e : g.edges()) {
    const bool removed = std::find(subset.begin(), subset.end(),
                                   std::make_pair(e.u, e.v)) != subset.end();
    if (!removed) complement.emplace_back(e.u, e.v);
  }
  const bool scs = !is_cut;  // complement spans & connects iff subset wasn't a cut
  EXPECT_EQ(verify_spanning_connected_subgraph(cluster, dg, complement, cfg).ok, scs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifySweepWide, ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace kmm
