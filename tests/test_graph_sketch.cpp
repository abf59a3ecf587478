// Graph sketches over incidence vectors: the Section 2.3 cancellation
// property, outgoing-edge sampling, weight-threshold restriction.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cluster/distributed_graph.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sketch/graph_sketch.hpp"

namespace kmm {
namespace {

DistributedGraph distribute(const Graph& g, MachineId k = 4, std::uint64_t seed = 1) {
  return DistributedGraph(g, VertexPartition::random(g.num_vertices(), k, seed));
}

TEST(GraphSketch, DecodeRoundtrip) {
  Rng rng(1);
  const Graph g = gen::gnm(50, 100, rng);
  const DistributedGraph dg = distribute(g);
  const GraphSketchBuilder b(g.num_vertices(), 99);
  for (const auto& e : g.edges()) {
    const auto idx = edge_index(e.u, e.v, g.num_vertices());
    const auto [x, y] = b.decode(idx);
    EXPECT_EQ(x, e.u);
    EXPECT_EQ(y, e.v);
  }
}

TEST(GraphSketch, VertexSketchSamplesIncidentEdge) {
  Rng rng(2);
  const Graph g = gen::gnm(60, 150, rng);
  const DistributedGraph dg = distribute(g);
  const GraphSketchBuilder b(g.num_vertices(), 7);
  for (Vertex v = 0; v < 20; ++v) {
    const auto sketch = b.sketch_vertex(dg, v);
    if (g.degree(v) == 0) {
      EXPECT_TRUE(sketch.is_zero());
      continue;
    }
    const auto rec = sketch.sample();
    ASSERT_TRUE(rec.has_value());
    const auto [x, y] = b.decode(rec->index);
    EXPECT_TRUE(x == v || y == v);  // incident to v
    EXPECT_TRUE(g.has_edge(x, y));
    // Sign convention: +1 iff v is the lower endpoint.
    EXPECT_EQ(rec->value, v == x ? 1 : -1);
  }
}

TEST(GraphSketch, WholeComponentCancelsToZero) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = gen::connected_gnm(80, 160, rng);
    const DistributedGraph dg = distribute(g, 4, split(11, trial));
    const GraphSketchBuilder b(g.num_vertices(), split(13, trial));
    std::vector<Vertex> all(g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v) all[v] = v;
    const auto sketch = b.sketch_part(dg, all);
    EXPECT_TRUE(sketch.is_zero());  // no outgoing edges from V
  }
}

TEST(GraphSketch, PartSketchSamplesOutgoingEdge) {
  // THE invariant the connectivity algorithm rides: summing a vertex set's
  // sketches cancels internal edges, leaving only boundary edges.
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = gen::connected_gnm(100, 250, rng);
    const DistributedGraph dg = distribute(g, 4, split(17, trial));
    const GraphSketchBuilder b(g.num_vertices(), split(19, trial));
    // Part = vertices 0..49 (random graph => boundary is nonempty).
    std::vector<Vertex> part;
    for (Vertex v = 0; v < 50; ++v) part.push_back(v);
    const auto sketch = b.sketch_part(dg, part);
    const auto rec = sketch.sample();
    ASSERT_TRUE(rec.has_value());
    const auto [x, y] = b.decode(rec->index);
    EXPECT_TRUE(g.has_edge(x, y));
    const bool x_in = x < 50, y_in = y < 50;
    EXPECT_NE(x_in, y_in) << "sampled edge must cross the part boundary";
    // Sign identifies the inside endpoint: +1 => lower endpoint inside.
    EXPECT_EQ(rec->value > 0, x_in);
  }
}

TEST(GraphSketch, PartEqualsSumOfVertexSketches) {
  Rng rng(5);
  const Graph g = gen::gnm(40, 90, rng);
  const DistributedGraph dg = distribute(g);
  const GraphSketchBuilder b(g.num_vertices(), 23);
  std::vector<Vertex> part{3, 7, 11, 19, 23};
  auto summed = b.empty_sketch();
  for (const Vertex v : part) summed.add(b.sketch_vertex(dg, v));
  const auto direct = b.sketch_part(dg, part);
  WordWriter w1, w2;
  summed.serialize(w1);
  direct.serialize(w2);
  EXPECT_EQ(std::move(w1).take(), std::move(w2).take());
}

TEST(GraphSketch, WeightThresholdRestricts) {
  Rng rng(6);
  Graph g = with_random_weights(gen::connected_gnm(60, 200, rng), rng, 1000);
  g = with_unique_weights(g);
  const DistributedGraph dg = distribute(g);
  const GraphSketchBuilder b(g.num_vertices(), 29);
  // Median weight as threshold; all sampled edges must respect it.
  std::vector<Weight> ws;
  for (const auto& e : g.edges()) ws.push_back(e.w);
  std::nth_element(ws.begin(), ws.begin() + ws.size() / 2, ws.end());
  const Weight thr = ws[ws.size() / 2];
  for (Vertex v = 0; v < 30; ++v) {
    const auto sketch = b.sketch_vertex(dg, v, thr);
    if (const auto rec = sketch.sample()) {
      const auto [x, y] = b.decode(rec->index);
      Weight w = 0;
      for (const auto& he : g.neighbors(x)) {
        if (he.to == y) w = he.weight;
      }
      EXPECT_LE(w, thr);
    }
  }
}

TEST(GraphSketch, ThresholdBelowMinGivesZero) {
  Rng rng(7);
  Graph g = with_random_weights(gen::cycle(20), rng, 100);
  for (auto& e : const_cast<std::vector<WeightedEdge>&>(g.edges())) (void)e;
  const DistributedGraph dg = distribute(g);
  const GraphSketchBuilder b(g.num_vertices(), 31);
  const auto sketch = b.sketch_vertex(dg, 5, 0);  // nothing has weight 0
  EXPECT_TRUE(sketch.is_zero());
}

TEST(GraphSketch, DifferentSeedsDifferentSamples) {
  Rng rng(8);
  const Graph g = gen::complete(40);
  const DistributedGraph dg = distribute(g);
  std::set<std::uint64_t> sampled;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const GraphSketchBuilder b(g.num_vertices(), split(37, seed));
    if (const auto rec = b.sketch_vertex(dg, 0).sample()) sampled.insert(rec->index);
  }
  // Vertex 0 of K_40 has 39 incident edges; fresh seeds must explore many.
  EXPECT_GE(sampled.size(), 10u);
}

TEST(GraphSketch, BuilderMatchesDirectUpdates) {
  // The builder's hoisted level seeds and power tables, after a rebind too,
  // give exactly the sketch of per-edge L0Sampler::update calls.
  Rng rng(9);
  const Graph g = gen::gnm(70, 200, rng);
  const DistributedGraph dg = distribute(g);
  GraphSketchBuilder b(g.num_vertices(), 21);
  for (const std::uint64_t seed : {21ULL, 22ULL}) {
    b.rebind(seed);
    for (Vertex v = 0; v < 10; ++v) {
      L0Sampler direct = b.empty_sketch();
      for (const auto& he : dg.neighbors(v)) {
        const Vertex x = std::min(v, he.to);
        const Vertex y = std::max(v, he.to);
        direct.update(edge_index(x, y, g.num_vertices()), v == x ? 1 : -1);
      }
      WordWriter built, want;
      b.sketch_vertex(dg, v).serialize(built);
      direct.serialize(want);
      EXPECT_EQ(std::move(built).take(), std::move(want).take()) << "vertex " << v;
    }
  }
}

TEST(GraphSketch, SketchSizeIsPolylog) {
  const GraphSketchBuilder small(1 << 6, 1);
  const GraphSketchBuilder large(1 << 12, 1);
  const auto sb = small.empty_sketch().wire_bits();
  const auto lb = large.empty_sketch().wire_bits();
  // Universe grew by 2^12 yet the sketch grew by ~2x (levels double).
  EXPECT_LT(lb, 3 * sb);
}

}  // namespace
}  // namespace kmm
