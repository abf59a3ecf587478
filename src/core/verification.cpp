#include "core/verification.hpp"

#include <algorithm>

#include "core/connectivity.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

namespace {

constexpr std::uint32_t kTagLabelShip = 41;
constexpr std::uint32_t kTagVerdict = 42;
constexpr std::uint32_t kTagEdgeCount = 43;

/// Distributed equality test of two vertex labels: home(s) ships label(s)
/// to home(t), which compares and broadcasts the verdict. O(1) rounds.
/// Two one-message control-plane supersteps — always StepMode::kInline, so
/// a single-thread runtime is built here (no pool to spin up and join); it
/// still forwards the caller's obs sink and cancellation point.
bool labels_equal(Cluster& cluster, const DistributedGraph& dg, const BoruvkaResult& res,
                  Vertex s, Vertex t, const BoruvkaConfig& config) {
  Runtime rt(cluster, RuntimeConfig{1, config.obs, nullptr, config.cancel});
  const std::uint64_t label_bits =
      bits_for(std::max<std::uint64_t>(dg.num_vertices(), 2));
  const MachineId ms = dg.home(s);
  const MachineId mt = dg.home(t);
  rt.step(
      [&](MachineId i, std::span<const Message>, Outbox& out) {
        if (i == ms) out.send(mt, kTagLabelShip, {res.labels[s]}, label_bits);
      },
      StepMode::kInline);
  bool equal = false;
  rt.step(
      [&](MachineId i, std::span<const Message> inbox, Outbox& out) {
        if (i != mt) return;
        Label shipped = 0;
        bool got = false;
        for (const auto& msg : inbox) {
          if (msg.tag == kTagLabelShip) {
            shipped = msg.payload()[0];
            got = true;
          }
        }
        KMM_CHECK(got);
        equal = shipped == res.labels[t];
        for (MachineId j = 0; j < rt.k(); ++j) {
          if (j != mt) out.send(j, kTagVerdict, {equal ? 1ULL : 0ULL}, 1);
        }
      },
      StepMode::kInline);
  return equal;
}

/// Global (undirected) edge count: each home machine counts edges whose
/// lower endpoint it hosts (a free parallel superstep — nothing is sent);
/// sum-reduce at M1.
std::uint64_t count_edges(Runtime& rt, const DistributedGraph& dg) {
  std::vector<std::uint64_t> local(rt.k(), 0);
  rt.step([&](MachineId i, std::span<const Message>, Outbox&) {
    for (const Vertex v : dg.vertices_of(i)) {
      for (const auto& he : dg.neighbors(v)) {
        if (v < he.to) ++local[i];
      }
    }
  });
  return sum_reduce_broadcast(rt, local, kTagEdgeCount);
}

Graph restricted_to(const Graph& g, const std::vector<std::pair<Vertex, Vertex>>& edges) {
  std::vector<WeightedEdge> list;
  list.reserve(edges.size());
  for (auto [u, v] : edges) {
    KMM_CHECK_MSG(g.has_edge(u, v), "subgraph edge not present in G");
    list.push_back(WeightedEdge{std::min(u, v), std::max(u, v), 1});
  }
  std::sort(list.begin(), list.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
    return std::pair{a.u, a.v} < std::pair{b.u, b.v};
  });
  list.erase(std::unique(list.begin(), list.end()), list.end());
  return Graph(g.num_vertices(), std::move(list));
}

}  // namespace

VerifyResult verify_spanning_connected_subgraph(
    Cluster& cluster, const DistributedGraph& dg,
    const std::vector<std::pair<Vertex, Vertex>>& subgraph_edges, const BoruvkaConfig& config) {
  const StatsScope scope(cluster);
  const Graph h = restricted_to(dg.graph(), subgraph_edges);
  const DistributedGraph hd(h, dg.partition());
  const auto res = connected_components(cluster, hd, config);
  VerifyResult out;
  out.components = res.num_components;
  out.ok = res.num_components == 1;  // H spans all of V(G) by construction
  out.stats = scope.snapshot();
  return out;
}

VerifyResult verify_cut(Cluster& cluster, const DistributedGraph& dg,
                        const std::vector<std::pair<Vertex, Vertex>>& cut_edges,
                        const BoruvkaConfig& config) {
  const StatsScope scope(cluster);
  // cc before and after the removal; the candidate is a cut iff cc grows.
  const auto before = connected_components(cluster, dg, config);
  const Graph reduced = dg.graph().without_edges(cut_edges);
  const DistributedGraph rd(reduced, dg.partition());
  BoruvkaConfig after_cfg = config;
  after_cfg.seed = split(config.seed, 0xc07);
  const auto after = connected_components(cluster, rd, after_cfg);
  VerifyResult out;
  out.components = after.num_components;
  out.ok = after.num_components > before.num_components;
  out.stats = scope.snapshot();
  return out;
}

VerifyResult verify_st_connectivity(Cluster& cluster, const DistributedGraph& dg, Vertex s,
                                    Vertex t, const BoruvkaConfig& config) {
  const StatsScope scope(cluster);
  const auto res = connected_components(cluster, dg, config);
  VerifyResult out;
  out.components = res.num_components;
  out.ok = labels_equal(cluster, dg, res, s, t, config);
  out.stats = scope.snapshot();
  return out;
}

VerifyResult verify_edge_on_all_paths(Cluster& cluster, const DistributedGraph& dg, Vertex u,
                                      Vertex v, Vertex x, Vertex y,
                                      const BoruvkaConfig& config) {
  const StatsScope scope(cluster);
  KMM_CHECK_MSG(dg.graph().has_edge(x, y), "edge-on-all-paths: edge not in G");
  const Graph reduced = dg.graph().without_edges({{x, y}});
  const DistributedGraph rd(reduced, dg.partition());
  const auto res = connected_components(cluster, rd, config);
  VerifyResult out;
  out.components = res.num_components;
  out.ok = !labels_equal(cluster, rd, res, u, v, config);  // e on all u-v paths
  out.stats = scope.snapshot();
  return out;
}

VerifyResult verify_st_cut(Cluster& cluster, const DistributedGraph& dg, Vertex s, Vertex t,
                           const std::vector<std::pair<Vertex, Vertex>>& cut_edges,
                           const BoruvkaConfig& config) {
  const StatsScope scope(cluster);
  const Graph reduced = dg.graph().without_edges(cut_edges);
  const DistributedGraph rd(reduced, dg.partition());
  const auto res = connected_components(cluster, rd, config);
  VerifyResult out;
  out.components = res.num_components;
  out.ok = !labels_equal(cluster, rd, res, s, t, config);
  out.stats = scope.snapshot();
  return out;
}

VerifyResult verify_cycle_containment(Cluster& cluster, const DistributedGraph& dg,
                                      const BoruvkaConfig& config) {
  const StatsScope scope(cluster);
  std::uint64_t m = 0;
  {
    Runtime rt(cluster, RuntimeConfig{config.threads, config.obs, nullptr, config.cancel,
                                      config.pool});
    m = count_edges(rt, dg);
  }
  const auto res = connected_components(cluster, dg, config);
  VerifyResult out;
  out.components = res.num_components;
  out.ok = m > dg.num_vertices() - res.num_components;
  out.stats = scope.snapshot();
  return out;
}

VerifyResult verify_e_cycle_containment(Cluster& cluster, const DistributedGraph& dg, Vertex x,
                                        Vertex y, const BoruvkaConfig& config) {
  const StatsScope scope(cluster);
  KMM_CHECK_MSG(dg.graph().has_edge(x, y), "e-cycle containment: edge not in G");
  const Graph reduced = dg.graph().without_edges({{x, y}});
  const DistributedGraph rd(reduced, dg.partition());
  const auto res = connected_components(cluster, rd, config);
  VerifyResult out;
  out.components = res.num_components;
  out.ok = labels_equal(cluster, rd, res, x, y, config);  // still connected => cycle
  out.stats = scope.snapshot();
  return out;
}

VerifyResult verify_bipartiteness(Cluster& cluster, const DistributedGraph& dg,
                                  const BoruvkaConfig& config) {
  const StatsScope scope(cluster);
  const std::size_t n = dg.num_vertices();

  // cc(G).
  const auto base = connected_components(cluster, dg, config);

  // Bipartite double cover G': vertex v splits into 2v ("even side") and
  // 2v+1 ("odd side"); edge (u,v) becomes (2u, 2v+1) and (2u+1, 2v). Each
  // component of G lifts to two components iff it is bipartite, else one.
  std::vector<WeightedEdge> lifted;
  lifted.reserve(2 * dg.graph().num_edges());
  for (const auto& e : dg.graph().edges()) {
    lifted.push_back(WeightedEdge{static_cast<Vertex>(2 * e.u),
                                  static_cast<Vertex>(2 * e.v + 1), 1});
    lifted.push_back(WeightedEdge{static_cast<Vertex>(2 * e.u + 1),
                                  static_cast<Vertex>(2 * e.v), 1});
  }
  const Graph cover(2 * n, std::move(lifted));
  std::vector<MachineId> homes(2 * n);
  for (Vertex v = 0; v < n; ++v) {
    homes[2 * v] = dg.home(v);      // both lifts live with v's home machine,
    homes[2 * v + 1] = dg.home(v);  // so construction is communication-free
  }
  const DistributedGraph cover_dg(
      cover, VertexPartition::from_table(std::move(homes), dg.machines()));
  BoruvkaConfig cover_cfg = config;
  cover_cfg.seed = split(config.seed, 0xb1);
  const auto lifted_res = connected_components(cluster, cover_dg, cover_cfg);

  VerifyResult out;
  out.components = lifted_res.num_components;
  out.ok = lifted_res.num_components == 2 * base.num_components;
  out.stats = scope.snapshot();
  return out;
}

}  // namespace kmm
