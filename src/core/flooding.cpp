#include "core/flooding.hpp"

#include <algorithm>
#include <deque>

#include "fault/fault_plane.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

namespace {
constexpr std::uint32_t kTagFlood = 1;
constexpr std::uint32_t kTagCtrl = 2;

/// Push the labels of `dirty` vertices through the machine-local subgraph
/// to fixpoint. Only vertices homed on `machine` are read from the queue
/// and only labels/changed cells of such vertices are written, so the
/// per-machine handlers below may run concurrently on the shared vectors.
void local_propagate(const DistributedGraph& dg, MachineId machine,
                     std::vector<Label>& labels, std::vector<char>& changed,
                     std::deque<Vertex>& queue) {
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop_front();
    for (const auto& he : dg.neighbors(v)) {
      if (dg.home(he.to) != machine) continue;
      if (labels[v] < labels[he.to]) {
        labels[he.to] = labels[v];
        changed[he.to] = 1;
        queue.push_back(he.to);
      }
    }
  }
}

}  // namespace

FloodingResult flooding_connectivity(Cluster& cluster, const DistributedGraph& dg,
                                     const FloodingConfig& config) {
  const StatsScope scope(cluster);
  const std::size_t n = dg.num_vertices();
  const MachineId k = cluster.k();
  const std::uint64_t label_bits = bits_for(std::max<std::uint64_t>(n, 2));
  const std::uint64_t max_supersteps =
      config.max_supersteps != 0 ? config.max_supersteps : n + 1;
  Runtime rt(cluster, RuntimeConfig{config.threads, config.obs, config.fault, config.cancel,
                                    config.pool});

  FloodingResult result;
  result.labels.resize(n);
  for (Vertex v = 0; v < n; ++v) result.labels[v] = v;

  // Shared state, machine-indexed by construction: labels[v] and changed[v]
  // are only touched by the handler of dg.home(v); queue[i], boundary[i]
  // and bit[i] only by handler i. That partition is what makes the
  // handlers race-free without locks (and is asserted on the receive path).
  std::vector<char> changed(n, 1);
  std::vector<std::deque<Vertex>> queue(k);
  // Reusable boundary-candidate buffers (one per machine): (remote target,
  // candidate label) pairs, sorted + deduplicated to the minimum label per
  // target each iteration. Replaces a per-superstep std::map — no per-node
  // allocation on the hot path, and the deterministic ascending-target send
  // order is explicit in the sort.
  std::vector<std::vector<std::pair<Vertex, Label>>> boundary(k);
  std::vector<char> bit(k, 0);  // bit[i] = machine i sent this iteration

  // Fault-plane state hooks (porting recipe rule 8b): machine m's complete
  // cross-step state is its sent-bit plus the label/changed cells of its
  // hosted vertices — queue[m] and boundary[m] are drained/cleared at step
  // boundaries and need no serialization.
  const StateHookScope fault_scope(
      config.fault,
      [&](MachineId m, WordWriter& w) {
        w.u64(static_cast<std::uint64_t>(bit[m]));
        for (const Vertex v : dg.vertices_of(m)) {
          w.u64(result.labels[v]);
          w.u64(static_cast<std::uint64_t>(changed[v]));
        }
      },
      [&](MachineId m, WordReader& r) {
        bit[m] = static_cast<char>(r.u64());
        for (const Vertex v : dg.vertices_of(m)) {
          result.labels[v] = r.u64();
          changed[v] = static_cast<char>(r.u64());
        }
        queue[m].clear();
        boundary[m].clear();
      });

  // Initial machine-local fixpoint before any exchange. No handler sends,
  // so this superstep is free — pure parallel local computation.
  rt.step([&](MachineId i, std::span<const Message>, Outbox&) {
    queue[i].assign(dg.vertices_of(i).begin(), dg.vertices_of(i).end());
    local_propagate(dg, i, result.labels, changed, queue[i]);
  });

  for (std::uint64_t step = 0;; ++step) {
    KMM_CHECK_MSG(step <= max_supersteps, "flooding failed to converge");
    // Boundary exchange: per machine, send the best candidate label per
    // remote target vertex among changed local vertices.
    rt.step([&](MachineId i, std::span<const Message>, Outbox& out) {
      auto& cand = boundary[i];
      cand.clear();
      for (const Vertex v : dg.vertices_of(i)) {
        if (!changed[v]) continue;
        for (const auto& he : dg.neighbors(v)) {
          if (dg.home(he.to) == i) continue;
          cand.emplace_back(he.to, result.labels[v]);
        }
      }
      for (const Vertex v : dg.vertices_of(i)) changed[v] = 0;
      // Ascending (target, label): first entry per target is its minimum
      // candidate, and the send order below is deterministic.
      std::sort(cand.begin(), cand.end());
      cand.erase(std::unique(cand.begin(), cand.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 cand.end());
      bit[i] = cand.empty() ? 0 : 1;
      for (const auto& [target, label] : cand) {
        out.send(dg.home(target), kTagFlood, {target, label}, 2 * label_bits);
      }
    });
    // Apply the labels that just arrived and re-run the local fixpoint.
    // Nothing is sent, so this superstep is free — it must run before the
    // or-reduce below, whose own supersteps clear every inbox.
    rt.step([&](MachineId i, std::span<const Message> inbox, Outbox&) {
      auto& q = queue[i];
      for (const auto& msg : inbox) {
        if (msg.tag != kTagFlood) continue;
        KMM_DCHECK(msg.payload_words() >= 2);
        const auto v = static_cast<Vertex>(msg.payload()[0]);
        KMM_CHECK_MSG(dg.home(v) == i, "flood label for a vertex homed elsewhere");
        const Label label = msg.payload()[1];
        if (label < result.labels[v]) {
          result.labels[v] = label;
          changed[v] = 1;
          q.push_back(v);
        }
      }
      local_propagate(dg, i, result.labels, changed, q);
    });
    result.supersteps = step + 1;
    if (!or_reduce_broadcast(rt, bit, kTagCtrl)) {
      result.converged = true;
      break;
    }
  }

  // Component count for convenience (instrumentation over final labels).
  std::vector<char> seen(n, 0);
  for (const Label label : result.labels) {
    if (!seen[label]) {
      seen[label] = 1;
      ++result.num_components;
    }
  }
  result.stats = scope.snapshot();
  return result;
}

}  // namespace kmm
