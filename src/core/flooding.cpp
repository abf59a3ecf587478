#include "core/flooding.hpp"

#include <algorithm>

#include "fault/fault_plane.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

namespace {
constexpr std::uint32_t kTagFlood = 1;
constexpr std::uint32_t kTagCtrl = 2;

/// The one-bit control steps are kInline (porting recipe rule 4); the
/// exchange and the local fixpoints use the pool.
StepMode step_mode(FloodProgram::Phase phase) {
  return phase == FloodProgram::kGather || phase == FloodProgram::kBroadcast
             ? StepMode::kInline
             : StepMode::kParallel;
}

}  // namespace

FloodProgram::FloodProgram(const DistributedGraph& dg, MachineId k)
    : dg_(&dg),
      k_(k),
      label_bits_(bits_for(std::max<std::uint64_t>(dg.num_vertices(), 2))),
      changed_(dg.num_vertices(), 1),
      machines_(k) {
  labels_.resize(dg.num_vertices());
  for (Vertex v = 0; v < labels_.size(); ++v) labels_[v] = v;
}

/// Push the labels of queued vertices through the machine-local subgraph to
/// fixpoint. Only vertices homed on `self` are queued and only their
/// labels/changed cells are written, so handlers may run concurrently.
void FloodProgram::local_propagate(MachineId self) {
  auto& queue = machines_[self].queue;
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop_front();
    for (const auto& he : dg_->neighbors(v)) {
      if (dg_->home(he.to) != self) continue;
      if (labels_[v] < labels_[he.to]) {
        labels_[he.to] = labels_[v];
        changed_[he.to] = 1;
        queue.push_back(he.to);
      }
    }
  }
}

/// Boundary exchange: send the minimum candidate label per remote target
/// among the hosted vertices that changed.
void FloodProgram::exchange(MachineId self, Outbox& out) {
  Machine& me = machines_[self];
  auto& cand = me.boundary;
  cand.clear();
  for (const Vertex v : dg_->vertices_of(self)) {
    if (!changed_[v]) continue;
    for (const auto& he : dg_->neighbors(v)) {
      if (dg_->home(he.to) == self) continue;
      cand.emplace_back(he.to, labels_[v]);
    }
  }
  for (const Vertex v : dg_->vertices_of(self)) changed_[v] = 0;
  // Ascending (target, label): the first entry per target is its minimum
  // candidate, and the send order below is deterministic.
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end(),
                         [](const auto& a, const auto& b) { return a.first == b.first; }),
             cand.end());
  me.sent = !cand.empty();
  for (const auto& [target, label] : cand) {
    out.send(dg_->home(target), kTagFlood, {target, label}, 2 * label_bits_);
  }
  ++me.iterations;
}

void FloodProgram::on_superstep(MachineId self, std::span<const Message> inbox,
                                Outbox& out) {
  Machine& me = machines_[self];
  switch (me.phase) {
    case kInit:
      // Initial machine-local fixpoint before any exchange; nothing is sent,
      // so this superstep is free.
      me.queue.assign(dg_->vertices_of(self).begin(), dg_->vertices_of(self).end());
      local_propagate(self);
      me.phase = kExchange;
      break;
    case kExchange:
      exchange(self, out);
      me.phase = kApply;
      break;
    case kApply:
      // Apply the labels that just arrived and re-run the local fixpoint.
      // Nothing is sent, so this superstep is free too.
      for (const Message& msg : inbox) {
        KMM_DCHECK(msg.tag == kTagFlood && msg.payload_words() >= 2);
        const auto v = static_cast<Vertex>(msg.payload()[0]);
        KMM_CHECK_MSG(dg_->home(v) == self, "flood label for a vertex homed elsewhere");
        const Label label = msg.payload()[1];
        if (label < labels_[v]) {
          labels_[v] = label;
          changed_[v] = 1;
          me.queue.push_back(v);
        }
      }
      local_propagate(self);
      me.phase = kGather;
      break;
    case kGather:
      // OR-reduce: machines that sent this iteration report to machine 0.
      if (me.sent) out.send(0, kTagCtrl, {}, 1);
      me.phase = kBroadcast;
      break;
    case kBroadcast:
      // Machine 0 broadcasts the OR; a quiet iteration means no changed bit
      // is set anywhere, which is the global fixpoint.
      if (self == 0) {
        me.active = !inbox.empty() || me.sent;
        for (MachineId j = 1; j < k_; ++j) out.send(j, kTagCtrl, {me.active ? 1ULL : 0ULL}, 1);
      }
      me.phase = kExchange;
      break;
  }
}

void FloodProgram::snapshot(MachineId m, WordWriter& out) {
  const Machine& me = machines_[m];
  out.u64(me.phase).u64(me.iterations).u64(me.sent ? 1 : 0).u64(me.active ? 1 : 0);
  for (const Vertex v : dg_->vertices_of(m)) {
    out.u64(labels_[v]);
    out.u64(static_cast<std::uint64_t>(changed_[v]));
  }
}

void FloodProgram::restore(MachineId m, WordReader& in) {
  Machine& me = machines_[m];
  me.phase = static_cast<Phase>(in.u64());
  me.iterations = in.u64();
  me.sent = in.u64() != 0;
  me.active = in.u64() != 0;
  for (const Vertex v : dg_->vertices_of(m)) {
    labels_[v] = in.u64();
    changed_[v] = static_cast<char>(in.u64());
  }
  me.queue.clear();
  me.boundary.clear();
}

FloodingResult flooding_connectivity(Cluster& cluster, const DistributedGraph& dg,
                                     const FloodingConfig& config) {
  const StatsScope scope(cluster);
  const std::size_t n = dg.num_vertices();
  const std::uint64_t max_iterations =
      config.max_supersteps != 0 ? config.max_supersteps : n + 1;
  FloodProgram program(dg, cluster.k());
  Runtime rt(cluster, RuntimeConfig{config.threads, config.obs, config.fault, config.cancel,
                                    config.pool});
  // One step per phase until the broadcast reports a quiet iteration, or
  // the cap is reached at an iteration boundary (converged = false). A
  // resume frame armed on the plane is restored inside the first step, so
  // that step's mode may not match its phase; the modes are
  // observationally identical.
  while (!program.done() &&
         !(program.phase() == FloodProgram::kExchange && program.iterations() >= max_iterations)) {
    (void)rt.step(program, step_mode(program.phase()));
  }

  FloodingResult result;
  result.converged = program.done();
  result.supersteps = program.iterations();
  result.labels = program.take_labels();
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
