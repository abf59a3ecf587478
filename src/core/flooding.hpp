#pragma once
// Flooding baseline (Section 1.2 warm-up): every vertex floods the smallest
// label it has seen; Θ(n/k + D) rounds in the k-machine model via the
// Conversion Theorem. Implemented directly so the measured per-link loads
// show *why* it is stuck at ~n/k: high-degree boundary vertices congest the
// links of their home machine.
//
// The k-machine locality advantage is honored: label propagation among
// vertices hosted on the same machine happens in-place (free local
// computation); only labels crossing machine boundaries cost bandwidth,
// and per (target vertex, round) the sender aggregates to the minimum
// candidate label (legal local preprocessing).
//
// Execution: FloodProgram is one checkpointable MachineProgram (porting
// recipe rules 8a and 10 in runtime.hpp) whose per-machine state carries a
// phase cursor. flooding_connectivity drives it one Runtime step per phase:
// a free initial local fixpoint, then per iteration a boundary exchange,
// a free apply + local fixpoint, and a one-bit OR-gather to machine 0 and
// verdict broadcast (two kInline control steps).
// The run stops right after the broadcast that reports no activity. With
// config.threads > 1 the k machines' handlers run concurrently; the shared
// labels/changed vectors are only ever written at machine-owned indices
// (asserted), so the handlers are race-free and the cluster ledger is
// bit-identical for every thread count.
//
// Because the whole computation state is (per-machine words + inbox), the
// same run survives fault-plane crashes through checkpoint/replay and, with
// a DurableStore on the plane, resumes bit-identically in a new process.

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "core/common.hpp"
#include "obs/obs_sink.hpp"
#include "runtime/machine_program.hpp"

namespace kmm {

class FaultPlane;

struct FloodingConfig {
  /// Caps the boundary-exchange iterations (the unit of
  /// FloodingResult::supersteps); 0 = n+1, always sufficient: the smallest
  /// label needs at most one iteration per boundary hop. Reaching the cap
  /// returns converged = false.
  std::uint64_t max_supersteps = 0;
  /// Worker threads for per-machine local computation (1 = sequential,
  /// 0 = hardware concurrency; clamped to k). Results and the cluster
  /// ledger are identical for every value.
  unsigned threads = 1;
  /// Optional observability sinks (see src/obs/obs_sink.hpp); null records
  /// nothing and leaves the ledger untouched either way.
  const ObsSink* obs = nullptr;
  /// Optional fault-injection & recovery plane (src/fault/). Scheduled
  /// crashes roll back to the last checkpoint and replay; a DurableStore on
  /// the plane commits resume frames, and an armed frame resumes the run.
  /// Null leaves behaviour bit-identical.
  FaultPlane* fault = nullptr;
  /// Optional cooperative cancellation point (src/serve/cancel.hpp),
  /// checked once per superstep; null never cancels.
  CancelPoint* cancel = nullptr;
  /// Optional shared worker pool (RuntimeConfig::pool); null = private pool.
  ThreadPool* pool = nullptr;
};

struct FloodingResult {
  std::vector<Label> labels;       // smallest vertex id in the component
  std::uint64_t num_components = 0;
  std::uint64_t supersteps = 0;    // boundary-exchange iterations (across resumes)
  bool converged = false;
  RunStats stats;
};

/// Min-label flooding as a checkpointable MachineProgram. Every machine
/// advances the same phase cursor each step; machine 0 additionally holds
/// the verdict of the last OR-broadcast, which done() reads.
class FloodProgram final : public MachineProgram {
 public:
  /// Bumped on any change to the snapshot word layout (rule 10).
  static constexpr std::uint64_t kStateVersion = 2;

  enum Phase : std::uint64_t { kInit, kExchange, kApply, kGather, kBroadcast };

  FloodProgram(const DistributedGraph& dg, MachineId k);

  void on_superstep(MachineId self, std::span<const Message> inbox, Outbox& out) override;
  /// Machine 0's last broadcast reported no flood message anywhere.
  [[nodiscard]] bool done() const override { return !machines_[0].active; }
  [[nodiscard]] bool checkpointable() const override { return true; }
  void snapshot(MachineId m, WordWriter& out) override;
  void restore(MachineId m, WordReader& in) override;
  [[nodiscard]] std::uint64_t state_version() const override { return kStateVersion; }

  /// The phase the next step runs (machines advance in lockstep).
  [[nodiscard]] Phase phase() const noexcept { return machines_[0].phase; }
  /// Boundary exchanges executed, counted across process lifetimes.
  [[nodiscard]] std::uint64_t iterations() const noexcept { return machines_[0].iterations; }
  /// Moves the final labels out; the program is spent afterwards.
  [[nodiscard]] std::vector<Label> take_labels() noexcept { return std::move(labels_); }

 private:
  struct Machine {
    Phase phase = kInit;
    std::uint64_t iterations = 0;
    bool sent = false;    // emitted flood messages in this iteration's exchange
    bool active = true;   // machine 0: last broadcast saw activity
    std::deque<Vertex> queue;                         // scratch
    std::vector<std::pair<Vertex, Label>> boundary;   // scratch
  };

  void exchange(MachineId self, Outbox& out);
  void local_propagate(MachineId self);

  const DistributedGraph* dg_;
  MachineId k_;
  std::uint64_t label_bits_;
  // Machine-partitioned shared state (rule 3): labels_[v]/changed_[v] are
  // touched only by the handler of dg.home(v), machines_[m] only by handler
  // m. Snapshots carry everything a handler reads across steps; queue and
  // boundary are drained within one step.
  std::vector<Label> labels_;
  std::vector<char> changed_;
  std::vector<Machine> machines_;
};

[[nodiscard]] FloodingResult flooding_connectivity(Cluster& cluster,
                                                   const DistributedGraph& dg,
                                                   const FloodingConfig& config = {});

}  // namespace kmm
