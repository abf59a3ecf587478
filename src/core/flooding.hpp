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
// Execution: each boundary-exchange iteration is one Runtime superstep
// handler — with config.threads > 1 the k machines' local fixpoints and
// boundary aggregation run concurrently. The shared labels/changed vectors
// are only ever written at machine-owned indices (asserted), so the
// handlers are race-free; the cluster ledger is bit-identical for every
// thread count.

#include <vector>

#include "core/common.hpp"
#include "obs/obs_sink.hpp"

namespace kmm {

class FaultPlane;

struct FloodingConfig {
  /// Caps the boundary-exchange iteration count (0 = n+1, always
  /// sufficient: the smallest label needs at most one superstep per
  /// boundary hop).
  std::uint64_t max_supersteps = 0;
  /// Worker threads for per-machine local computation (1 = sequential,
  /// 0 = hardware concurrency; clamped to k). Results and the cluster
  /// ledger are identical for every value.
  unsigned threads = 1;
  /// Optional observability sinks (see src/obs/obs_sink.hpp); null records
  /// nothing and leaves the ledger untouched either way.
  const ObsSink* obs = nullptr;
  /// Optional fault-injection & recovery plane (src/fault/). Flooding
  /// registers per-machine state hooks (labels/changed/sent-bit of the
  /// hosted vertex partition), so scheduled crashes roll back and replay
  /// instead of aborting; null leaves behaviour bit-identical.
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
  std::uint64_t supersteps = 0;    // boundary-exchange iterations
  bool converged = false;
  RunStats stats;
};

[[nodiscard]] FloodingResult flooding_connectivity(Cluster& cluster,
                                                   const DistributedGraph& dg,
                                                   const FloodingConfig& config = {});

}  // namespace kmm
