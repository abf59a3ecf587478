#pragma once
// Referee baseline (Section 2 warm-up): "the easiest way to solve any
// problem in our model" — ship the whole graph to one machine and solve
// locally. Needs Ω(m/k) rounds because the referee's k-1 incident links
// must carry all Θ(m log n) bits of the edge list.
//
// Execution: the edge shipment is one Runtime superstep (per-machine edge
// enumeration parallelizes with config.threads > 1); the referee's local
// solve + optional label broadcast is a machine-0-only StepMode::kInline
// step. The ledger is bit-identical for every thread count.

#include <vector>

#include "core/common.hpp"
#include "obs/obs_sink.hpp"

namespace kmm {

struct RefereeConfig {
  /// Ship the labeling back to the home machines (the paper's referee
  /// argument only counts the collection; broadcasting adds ~n/k more).
  bool broadcast_labels = true;
  /// Worker threads for per-machine local computation (1 = sequential,
  /// 0 = hardware concurrency; clamped to k).
  unsigned threads = 1;
  /// Optional observability sinks (see src/obs/obs_sink.hpp); null records
  /// nothing and leaves the ledger untouched either way.
  const ObsSink* obs = nullptr;
  /// Optional cooperative cancellation point (src/serve/cancel.hpp),
  /// checked once per superstep; null never cancels.
  CancelPoint* cancel = nullptr;
  /// Optional shared worker pool (RuntimeConfig::pool); null = private pool.
  ThreadPool* pool = nullptr;
};

struct RefereeResult {
  std::vector<Label> labels;  // smallest vertex id per component
  std::uint64_t num_components = 0;
  RunStats stats;
};

/// Collect every edge at machine 0, solve connectivity locally, optionally
/// broadcast the labeling back to the home machines.
[[nodiscard]] RefereeResult referee_connectivity(Cluster& cluster, const DistributedGraph& dg,
                                                 const RefereeConfig& config = {});

}  // namespace kmm
