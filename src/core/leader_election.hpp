#pragma once
// Referee / leader election among the k machines (Section 2 warm-up; the
// paper cites Kutten et al. [24] for O(1)-round randomized election).
//
// Protocol: every machine draws a random ticket from its private tape and
// broadcasts it; the (ticket, machine-id) minimum wins. One superstep,
// k(k-1) messages of O(log n) bits, O(1) rounds — all machines agree on the
// winner deterministically given the seed. Both the broadcast and the
// per-machine minimum computation are Runtime superstep handlers, so the
// (tiny) local work parallelizes with config.threads > 1.

#include "core/common.hpp"
#include "obs/obs_sink.hpp"

namespace kmm {

struct LeaderElectionConfig {
  std::uint64_t seed = 1;  // seeds every machine's private ticket tape
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

struct LeaderResult {
  MachineId leader = 0;
  RunStats stats;
};

[[nodiscard]] LeaderResult elect_leader(Cluster& cluster, const LeaderElectionConfig& config);

}  // namespace kmm
