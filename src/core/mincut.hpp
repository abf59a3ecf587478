#pragma once
// O(log n)-approximate min-cut (Theorem 3, Section 3.2).
//
// Karger-style sampling ([18], applied as in Ghaffari–Kuhn [15]): edges are
// kept with probability p = 2^-i using a *shared* hash of the edge index —
// both endpoints' home machines agree on every coin with zero
// communication. While p·λ ≳ log n the sampled graph stays connected
// w.h.p.; the first level i* whose samples disconnect therefore satisfies
// 2^{i*} ≈ λ / Θ(log n), giving the O(log n)-factor estimate
//     λ̂ = 2^{i*-1} · ln n.
// Each level runs three independent samples and disconnection is decided by
// majority; the sweep stops after ceil(log2 m) + 2 levels at most, the whole
// of it costing O~(n/k^2) · O(log m) rounds.

#include <vector>

#include "core/boruvka.hpp"

namespace kmm {

/// The runtime seam (RuntimeConfig: threads, obs, cancel, pool), handed
/// whole to every inner connectivity run: one timeline sees the whole level
/// sweep as consecutive rows on one cluster ledger, and one budget covers
/// it. Results and the ledger are thread-invariant.
struct MinCutConfig : RuntimeConfig {
  std::uint64_t seed = 7;
  /// Optional fault plane, forwarded into every inner connectivity run. Each
  /// run is a checkpointable Borůvka program, so scheduled crashes recover;
  /// one plane spans the whole level sweep. Null is bit-identical.
  FaultPlane* fault = nullptr;
};

struct MinCutLevelTrace {
  int level = 0;                 // sampling probability 2^-level
  int trials = 0;
  int disconnected_trials = 0;
};

struct MinCutResult {
  bool graph_connected = false;
  std::uint64_t estimate = 0;       // λ̂; 0 iff the input is disconnected
  int disconnect_level = -1;        // first majority-disconnected level
  std::vector<MinCutLevelTrace> levels;
  RunStats stats;
};

[[nodiscard]] MinCutResult approximate_min_cut(Cluster& cluster, const DistributedGraph& dg,
                                               const MinCutConfig& config = {});

}  // namespace kmm
