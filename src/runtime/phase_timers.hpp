#pragma once
// Process-wide accumulated wall time of the three superstep phases.
//
// Every Runtime::step() adds its phase durations here:
//   handler — per-machine local computation (the parallel_for, or the
//             in-order machine loop at threads=1 and on kInline steps);
//   deliver — the k per-destination tasks moving shard buckets into inboxes;
//   reduce  — folding the per-destination ledger partials into ClusterStats.
//
// This is the *compatibility shim* over the observability plane: the
// Runtime measures each phase exactly once per step and feeds the same
// three durations both here (process-lifetime aggregate, snapshot-and-
// subtract) and to any attached obs::MetricsTimeline (per-superstep rows —
// see src/obs/). Callers that only need run totals keep using
// runtime_phase_totals(); callers that need to know *which* superstep was
// slow attach a timeline through RuntimeConfig::obs.
//
// Global atomics rather than per-Runtime members because the interesting
// callers (bench thread-scaling sections) sit above algorithm entry points
// that construct their own Runtime internally — the same reason the
// counting-allocator hook is a process counter. Snapshot before/after a
// region and subtract with operator- below.

#include <atomic>
#include <cstdint>

namespace kmm {

struct RuntimePhaseTotals {
  std::uint64_t handler_ns = 0;
  std::uint64_t deliver_ns = 0;
  std::uint64_t reduce_ns = 0;

  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return handler_ns + deliver_ns + reduce_ns;
  }
};

/// Saturating duration between two monotonic timestamps. The steady clock
/// never runs backwards, but a caller mixing clocks (or subtracting
/// snapshots in the wrong order) must produce 0, not a ~2^64 ns phantom
/// phase — every add_phase_times() caller funnels through this.
[[nodiscard]] inline std::uint64_t elapsed_ns(std::uint64_t begin_ns,
                                              std::uint64_t end_ns) noexcept {
  return end_ns >= begin_ns ? end_ns - begin_ns : 0;
}

/// Snapshot difference, saturating per field: `after - before` of two
/// monotone counters reads 0 instead of wrapping when the operands are
/// accidentally swapped. Replaces the hand-rolled three-field diffs that
/// bench/ and tests used to carry.
[[nodiscard]] inline RuntimePhaseTotals operator-(const RuntimePhaseTotals& after,
                                                  const RuntimePhaseTotals& before) noexcept {
  return RuntimePhaseTotals{elapsed_ns(before.handler_ns, after.handler_ns),
                            elapsed_ns(before.deliver_ns, after.deliver_ns),
                            elapsed_ns(before.reduce_ns, after.reduce_ns)};
}

namespace detail {
inline std::atomic<std::uint64_t> g_phase_handler_ns{0};
inline std::atomic<std::uint64_t> g_phase_deliver_ns{0};
inline std::atomic<std::uint64_t> g_phase_reduce_ns{0};
}  // namespace detail

/// Cumulative phase times since program start (monotonic).
[[nodiscard]] inline RuntimePhaseTotals runtime_phase_totals() noexcept {
  return RuntimePhaseTotals{
      detail::g_phase_handler_ns.load(std::memory_order_relaxed),
      detail::g_phase_deliver_ns.load(std::memory_order_relaxed),
      detail::g_phase_reduce_ns.load(std::memory_order_relaxed)};
}

inline void add_phase_times(std::uint64_t handler_ns, std::uint64_t deliver_ns,
                            std::uint64_t reduce_ns) noexcept {
  detail::g_phase_handler_ns.fetch_add(handler_ns, std::memory_order_relaxed);
  detail::g_phase_deliver_ns.fetch_add(deliver_ns, std::memory_order_relaxed);
  detail::g_phase_reduce_ns.fetch_add(reduce_ns, std::memory_order_relaxed);
}

}  // namespace kmm
