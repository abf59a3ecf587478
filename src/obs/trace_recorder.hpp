#pragma once
// Span trace recorder — where inside a superstep the wall-clock goes.
//
// The Runtime records begin/end spans for every unit of superstep work:
//
//   kSuperstep  one StepMode::kParallel Runtime::step (any thread count),
//               lane 0
//   kInline     one StepMode::kInline control-plane step, lane 0
//   kHandler    one machine's on_superstep handler chunk, recorded on the
//               worker lane that executed it (arg = machine id)
//   kDeliver    one deliver_shard_to(d) task, recorded on the lane that ran
//               it (arg = destination)
//   kReduce     deliver_shards_finish — the deterministic ledger reduction
//   kRecovery   the fault plane's crash-recovery work at the start of a
//               step (checkpoint restore, replay, inbox retransmission),
//               lane 0 (arg = number of crash victims)
//
// Spans land in per-lane ring buffers: lane 0 is the driving thread and
// lane w (w >= 1) is ThreadPool worker w, so concurrent recording is
// write-private per thread (no locks, no false sharing between handler
// tasks) and the pool's barrier orders every read that follows. Rings are
// fully reserved at construction; recording in steady state performs zero
// heap allocations, and when a ring fills the oldest spans are dropped
// (dropped() reports how many) — a long run degrades to a recent-window
// trace instead of growing without bound.
//
// Export is Chrome trace-event JSON ("traceEvents" of complete "ph":"X"
// events with microsecond timestamps, tid = lane): loadable directly in
// chrome://tracing or Perfetto. Spans on one lane nest by containment, so
// a superstep's deliver/reduce children sit under their kSuperstep span,
// and every event carries args.superstep for cross-lane correlation.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "obs/obs_sink.hpp"

namespace kmm {

enum class SpanKind : std::uint8_t {
  kSuperstep = 0,
  kInline,
  kHandler,
  kDeliver,
  kReduce,
  kRecovery,
};
inline constexpr std::size_t kSpanKinds = 6;

struct TraceRecorderConfig {
  /// Per-worker ring buffers; lane indices at or above this fold into the
  /// last lane (lane 0 = driving thread, lane w = pool worker w).
  unsigned lanes = 16;
  /// Spans retained per lane before the oldest are overwritten.
  std::size_t events_per_lane = 1 << 13;
};

class TraceRecorder {
 public:
  struct Span {
    std::uint64_t begin_ns = 0;  // rebased to recorder construction
    std::uint64_t end_ns = 0;
    std::uint64_t superstep = 0;  // runtime step ordinal
    std::uint32_t arg = 0;        // machine (handler) / destination (deliver)
    SpanKind kind = SpanKind::kSuperstep;
  };

  explicit TraceRecorder(TraceRecorderConfig config = {});

  /// Current time on the recorder's clock (steady, ns since construction).
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// Append one finished span to `lane`'s ring. Safe to call concurrently
  /// from different lanes; a lane must only be written by the thread that
  /// owns it (the Runtime passes ThreadPool::current_lane()).
  void record(unsigned lane, SpanKind kind, std::uint64_t superstep, std::uint32_t arg,
              std::uint64_t begin_ns, std::uint64_t end_ns) noexcept;

  /// Number of retained spans of `kind` across all lanes.
  [[nodiscard]] std::size_t spans(SpanKind kind) const noexcept;
  /// Total retained spans.
  [[nodiscard]] std::size_t total_spans() const noexcept;
  /// Spans lost to ring wrap-around across all lanes.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Drop every span; ring capacity is retained.
  void clear() noexcept;

  /// Emit Chrome trace-event JSON ({"traceEvents": [...]}); loadable in
  /// chrome://tracing and Perfetto.
  void write_chrome_json(std::FILE* out) const;
  /// Same, to a file; returns false when the file cannot be opened.
  [[nodiscard]] bool write_chrome_json_file(const char* path) const;

 private:
  struct Lane {
    std::vector<Span> ring;   // reserved to capacity up front
    std::size_t head = 0;     // overwrite cursor once the ring is full
    std::uint64_t dropped = 0;
  };

  /// Iterate a lane's retained spans in recording order.
  template <typename Fn>
  void for_each_span(const Lane& lane, Fn&& fn) const {
    const std::size_t n = lane.ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      fn(lane.ring[(lane.head + i) % n]);
    }
  }

  std::size_t capacity_per_lane_;
  std::uint64_t epoch_ns_;
  std::vector<Lane> lanes_;
};

}  // namespace kmm
