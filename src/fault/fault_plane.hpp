#pragma once
// Fault-injection & recovery plane for the superstep runtime.
//
// Rides the same seam as ObsSink: a nullable FaultPlane* in RuntimeConfig.
// Detached (the default), the runtime's behaviour and ledger are
// bit-identical to a build without the plane; attached, the plane executes
// a deterministic FaultSchedule and the recovery machinery that keeps
// algorithms *correct* through it:
//
//  * Machine crashes. At the scheduled superstep the victim loses its
//    in-memory state and current inbox. Recovery depends on the program:
//      - checkpointable MachinePrograms (snapshot/restore overrides, e.g.
//        flooding's FloodProgram) are checkpointed every C supersteps into
//        a CheckpointStore; the victim is rolled back to the last checkpoint
//        and its logged inboxes are replayed (sends during replay are
//        discarded — receivers already processed them; the per-link
//        sequence numbers of the transit protocol below are exactly the
//        duplicate-suppression a real retransmit needs);
//      - the lambda-driven Borůvka engine registers state hooks
//        (StateHookScope): the plane snapshots every machine at the crash
//        instant and rebuilds the victim purely from the serialized words —
//        an honest restore-from-words round-trip validating that the hooks
//        capture the complete state.
//    Anything else aborts with a pointer to rule 8 in runtime.hpp.
//    The victim's lost inbox is rebuilt by retransmission from the senders'
//    outbox logs: rounds are charged for the stall (R) plus the per-link
//    retransmit cost, ceil(bits/bandwidth) maxed over inbound links — the
//    same accounting rule as the delivery ledger, hence thread-invariant.
//
//  * Lossy links. After the handler barrier and before delivery, the plane
//    emulates transit on every cross-machine bucket: messages carry
//    per-link sequence numbers; drops burn wire bits per failed attempt
//    (bounded retry), duplicates burn a copy's bits, reorders permute the
//    transit order — and the receiver side restores delivery order by
//    sequence number and discards duplicate sequences. The delivered inbox
//    is therefore *exactly* the fault-free one; the faults' entire ledger
//    effect is deterministic extra rounds (most-loaded link's overhead),
//    so lossy runs stay answer- and thread-invariant.
//
//  * Corruption. A corrupt draw XORs a nonzero mask into the payload's
//    last word, preserving size and declared bits (the ledger cannot see
//    it). Corruption is NOT recovered — it exists to be *caught* by the
//    verification/referee layer downstream, turning the schedule into an
//    end-to-end audit of the certificate checking.
//
//  * Watchdog. Scheduled hangs (add_hang) become deterministic crashes,
//    counted separately; an optional wall-clock handler deadline only bumps
//    a diagnostic counter (wall time must never influence the ledger).
//
// All plane entry points run on the driver thread between handler barriers
// (deadline overrun notes excepted — those are atomic). The plane keeps a
// global step ordinal across sequential Runtimes sharing it, mirroring how
// one MetricsTimeline spans a whole algorithm run.

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "durable/durable_format.hpp"
#include "fault/checkpoint_store.hpp"
#include "fault/fault_schedule.hpp"
#include "runtime/machine_program.hpp"

namespace kmm {

class DurableStore;

struct FaultPlaneConfig {
  /// Checkpoint cadence C for checkpointable MachinePrograms: snapshots are
  /// taken at every superstep ordinal divisible by C, and a crash replays
  /// at most C-1 logged supersteps.
  unsigned checkpoint_every = 8;
  /// Checkpoint/log even when the schedule cannot crash anyone — the knob
  /// bench_faults uses to measure pure checkpoint overhead.
  bool always_checkpoint = false;
  /// Wall-clock budget per handler phase; 0 disables. Diagnostic only:
  /// overruns are counted (FaultStats::deadline_overruns), never charged —
  /// deterministic simulated hangs come from FaultSchedule::add_hang.
  std::uint64_t handler_deadline_ns = 0;
  /// Lethal mode (the serving layer's process-kill model): a scheduled
  /// crash is not recovered — begin_step throws QueryKilled instead, and
  /// ALL checkpoint/log/replay machinery is skipped, so a schedule with no
  /// crashes is a true no-op plane (link faults still emulate normally).
  /// The service catches QueryKilled, discards the attempt's cluster, and
  /// re-runs under its retry policy.
  bool lethal_crashes = false;
};

/// Thrown by FaultPlane::begin_step in lethal mode when a scheduled crash
/// fires: the whole attempt dies (a machine loss without recovery), to be
/// retried by the serving layer on a fresh cluster. Deliberately not a
/// std::exception subclass — nothing below the service should catch it.
struct QueryKilled {
  std::uint64_t superstep = 0;  // plane ordinal at which the attempt died
  MachineId machine = 0;        // first scheduled victim
};

struct FaultStats {
  std::uint64_t crashes = 0;          // machines crashed (watchdog trips included)
  std::uint64_t watchdog_trips = 0;   // crashes that were scheduled hangs
  std::uint64_t restores = 0;         // checkpoint/hook restores performed
  std::uint64_t replayed_steps = 0;   // logged supersteps replayed after rollback
  std::uint64_t checkpoints = 0;      // checkpoint generations taken
  std::uint64_t checkpoint_words = 0; // total words serialized into checkpoints
  std::uint64_t stall_rounds = 0;     // rounds charged for crash stalls
  std::uint64_t retransmit_bits = 0;  // wire bits retransmitted into rebuilt inboxes
  std::uint64_t drops = 0;            // failed transmission attempts
  std::uint64_t duplicates = 0;       // in-transit duplicates (receiver-suppressed)
  std::uint64_t reorders = 0;         // buckets reordered in transit
  std::uint64_t corruptions = 0;      // payloads tampered in transit
  std::uint64_t overhead_rounds = 0;  // rounds charged for retransmit/lossy overhead
  std::uint64_t deadline_overruns = 0;  // wall-clock watchdog notes (diagnostic)
  std::uint64_t durable_commits = 0;  // frames committed to the durable store
  std::uint64_t resumes = 0;          // durable resume frames applied
};

class FaultPlane {
 public:
  explicit FaultPlane(const FaultSchedule& schedule, FaultPlaneConfig config = {})
      : schedule_(&schedule), config_(config) {
    KMM_CHECK_MSG(config_.checkpoint_every >= 1, "checkpoint cadence must be >= 1");
  }

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  /// Per-machine algorithm-state serialization hooks for lambda-driven
  /// engines (no persistent MachineProgram). snapshot(m, w) must write and
  /// restore(m, r) fully consume machine m's complete state.
  using SnapshotFn = std::function<void(MachineId, WordWriter&)>;
  using RestoreFn = std::function<void(MachineId, WordReader&)>;

  void set_state_hooks(SnapshotFn snapshot, RestoreFn restore) {
    snapshot_ = std::move(snapshot);
    restore_ = std::move(restore);
  }
  void clear_state_hooks() {
    snapshot_ = nullptr;
    restore_ = nullptr;
  }
  [[nodiscard]] bool has_state_hooks() const noexcept { return restore_ != nullptr; }

  // ------------------------------------------------ Durable tee & resume
  // (src/durable/): with a store attached, every cadence checkpoint of a
  // checkpointable program is ALSO committed to disk as a full resume frame
  // — per-machine state words, the superstep ordinal, the complete
  // ClusterStats ledger, and the inbox-replay window (the exact input the
  // checkpointed superstep's handlers are about to read). Attaching a store
  // activates cadence checkpointing even for a crash-free schedule.

  /// Borrowed; nullable. The store's fingerprint is stamped into frames.
  void set_durable_store(DurableStore* store) noexcept { durable_ = store; }
  [[nodiscard]] DurableStore* durable_store() const noexcept { return durable_; }

  /// Arm a recovered frame (RecoveryManager::recover): the NEXT begin_step
  /// restores every machine's state, re-injects the frame's inboxes,
  /// restores the cluster ledger, and rewinds the plane's ordinal to the
  /// frame's — after which deterministic re-execution reproduces the
  /// uninterrupted run bit-for-bit. The frame is borrowed and must outlive
  /// that first step. Requires a checkpointable program (rule 10).
  void arm_resume(const DurableFrame* frame) noexcept { pending_resume_ = frame; }

  // ------------------------------------------------ Runtime integration
  // (driver thread only; called by Runtime::step)

  /// Start-of-step processing: periodic checkpoint, crash recovery (restore
  /// + replay + inbox retransmission + stall charging), inbox logging.
  /// Returns the number of crash victims this step (for the recovery span).
  std::size_t begin_step(Cluster& cluster, MachineProgram& program);

  /// Transit emulation over the sharded outboxes, between the handler
  /// barrier and delivery. Post-condition: every bucket holds exactly the
  /// fault-free message sequence (payload corruption aside); the overhead
  /// rounds of drops/duplicates are charged analytically.
  void apply_link_faults(Cluster& cluster, std::span<OutboxShard> shards);

  /// Advance the plane's global superstep ordinal (end of Runtime::step).
  void end_step() noexcept { ++ordinal_; }

  /// Fault events (crashes, drops, duplicates, reorders, corruptions)
  /// accumulated since the last call — the MetricsTimeline column feed.
  [[nodiscard]] std::uint64_t take_step_events() noexcept {
    const std::uint64_t e = step_events_;
    step_events_ = 0;
    return e;
  }

  void note_deadline_overrun() noexcept {
    deadline_overruns_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t handler_deadline_ns() const noexcept {
    return config_.handler_deadline_ns;
  }

  [[nodiscard]] FaultStats stats() const {
    FaultStats s = stats_;
    s.deadline_overruns = deadline_overruns_.load(std::memory_order_relaxed);
    return s;
  }
  [[nodiscard]] std::uint64_t step_ordinal() const noexcept { return ordinal_; }
  [[nodiscard]] const FaultSchedule& schedule() const noexcept { return *schedule_; }
  [[nodiscard]] const FaultPlaneConfig& config() const noexcept { return config_; }

 private:
  void ensure_k(MachineId k);
  void checkpoint_all(Cluster& cluster, MachineProgram& program, CheckpointStore& store,
                      bool via_hooks);
  void recover_checkpointable(Cluster& cluster, MachineProgram& program);
  void rebuild_inbox(Cluster& cluster, MachineId victim);
  void log_inboxes(Cluster& cluster);
  void durable_commit(Cluster& cluster, MachineProgram& program);
  void apply_resume(Cluster& cluster, MachineProgram& program);

  struct RingSlot {
    std::uint64_t step = ~std::uint64_t{0};
    std::vector<std::vector<Message>> inbox;  // [machine] -> that step's input
    PayloadArena arena;
  };
  struct TransitMsg {
    std::uint64_t seq;   // per-link sequence number (send order)
    std::uint64_t rank;  // PRF shuffle key when the bucket reorders
    Message msg;
  };

  const FaultSchedule* schedule_;
  FaultPlaneConfig config_;
  FaultStats stats_;
  std::atomic<std::uint64_t> deadline_overruns_{0};
  std::uint64_t ordinal_ = 0;      // global superstep ordinal across Runtimes
  std::uint64_t step_events_ = 0;  // timeline column accumulator
  MachineId k_ = 0;

  SnapshotFn snapshot_;
  RestoreFn restore_;

  CheckpointStore store_;       // checkpointable-program generations (cadence C)
  CheckpointStore hook_store_;  // hook-mode crash-instant snapshots
  DurableStore* durable_ = nullptr;            // borrowed on-disk tee; nullable
  const DurableFrame* pending_resume_ = nullptr;  // applied at the next begin_step
  DurableFrame frame_scratch_;                 // commit staging, capacity retained
  std::vector<RingSlot> ring_;  // C slots of logged inboxes for replay
  OutboxShard replay_shard_;    // sink for replayed sends (discarded)

  std::vector<FaultSchedule::Crash> crash_scratch_;
  std::vector<Message> inbox_scratch_;      // victim inbox copy during rebuild
  PayloadArena scratch_arena_;              // backs inbox_scratch_ payloads
  std::vector<std::uint64_t> per_src_bits_; // k entries: retransmit accounting
  std::vector<std::uint64_t> overhead_bits_;   // k*k per-link transit overhead
  std::vector<TransitMsg> transit_scratch_;    // per-bucket transit emulation
  std::vector<std::uint64_t> corrupt_words_;   // payload rewrite scratch
  std::vector<std::uint64_t> link_seq_;        // k*k cumulative sequence numbers
};

/// RAII registration of hook-mode state serializers on a plane (the pattern
/// the Borůvka engine uses): hooks are cleared on
/// scope exit so a plane outliving the run cannot call into dead state.
class StateHookScope {
 public:
  StateHookScope(FaultPlane* plane, FaultPlane::SnapshotFn snapshot,
                 FaultPlane::RestoreFn restore)
      : plane_(plane) {
    if (plane_ != nullptr) plane_->set_state_hooks(std::move(snapshot), std::move(restore));
  }
  ~StateHookScope() {
    if (plane_ != nullptr) plane_->clear_state_hooks();
  }
  StateHookScope(const StateHookScope&) = delete;
  StateHookScope& operator=(const StateHookScope&) = delete;

 private:
  FaultPlane* plane_;
};

}  // namespace kmm
