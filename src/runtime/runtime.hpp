#pragma once
// Superstep driver for the k-machine simulator.
//
// The Cluster charges rounds by the most-loaded link, but executing all k
// machines' local computation on one thread makes wall-clock time scale
// with *total* work. The Runtime closes that gap twice over. Every step runs
// the k per-machine handlers, each writing to a private per-source outbox
// shard bucketed by destination, and then — after a barrier — delivers the
// shards through the Cluster's per-destination delivery plane
// (deliver_shards_begin / deliver_shard_to / deliver_shards_finish): k
// independent delivery tasks, one per destination, each moving its buckets
// straight into its inbox, with the ledger reduced deterministically
// afterwards. With a worker pool both halves of the superstep — compute and
// delivery — run in parallel; without one they run as in-order loops on the
// calling thread. There is one delivery sequence either way.
//
// Invariant (tested by tests/test_runtime.cpp and tests/test_delivery.cpp):
// the ClusterStats ledger — rounds, supersteps, messages, bits, per-link
// maxima, per-machine traffic, cut bits — is bit-identical for every thread
// count, because
//   * destination d's delivery task walks the shards' d-buckets in
//     ascending source order (per-machine send order preserved), which is
//     the classic "for each machine, send" order projected onto inbox d,
//     however the handlers were scheduled, and
//   * the ledger reduction folds the sparse per-destination link partials,
//     and every reduced quantity is an unsigned sum or maximum of the same
//     per-link values — so the fold order cannot change a ledger bit (see
//     cluster.hpp for the delivery contract).
//
// threads semantics: 1 = no pool, handlers and delivery tasks run in machine
// order on the calling thread; 0 = hardware concurrency; any value is
// clamped to k (more workers than machines cannot help).
//
// ---------------------------------------------------------------------------
// Porting recipe: Cluster loop -> superstep handlers
//
// Every algorithm in src/core/ used to be written as the classic sequential
// pattern
//
//     for (MachineId i = 0; i < k; ++i) { ...compute for i...; send from i...; }
//     deliver everything;
//     for (MachineId i = 0; i < k; ++i) { ...read inbox(i)...; }
//
// The mechanical transformation (flooding_connectivity and the Borůvka
// engine are the worked examples: each folds its steps into one
// MachineProgram with a phase cursor) is:
//
//   1. Each "for each machine: compute + send" loop body becomes one
//      handler lambda: rt.step([&](MachineId i, inbox, out) {...}).
//      The handler sends through `out` (src is pinned to i); the Outbox is
//      the only way to send, and the step's trailing delivery replaces the
//      explicit "deliver everything".
//   2. The "read inboxes" loop moves into the NEXT step's handler — the
//      inbox span a handler receives is exactly what the previous step
//      delivered to machine i. A read-only step that sends nothing is a
//      free superstep (no ledger effect), so pure collection/local-compute
//      steps cost nothing.
//   3. Shared state must become machine-indexed: state[i] (or labels[v]
//      with home(v) == i) is written only by handler i. Flooding's shared
//      labels/changed vectors follow this partition and assert it on the
//      receive path; anything genuinely cross-machine must be atomic and
//      only read between steps — or be partitioned, as the Borůvka engine
//      keeps a component's finished flag on every machine holding a part.
//   4. One-word control-plane steps (OR/sum reduces, verdict broadcasts,
//      single-machine referee solves) pass StepMode::kInline — the barrier
//      would cost more than the handler work, and the modes are
//      observationally identical anyway.
//   5. Derive the public entry point's config from RuntimeConfig and pass
//      it whole: Runtime rt(cluster, config). A control-plane helper may
//      copy it and lower `threads`, but never builds a Runtime from loose
//      fields: one without obs or cancel runs supersteps the timeline never
//      sees and a serving budget never checks.
//   6. Handlers must not assume inboxes are populated between shards:
//      delivery runs as k concurrent per-destination tasks after the
//      handler barrier, so during a step the only readable inbox state is
//      the span the handler was given (the *previous* step's delivery,
//      complete by construction). Never stash a Cluster::inbox() span or a
//      Message::payload() span across steps — both are recycled when the
//      next delivery begins — and never poke another machine's inbox from
//      a handler.
//   7. To stay observable, route every superstep through Runtime::step —
//      that is where the obs plane (src/obs/) hangs its hooks, so a port
//      that obeys rules 1-6 gets per-superstep metrics rows and trace spans
//      for free through config.obs with no code of its own. What a port
//      must NOT do: drive the Cluster's delivery plane directly between
//      steps (the delivery escapes the timeline row), busy-loop inside a
//      handler waiting on cross-machine state (a handler span is assumed
//      to be pure local compute), or hold a
//      pointer to the obs sinks' output mid-run (rows and rings
//      reallocate/wrap). Analytic Cluster::charge_rounds() between steps is
//      fine — the timeline folds the charge into the next recorded row.
//   8. To survive the fault plane (src/fault/), which only its entry point
//      hands to the Runtime (Runtime(cluster, config, plane)), a program
//      must be a persistent MachineProgram that overrides
//      checkpointable() -> true plus snapshot(m, WordWriter&)/restore(m,
//      WordReader&) such that restore rebuilds machine m's state *exactly*
//      from the words snapshot wrote (and consumes all of them). The plane
//      checkpoints every C steps and at the program's first step (its
//      driver calls FaultPlane::apply_resume once before that step, as rule
//      10 asks), and replays crashed machines through their logged
//      inboxes; serialize everything a handler reads across steps, and
//      nothing that is rebuilt within one step (scratch buffers, per-step
//      accumulators). A multi-step protocol becomes one such
//      program by carrying a phase cursor in its per-machine state, and
//      every input a handler needs (proxy maps, seeds) must follow from
//      that cursor: a replay re-runs a victim's older steps while the
//      driver has moved on, so a handler may not read per-step values the
//      driver sets up. A crash injected into any other program aborts with
//      a pointer to this rule; every other entry point builds
//      Runtime rt(cluster, config), so its steps never see the plane.
//   9. Cancellation points and state-release obligations. When a
//      CancelPoint rides RuntimeConfig::cancel (the serving layer's seam,
//      src/serve/cancel.hpp), Runtime::step calls check() on the driver
//      thread BEFORE fault processing and before any handler runs — the
//      only cancellation point there is. A tripped check throws
//      QueryCancelled through step() and out of the program's driving code,
//      so a MachineProgram must satisfy two obligations to be servable:
//      (a) every resource a run acquires must be released by unwinding —
//          keep engine state (registries, samplers, arenas, scratch) in
//          RAII members of a stack-local engine/driver and register
//          cross-object attachments through scopes; never leak a raw
//          registration that outlives the throw;
//      (b) handlers must NOT contain their own blocking or cancellation
//          logic — a handler span is pure local compute (rule 7) and is
//          never interrupted mid-step; cancellation granularity is exactly
//          one superstep, which also preserves the cluster invariant that
//          an unwound run leaves no half-delivered superstep behind.
//      Programs that obey rules 1-8 get rule 9 for free: all src/core/
//      engines are stack-constructed per run and release everything on
//      unwind. The cluster a cancelled query ran on still holds delivered
//      inboxes and its partial ledger; the serving layer isolates queries
//      by giving each attempt a fresh Cluster and discarding it on
//      cancellation rather than scrubbing state in place.
//  10. Resumable-state versioning (the durable plane, src/durable/). A
//      checkpointable program's snapshots may outlive the process: with a
//      DurableStore attached to the fault plane, every cadence checkpoint
//      is committed to disk as a resume frame, and a restarted process
//      restores it mid-computation. That makes the snapshot word layout an
//      on-disk FORMAT, so a resumable program must declare its layout
//      version by overriding MachineProgram::state_version() and bump it
//      on ANY change to what snapshot() writes or how restore() reads it
//      (field order, widths, meaning — not just size). The version is
//      stamped into every frame; RecoveryManager rejects mismatches as
//      structured kStateVersionMismatch errors instead of misdecoding a
//      stale generation. Every rule-8 program is durably resumable when
//      its driver loop derives its position (and each step's StepMode)
//      from program state alone and calls FaultPlane::apply_resume once
//      before its first step. Both worked examples do: FloodProgram
//      (flooding_connectivity) and the Borůvka engine (connectivity and
//      MST) keep their phase cursors in the snapshot, so a durable run is
//      the plain run on the same ledger. Durable resume additionally
//      relies on rules 1-6: the frame captures (state, inbox, ledger,
//      ordinal) at a superstep boundary, and bit-identical continuation
//      holds only because re-execution from that boundary is
//      deterministic in everything but thread count.
//
// Because every inbox is filled in ascending source order, each source's
// messages in send order, a ported algorithm's inboxes hold exactly what
// the original loop would have delivered: the ledger is unchanged by the
// port AND thread-invariant afterwards (enforced repo-wide by
// tests/test_runtime.cpp).
// ---------------------------------------------------------------------------

#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/obs_sink.hpp"
#include "runtime/machine_program.hpp"
#include "runtime/outbox.hpp"
#include "util/thread_pool.hpp"

namespace kmm {

class FaultPlane;
class CancelPoint;

/// The runtime seam. Every core config derives from it, so an entry point
/// builds each of its Runtimes from the whole config (rule 5) and no seam
/// field is ever forwarded by hand.
struct RuntimeConfig {
  /// Worker threads for handlers and delivery tasks. 1 = no pool (both run
  /// in machine order on the calling thread), 0 =
  /// std::thread::hardware_concurrency(); clamped to the cluster's k.
  unsigned threads = 1;
  /// Optional observability sinks (metrics timeline / span trace recorder);
  /// null (the default) records nothing and costs one branch per step. The
  /// sinks are borrowed — the caller keeps them alive for the Runtime's
  /// lifetime. See src/obs/obs_sink.hpp for the contract.
  const ObsSink* obs = nullptr;
  /// Optional cooperative cancellation point (src/serve/cancel.hpp),
  /// borrowed like the obs sinks. When attached, every step() begins with
  /// CancelPoint::check() on the driver thread — deadline, superstep and
  /// ledger budgets, and client cancellation all unwind the run by throwing
  /// QueryCancelled at that boundary (porting recipe rule 9). Null never
  /// cancels and costs one branch per step.
  CancelPoint* cancel = nullptr;
  /// Optional shared worker pool. Null (the default): the Runtime owns a
  /// private pool when threads > 1, exactly as before. Non-null: the
  /// Runtime borrows this pool for its parallel steps instead — the
  /// serving layer's multiplexing seam, where many concurrent queries'
  /// Runtimes time-slice one pool at superstep granularity (ThreadPool
  /// serializes whole parallel_for invocations). The pool must outlive the
  /// Runtime; effective concurrency is clamped to min(threads, pool size,
  /// k). Ignored when the resolved thread count is 1.
  ThreadPool* pool = nullptr;
};

/// The thread-count resolution every Runtime applies: 0 expands to
/// hardware concurrency, then the result is clamped to [1, k]. Exposed so
/// CLIs and benches can report the effective concurrency of a run.
[[nodiscard]] unsigned resolve_threads(unsigned requested, MachineId k);

namespace detail {

/// Borrows an ad-hoc handler as a MachineProgram for one step — a stack
/// adapter, so dispatching a lambda superstep allocates nothing.
template <typename Fn>
class FnProgram final : public MachineProgram {
 public:
  explicit FnProgram(Fn& fn) noexcept : fn_(&fn) {}
  void on_superstep(MachineId self, std::span<const Message> inbox, Outbox& out) override {
    (*fn_)(self, inbox, out);
  }

 private:
  Fn* fn_;
};

}  // namespace detail

/// Per-step execution choice. Both modes fill the same shards and deliver
/// through the same plane, so they are observationally identical — a
/// program may pick per step without affecting results or the ledger.
/// kInline skips the pool dispatch and is the right call for control-plane
/// steps (applying one-word directives, counter updates) whose handler work
/// is far below the barrier cost.
enum class StepMode {
  kParallel,  // use the worker pool when threads > 1
  kInline,    // always run handlers and delivery in order on the calling thread
};

class Runtime {
 public:
  /// `fault` is the optional fault-injection & recovery plane
  /// (src/fault/fault_plane.hpp), borrowed like the obs sinks; null is
  /// bit-identical to a build without the plane. When attached, the plane
  /// intercepts every step's shard buckets between the handler barrier and
  /// delivery to emulate transit faults, so a detached-vs-attached ledger
  /// only differs by the schedule's injected faults. Only the entry points
  /// of checkpointable programs pass one (rule 8).
  explicit Runtime(Cluster& cluster, const RuntimeConfig& config = {},
                   FaultPlane* fault = nullptr);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] const Cluster& cluster() const noexcept { return *cluster_; }
  [[nodiscard]] MachineId k() const noexcept { return cluster_->k(); }
  /// Effective concurrency after resolving 0 and clamping to k.
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Execute one superstep of `program` across all machines (concurrently
  /// when threads > 1 and mode is kParallel), then deliver through the
  /// Cluster's delivery plane. Returns the rounds charged. A superstep in
  /// which no handler sends is free.
  std::uint64_t step(MachineProgram& program, StepMode mode = StepMode::kParallel);

  /// Same, with an ad-hoc handler — the porting seam for algorithms written
  /// as explicit superstep sequences rather than one monolithic state
  /// machine (most passes in src/core/ drive their segments this way).
  /// The callable is borrowed for the duration of the call; no
  /// std::function is constructed, keeping the dispatch allocation-free.
  template <typename Fn>
    requires std::invocable<Fn&, MachineId, std::span<const Message>, Outbox&>
  std::uint64_t step(Fn&& fn, StepMode mode = StepMode::kParallel) {
    detail::FnProgram<std::remove_reference_t<Fn>> program(fn);
    return step(program, mode);
  }

  /// Drive `program` until program.done() or `max_supersteps` steps, after
  /// applying a durable resume frame armed on the fault plane (rule 10).
  /// Returns total rounds charged.
  std::uint64_t run(MachineProgram& program, std::uint64_t max_supersteps = 1u << 20);

 private:
  /// Feed one finished step's phase durations to the attached sinks (if
  /// any); the timeline row is the only record of a step's wall time.
  std::uint64_t finish_step(StepMode mode, std::uint64_t handler_ns,
                            std::uint64_t deliver_ns, std::uint64_t reduce_ns,
                            std::uint64_t span_begin_ns, std::uint64_t rounds);

  Cluster* cluster_;
  unsigned threads_;
  ObsSink sink_;                      // copied from config; empty = record nothing
  FaultPlane* fault_;                 // borrowed; null = plane detached
  CancelPoint* cancel_;               // borrowed; null = never cancels
  std::uint64_t step_ordinal_ = 0;    // steps driven by this Runtime (incl. free)
  std::unique_ptr<ThreadPool> owned_pool_;  // private pool when none was borrowed
  ThreadPool* pool_ = nullptr;        // owned_pool_.get() or the borrowed pool
  std::vector<OutboxShard> shards_;   // per-source buffers + arenas, reused every step
};

}  // namespace kmm
