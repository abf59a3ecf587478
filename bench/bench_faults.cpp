// Fault-plane overhead: what does attaching the recovery machinery cost
// when nothing ever fails?
//
// Three claims pinned here:
//   * a FaultPlane with checkpointing off (empty schedule) adds ZERO
//     steady-state allocations to the superstep loop — the plane rides the
//     runtime's shard delivery, whose buffers are all warm after the first
//     few steps;
//   * so does a checkpointing plane: a schedule whose only crash never
//     fires turns on the checkpoint-and-log path, and its buffers are warm
//     too (both asserted; the bench exits nonzero on violation);
//   * checkpoint cadence C trades wall-clock overhead against replay depth:
//     C=1 snapshots every superstep (max overhead, zero replay), C=64
//     amortizes to near-baseline. The measured wall/allocs/words columns at
//     C in {1, 8, 64} are the trade-off table ROADMAP's fault plane cites;
//   * the durable tee (src/durable/) prices process-death insurance: the
//     same cadences with every checkpoint ALSO committed to disk as a
//     checksummed resume frame, fsync on (crash-consistent) and off (page
//     cache only) — the fsync column is the real cost of durability.
//
// Columns land in BENCH_faults.json via bench_common's BenchJson.

#include <unistd.h>

#include <span>

#include "bench_common.hpp"

using namespace kmmbench;

namespace {

/// Checkpointable k-machine ring: every machine folds its inbox into a
/// running value and forwards a token each superstep. Cross-step state is
/// (value, steps) per machine; the snapshot is deliberately small so the
/// measured cadence overhead is the plane's bookkeeping, not serialization
/// bandwidth.
class RingProgram final : public kmm::MachineProgram {
 public:
  explicit RingProgram(kmm::MachineId k) : k_(k), value_(k, 0), steps_(k, 0) {}

  void on_superstep(kmm::MachineId self, std::span<const kmm::Message> inbox,
                    kmm::Outbox& out) override {
    for (const kmm::Message& m : inbox) value_[self] = split(value_[self], m.payload()[0]);
    out.send((self + 1) % k_, 1, {split(value_[self] + steps_[self], self)}, 64);
    ++steps_[self];
  }
  [[nodiscard]] bool checkpointable() const override { return true; }
  void snapshot(kmm::MachineId m, kmm::WordWriter& w) override {
    w.u64(value_[m]).u64(steps_[m]);
  }
  void restore(kmm::MachineId m, kmm::WordReader& r) override {
    value_[m] = r.u64();
    steps_[m] = r.u64();
  }

 private:
  kmm::MachineId k_;
  std::vector<std::uint64_t> value_;
  std::vector<std::uint64_t> steps_;
};

struct FaultBenchRun {
  double wall_ms = 0.0;
  std::uint64_t steady_allocs = 0;  // operator-new calls after warmup
  kmm::FaultStats fault;
  kmm::DurableStore::Stats durable;
};

constexpr kmm::MachineId kMachines = 16;
constexpr std::size_t kWarmupSteps = 128;
constexpr std::size_t kSteadySteps = 512;

/// Drive the ring for warmup + steady supersteps; allocations are counted
/// over the steady window only (warm buffers are the contract, cold-start
/// allocation is not).
FaultBenchRun drive(kmm::FaultPlane* plane) {
  kmm::Cluster cluster(kmm::ClusterConfig{kMachines, 64});
  RingProgram program(kMachines);
  kmm::RuntimeConfig rcfg;
  rcfg.threads = 1;
  rcfg.fault = plane;
  kmm::Runtime rt(cluster, rcfg);

  for (std::size_t s = 0; s < kWarmupSteps; ++s) (void)rt.step(program);
  const std::uint64_t a0 = alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < kSteadySteps; ++s) (void)rt.step(program);
  const auto t1 = std::chrono::steady_clock::now();

  FaultBenchRun run;
  run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  run.steady_allocs = alloc_count() - a0;
  if (plane != nullptr) {
    run.fault = plane->stats();
    if (plane->durable_store() != nullptr) run.durable = plane->durable_store()->stats();
  }
  return run;
}

void report(BenchJson& json, const char* mode, unsigned cadence, const FaultBenchRun& r,
            double baseline_ms) {
  const double per_step_us = r.wall_ms * 1e3 / static_cast<double>(kSteadySteps);
  std::printf("%-14s cadence=%-3u %9.2f ms %8.2f us/step %7.2fx vs detached %8llu allocs "
              "%8llu ckpts %10llu words\n",
              mode, cadence, r.wall_ms, per_step_us,
              baseline_ms > 0.0 ? r.wall_ms / baseline_ms : 0.0,
              static_cast<unsigned long long>(r.steady_allocs),
              static_cast<unsigned long long>(r.fault.checkpoints),
              static_cast<unsigned long long>(r.fault.checkpoint_words));
  char rec[320];
  std::snprintf(rec, sizeof(rec),
                "{\"mode\": \"%s\", \"cadence\": %u, \"k\": %u, \"steady_steps\": %zu, "
                "\"wall_ms\": %.3f, \"steady_allocs\": %llu, \"checkpoints\": %llu, "
                "\"checkpoint_words\": %llu}",
                mode, cadence, kMachines, kSteadySteps, r.wall_ms,
                static_cast<unsigned long long>(r.steady_allocs),
                static_cast<unsigned long long>(r.fault.checkpoints),
                static_cast<unsigned long long>(r.fault.checkpoint_words));
  json.record_raw(rec);
}

}  // namespace

int main() {
  banner("fault plane: checkpoint cadence overhead",
         "an attached-but-silent fault plane must cost nothing at steady "
         "state (0 allocs/step); checkpoint cadence C trades per-step "
         "overhead against replay depth");

  BenchJson json("faults");
  const kmm::FaultSchedule empty(1);  // no profile, no events

  const FaultBenchRun detached = drive(nullptr);
  report(json, "detached", 0, detached, detached.wall_ms);

  kmm::FaultPlane off_plane(empty);
  const FaultBenchRun off = drive(&off_plane);
  report(json, "ckpt-off", 0, off, detached.wall_ms);

  // One crash at an ordinal the run never reaches: has_crashes() turns on
  // checkpointing and inbox logging, and no machine ever fails.
  kmm::FaultSchedule never_fires(1);
  never_fires.add_crash(~std::uint64_t{0}, 0);
  std::uint64_t ckpt_allocs = 0;
  for (const unsigned cadence : {1u, 8u, 64u}) {
    kmm::FaultPlaneConfig pcfg;
    pcfg.checkpoint_every = cadence;
    kmm::FaultPlane plane(never_fires, pcfg);
    const FaultBenchRun run = drive(&plane);
    report(json, "ckpt-on", cadence, run, detached.wall_ms);
    ckpt_allocs += run.steady_allocs;
  }

  // Durable tee: every cadence checkpoint also lands on disk as a resume
  // frame. Each cell gets its own fresh directory so commit counts and
  // pruning are independent.
  for (const bool fsync : {false, true}) {
    for (const unsigned cadence : {1u, 8u, 64u}) {
      char dir[128];
      std::snprintf(dir, sizeof(dir), "bench_durable_%s_c%u_%d",
                    fsync ? "fsync" : "nofsync", cadence, static_cast<int>(::getpid()));
      kmm::DurableStore store({dir, fsync, /*keep_generations=*/3, 0});
      kmm::FaultPlaneConfig pcfg;
      pcfg.checkpoint_every = cadence;
      kmm::FaultPlane plane(empty, pcfg);
      plane.set_durable_store(&store);
      const FaultBenchRun run = drive(&plane);
      report(json, fsync ? "durable-fsync" : "durable", cadence, run, detached.wall_ms);
      std::printf("  %s cadence=%u: %llu commits, %llu bytes, %llu pruned\n",
                  fsync ? "durable-fsync" : "durable", cadence,
                  static_cast<unsigned long long>(run.durable.commits),
                  static_cast<unsigned long long>(run.durable.bytes_written),
                  static_cast<unsigned long long>(run.durable.pruned));
      char extra[200];
      std::snprintf(extra, sizeof(extra),
                    "{\"mode\": \"%s-io\", \"cadence\": %u, \"fsync\": %s, "
                    "\"durable_commits\": %llu, \"durable_bytes\": %llu, \"pruned\": %llu}",
                    fsync ? "durable-fsync" : "durable", cadence, fsync ? "true" : "false",
                    static_cast<unsigned long long>(run.durable.commits),
                    static_cast<unsigned long long>(run.durable.bytes_written),
                    static_cast<unsigned long long>(run.durable.pruned));
      json.record_raw(extra);
    }
  }

  if (off.steady_allocs != 0 || ckpt_allocs != 0) {
    std::printf("FAIL: fault plane allocated in the steady window: %llu silent, %llu "
                "checkpointing (contract: 0)\n",
                static_cast<unsigned long long>(off.steady_allocs),
                static_cast<unsigned long long>(ckpt_allocs));
    return 1;
  }
  std::printf("silent and checkpointing fault plane steady-state allocations: 0 (ok)\n");
  return 0;
}
