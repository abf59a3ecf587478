#pragma once
// Deterministic fault schedule for the k-machine simulator.
//
// Every injected fault is a pure function of the schedule seed and a
// structural key — (superstep, machine) for crashes, (superstep, src, dst,
// msg_index) for per-message link faults — evaluated through the same
// splitmix64 PRF the generators use. Wall-clock never enters a decision, so
// a schedule replays bit-identically across runs and thread counts: the
// fault plane (fault_plane.hpp) can promise that a recovered run's ledger
// is a deterministic function of (algorithm, graph, schedule) alone, which
// is what makes fault injection a regression test rather than a fuzzer.
//
// Probabilistic draws (FaultProfile) and explicit events (add_crash /
// add_link_fault / ...) compose: tests pin single events, smoke runs turn a
// named profile loose over every key.

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/partition.hpp"
#include "util/random.hpp"

namespace kmm {

/// Fault rates, all keyed per structural event (never per wall-second).
/// Rates are evaluated independently, so one message can be dropped (and
/// retransmitted) *and* duplicated in the same transit.
struct FaultProfile {
  double crash_prob = 0.0;    // per (superstep, machine)
  unsigned crash_stall = 2;   // R: rounds a crashed machine stalls the run
  double drop_prob = 0.0;     // per transmission attempt of a message
  double dup_prob = 0.0;      // per message: one in-transit duplicate
  double reorder_prob = 0.0;  // per (superstep, directed link)
  double corrupt_prob = 0.0;  // per message: payload bit-flip in transit
  unsigned max_drop_attempts = 4;  // retransmit bound per message
  double alloc_fail_prob = 0.0;    // per machine, at stream-ingest layout

  /// Named presets for CLIs and CI smoke runs. `corrupt` is the only preset
  /// that tampers with payloads — corruption is meant to be *detected* by
  /// the verification layer, not recovered from, so `chaos` (crashes +
  /// lossy links at once) deliberately excludes it.
  [[nodiscard]] static const FaultProfile* find(std::string_view name);
  /// As find(), but aborts on an unknown name (library-internal callers).
  [[nodiscard]] static FaultProfile named(std::string_view name);
};

/// Kinds of explicit per-link fault events (add_link_fault). For kReorder
/// the msg_index key is ignored — reordering is a per-bucket event.
enum class LinkFaultKind : std::uint8_t { kDrop, kDuplicate, kCorrupt, kReorder };

class FaultSchedule {
 public:
  explicit FaultSchedule(std::uint64_t seed, FaultProfile profile = {})
      : seed_(seed), profile_(profile) {}

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const FaultProfile& profile() const noexcept { return profile_; }

  // ----------------------------------------------------------- explicit events

  /// Crash `machine` at plane superstep `step`; it recovers within the step
  /// (checkpoint restore + replay) at a cost of `stall` rounds (0 = the
  /// profile's crash_stall).
  void add_crash(std::uint64_t step, MachineId machine, unsigned stall = 0) {
    crashes_.push_back({step, machine, stall, false});
  }
  /// A handler hang at (step, machine): the plane turns it into a
  /// deterministic simulated crash (FaultStats counts it separately).
  void add_hang(std::uint64_t step, MachineId machine) {
    crashes_.push_back({step, machine, 0, true});
  }
  void add_link_fault(std::uint64_t step, MachineId src, MachineId dst,
                      std::uint64_t msg_index, LinkFaultKind kind) {
    links_.push_back({step, msg_index, src, dst, kind});
  }
  void add_ingest_alloc_failure(MachineId machine) { ingest_fails_.push_back(machine); }

  // ------------------------------------------------------------------- crashes

  struct Crash {
    MachineId machine = 0;
    unsigned stall = 0;
    bool hang = false;
  };

  /// All crash/hang events at `step` over machines [0, k): PRF draws plus
  /// explicit events, ascending machine, one entry per machine (stall is
  /// maxed, hang is OR-ed when draws collide).
  void crashes_at(std::uint64_t step, MachineId k, std::vector<Crash>& out) const;

  /// True when any crash is possible (probabilistic or explicit) — gates
  /// the plane's checkpointing so crash-free schedules stay allocation-free.
  [[nodiscard]] bool has_crashes() const noexcept {
    return profile_.crash_prob > 0.0 || !crashes_.empty();
  }
  [[nodiscard]] bool has_link_faults() const noexcept {
    return profile_.drop_prob > 0.0 || profile_.dup_prob > 0.0 ||
           profile_.reorder_prob > 0.0 || profile_.corrupt_prob > 0.0 || !links_.empty();
  }

  // ---------------------------------------------------------- per-message draws

  /// Consecutive failed transmission attempts of message `msg_index` on
  /// (src -> dst) at `step`, bounded by max_drop_attempts. Each failed
  /// attempt burns the message's wire bits; attempt a+1 is an independent
  /// PRF draw, so the retry protocol's cost distribution is geometric.
  [[nodiscard]] unsigned drop_attempts(std::uint64_t step, MachineId src, MachineId dst,
                                       std::uint64_t msg_index) const;
  [[nodiscard]] bool duplicated(std::uint64_t step, MachineId src, MachineId dst,
                                std::uint64_t msg_index) const;
  /// When true, *mask is a nonzero XOR to apply to the payload's last word.
  [[nodiscard]] bool corrupted(std::uint64_t step, MachineId src, MachineId dst,
                               std::uint64_t msg_index, std::uint64_t* mask) const;
  [[nodiscard]] bool reordered(std::uint64_t step, MachineId src, MachineId dst) const;
  /// Deterministic in-transit shuffle key for the seq-th message of a
  /// reordered bucket (ties broken by seq at the sort site).
  [[nodiscard]] std::uint64_t shuffle_rank(std::uint64_t step, MachineId src, MachineId dst,
                                           std::uint64_t seq) const {
    return split(link_key(kSaltReorder, step, src, dst), seq);
  }

  /// Whether machine `machine` should fail its shard allocation at
  /// stream-ingest layout time (explicit event or alloc_fail_prob draw).
  [[nodiscard]] bool ingest_alloc_fails(MachineId machine) const;

 private:
  // Salts keep the per-fault-class PRF streams independent.
  static constexpr std::uint64_t kSaltCrash = 0x6372617368ull;    // "crash"
  static constexpr std::uint64_t kSaltDrop = 0x64726f70ull;       // "drop"
  static constexpr std::uint64_t kSaltDup = 0x647570ull;          // "dup"
  static constexpr std::uint64_t kSaltCorrupt = 0x636f7272ull;    // "corr"
  static constexpr std::uint64_t kSaltReorder = 0x72656f72ull;    // "reor"
  static constexpr std::uint64_t kSaltAlloc = 0x616c6c6f63ull;    // "alloc"

  /// Uniform [0, 2^53) draw vs. probability threshold.
  [[nodiscard]] static bool passes(std::uint64_t draw, double prob) noexcept {
    if (prob <= 0.0) return false;
    if (prob >= 1.0) return true;
    return (draw >> 11) < static_cast<std::uint64_t>(prob * 9007199254740992.0);
  }

  [[nodiscard]] std::uint64_t link_key(std::uint64_t salt, std::uint64_t step, MachineId src,
                                       MachineId dst) const noexcept {
    return split3(seed_ ^ salt, step,
                  (static_cast<std::uint64_t>(src) << 32) | static_cast<std::uint64_t>(dst));
  }

  [[nodiscard]] bool explicit_link(std::uint64_t step, MachineId src, MachineId dst,
                                   std::uint64_t msg_index, LinkFaultKind kind) const;

  struct ExplicitCrash {
    std::uint64_t step;
    MachineId machine;
    unsigned stall;
    bool hang;
  };
  struct ExplicitLink {
    std::uint64_t step;
    std::uint64_t msg_index;
    MachineId src;
    MachineId dst;
    LinkFaultKind kind;
  };

  std::uint64_t seed_;
  FaultProfile profile_;
  std::vector<ExplicitCrash> crashes_;  // linear scans: schedules are tiny
  std::vector<ExplicitLink> links_;
  std::vector<MachineId> ingest_fails_;
};

/// The serving layer's chaos schedule for one query attempt: ONE PRF kill
/// draw per (query, attempt) decides whether — and deterministically where
/// and when — this attempt dies (an explicit crash for the lethal plane to
/// convert into QueryKilled). One draw per attempt, not per (step, machine),
/// so retries converge geometrically: P(attempt survives) = 1 - kill_prob
/// regardless of query length or k. The link-fault rates of `profile` ride
/// along unchanged, but its crash_prob is zeroed — in chaos mode every
/// crash must come from the kill draw, so a surviving attempt carries an
/// empty crash schedule and (by the plane's silent-crash neutrality) a
/// ledger bit-identical to an undisturbed run. A kill lands on a superstep
/// drawn from [0, 64).
[[nodiscard]] FaultSchedule service_attempt_schedule(std::uint64_t seed,
                                                     std::uint64_t query_id,
                                                     std::uint64_t attempt, double kill_prob,
                                                     MachineId k, FaultProfile profile = {});

}  // namespace kmm
