#pragma once
// The k-machine model (Section 1.1) as a deterministic synchronous-round
// simulator.
//
// k >= 2 machines are pairwise connected; each *directed* link carries
// `bandwidth_bits` per round (the paper's O(polylog n) per-link budget; a
// bidirectional link is two independent directions, a constant-factor
// convention). Local computation is free.
//
// Algorithms run as a sequence of *supersteps*: every machine reads its
// inbox, computes, and emits messages; the delivery plane then moves
// everything into the destination inboxes and charges
//
//     rounds = max over directed links  ceil(bits_on_link / bandwidth_bits)
//
// which is exactly how the paper costs a message schedule (Lemmas 1, 3-5:
// "all messages are delivered within O~(n/k^2) rounds" = the most-loaded
// link needs that many rounds). Self-addressed messages are local and free.
//
// The engine keeps a full ledger (rounds, messages, bits, per-superstep
// per-link maxima, per-machine traffic) — the measurements every bench/
// harness and perfbench workload is built on.
//
// One delivery protocol: the src/runtime/ engine runs each superstep's
// handlers into per-source OutboxShards (bucketed by destination) and hands
// them to deliver_shards_begin / deliver_shard_to / deliver_shards_finish.
// The k per-destination tasks move each destination's buckets straight into
// its inbox (concurrently or one after another — the result is the same),
// and the per-destination ledger partials are folded afterwards.
// Every reduced quantity is an unsigned sum or maximum of per-link values,
// so the ledger is by construction bit-identical however the local
// computation and the delivery tasks were scheduled —
// tests/test_golden_stats.cpp pins it.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cluster/message.hpp"
#include "cluster/payload_arena.hpp"
#include "util/codec.hpp"
#include "util/expected.hpp"
#include "util/stats.hpp"

namespace kmm {

struct ClusterConfig {
  MachineId k = 2;
  std::uint64_t bandwidth_bits = 256;  // per directed link per round

  /// The default budget used throughout tests and benches:
  /// B = ceil(log2 n)^2 bits per link per round — the canonical concrete
  /// choice of the model's "O(polylog n) bits per link per round".
  static ClusterConfig for_graph(std::size_t n, MachineId k);
};

/// One machine's private send buffer for one superstep: per-destination
/// message buckets plus the arena backing spilled payloads.
/// Bucketing by destination at send time is what lets the delivery plane
/// run as k independent per-destination tasks that move messages without
/// scanning: destination d's task walks buckets[d] of every shard in
/// ascending source order, which is the classic "for each machine, send"
/// order as seen by inbox d. clear() retains the capacity of every
/// bucket and the arena, so a warm shard absorbs a whole superstep without
/// allocating.
struct OutboxShard {
  std::vector<std::vector<Message>> buckets;  // [dst] -> messages in send order
  PayloadArena arena;

  void resize(MachineId k) { buckets.resize(k); }

  void clear() noexcept {
    for (auto& bucket : buckets) bucket.clear();
    arena.reset();
  }
};

struct ClusterStats {
  std::uint64_t rounds = 0;           // total rounds charged
  std::uint64_t supersteps = 0;       // number of deliveries that moved data
  std::uint64_t messages = 0;         // cross-machine messages delivered
  std::uint64_t local_messages = 0;   // self-addressed (free) messages
  std::uint64_t total_bits = 0;       // cross-machine wire bits
  std::uint64_t max_link_bits = 0;    // largest per-link load seen in one superstep
  std::uint64_t cut_bits = 0;         // bits crossing the registered machine cut
  std::uint64_t last_superstep_link_bits = 0;  // most-loaded link of the latest superstep
  Accumulator superstep_link_max;     // distribution of per-superstep max link loads
  std::vector<std::uint64_t> sent_bits_by_machine;
  std::vector<std::uint64_t> received_bits_by_machine;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  /// Validating factory for configs of external origin (CLI flags, service
  /// requests): k < 2 or a zero bandwidth come back as a BuildError instead
  /// of aborting.
  [[nodiscard]] static Expected<Cluster, BuildError> make(ClusterConfig config);

  [[nodiscard]] MachineId k() const noexcept { return config_.k; }
  [[nodiscard]] std::uint64_t bandwidth_bits() const noexcept { return config_.bandwidth_bits; }

  /// The delivery plane — the only way messages move. Protocol:
  ///   deliver_shards_begin(shards)   caller thread, after the handler
  ///                                  barrier; shards[s] holds machine s's
  ///                                  sends bucketed by destination;
  ///   deliver_shard_to(d)            once per destination — safe to run
  ///                                  the k calls concurrently (each task
  ///                                  touches only destination-d state and
  ///                                  every shard's bucket d);
  ///   deliver_shards_finish()        caller thread, after all per-
  ///                                  destination tasks completed; folds
  ///                                  the per-destination ledger partials
  ///                                  into stats() and returns the rounds
  ///                                  charged.
  /// After finish, inbox(m) holds machine m's received messages in ascending
  /// source order, each source's in send order, until the next delivery. A
  /// delivery that moves nothing is free: no rounds, no superstep counted.
  /// Every reduced quantity is an unsigned sum or maximum of per-link
  /// values, so neither the task schedule nor the fold order can change a
  /// ledger bit.
  void deliver_shards_begin(std::span<OutboxShard> shards);
  void deliver_shard_to(MachineId dst);
  std::uint64_t deliver_shards_finish();

  [[nodiscard]] std::span<const Message> inbox(MachineId m) const;

  /// Fault-plane recovery surface: drop machine m's current inbox (what a
  /// crash loses) and re-inject a retransmitted message into it. Injection
  /// is ledger-free — the bits were already charged when the message was
  /// delivered; the plane accounts the retransmission analytically via
  /// charge_rounds(). The payload is re-homed into the inbox's arena, so
  /// the injected message lives exactly as long as the inbox it sits in.
  void clear_inbox(MachineId m);
  void inject_inbox(MachineId m, const Message& msg);

  /// Charge rounds for a protocol whose cost is accounted analytically
  /// (e.g. the Section 2.2 shared-randomness distribution).
  void charge_rounds(std::uint64_t rounds);

  /// Register a machine bipartition; from then on stats().cut_bits counts
  /// every wire bit crossing it. Used by the Section 4 two-party (Alice /
  /// Bob) simulation to measure the communication-complexity cost of a
  /// k-machine protocol. `side` must have one entry (0 or 1) per machine.
  void track_cut(std::vector<std::uint8_t> side);

  [[nodiscard]] const ClusterStats& stats() const noexcept { return stats_; }

  /// Durable-restart seam: overwrite the ledger with a snapshot recovered
  /// from a checkpoint frame. Only the RecoveryManager path calls this — a
  /// resumed process continues accumulating on top of the restored values,
  /// which is what makes the final ledger bit-identical to an uninterrupted
  /// run. The per-machine vectors must match this cluster's width.
  void restore_stats(const ClusterStats& stats);

 private:
  ClusterConfig config_;
  std::vector<std::vector<Message>> inboxes_;   // per machine, current superstep
  std::vector<std::uint8_t> cut_side_;          // empty = no cut tracked
  ClusterStats stats_;

  // Delivery plane state. Each inbox owns an arena for the spilled
  // payloads delivered to it: destination d's task re-homes shard-arena
  // payloads into inbox_arenas_[d], so payload lifetime equals inbox
  // lifetime and the shards are reusable the moment delivery ends.
  //
  // Ledger partials are SPARSE per-destination rows rather than a dense
  // k*k table: destination d's task appends one (src, bits) pair per
  // source that actually sent to it plus its scalar message counts. Tasks
  // write disjoint rows, so the parallel phase stays contention-free, and
  // the footprint is O(touched links), not O(k^2). finish() folds the k
  // rows into the ledger on the calling thread. All buffers retain
  // capacity — a warm cluster finishes a superstep without allocating.
  struct DeliveryPartial {
    std::vector<std::pair<MachineId, std::uint64_t>> link_bits;  // (src, bits)
    std::uint64_t cross = 0;  // cross-machine messages into this destination
    std::uint64_t local = 0;  // self-addressed messages
  };

  std::span<OutboxShard> delivery_shards_;       // valid between begin/finish
  std::vector<PayloadArena> inbox_arenas_;       // one per destination
  std::vector<DeliveryPartial> delivery_partials_;  // one sparse row per destination
};

}  // namespace kmm
