#include "cluster/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/assert.hpp"

namespace kmm {

ClusterConfig ClusterConfig::for_graph(std::size_t n, MachineId k) {
  ClusterConfig cfg;
  cfg.k = k;
  // The canonical "O(polylog n) bits per link per round": B = ceil(log2 n)^2.
  const auto lg = static_cast<std::uint64_t>(std::ceil(std::log2(std::max<std::size_t>(n, 4))));
  cfg.bandwidth_bits = std::max<std::uint64_t>(64, lg * lg);
  return cfg;
}

Expected<Cluster, BuildError> Cluster::make(ClusterConfig config) {
  if (config.k < 2) {
    return Expected<Cluster, BuildError>::err(
        {"the k-machine model needs k >= 2 (got k = " + std::to_string(config.k) + ")"});
  }
  if (config.bandwidth_bits < 1) {
    return Expected<Cluster, BuildError>::err({"per-link bandwidth must be >= 1 bit per round"});
  }
  return Cluster(config);
}

Cluster::Cluster(ClusterConfig config) : config_(config) {
  KMM_CHECK_MSG(config_.k >= 2, "the k-machine model needs k >= 2");
  KMM_CHECK(config_.bandwidth_bits >= 1);
  inboxes_.resize(config_.k);
  stats_.sent_bits_by_machine.assign(config_.k, 0);
  stats_.received_bits_by_machine.assign(config_.k, 0);
  inbox_arenas_.resize(config_.k);
  delivery_partials_.resize(config_.k);
}

void Cluster::deliver_shards_begin(std::span<OutboxShard> shards) {
  KMM_CHECK(shards.size() == config_.k);
  delivery_shards_ = shards;
}

void Cluster::deliver_shard_to(MachineId dst) {
  const MachineId k = config_.k;
  KMM_DCHECK(dst < k && delivery_shards_.size() == k);
  auto& inbox = inboxes_[dst];
  inbox.clear();               // capacity retained
  inbox_arenas_[dst].reset();  // previous generation's spilled payloads are dead
  auto& partial = delivery_partials_[dst];
  partial.link_bits.clear();  // capacity retained
  partial.cross = 0;
  partial.local = 0;
  std::size_t count = 0;
  for (const auto& shard : delivery_shards_) count += shard.buckets[dst].size();
  if (count == 0) return;
  inbox.reserve(count);  // exact: a warm inbox never reallocates mid-delivery
  std::uint64_t cross = 0;
  std::uint64_t local = 0;
  for (MachineId src = 0; src < k; ++src) {
    auto& bucket = delivery_shards_[src].buckets[dst];
    // One sparse row entry per source that actually sent.
    std::uint64_t src_bits = 0;
    for (auto& msg : bucket) {
      KMM_DCHECK(msg.src == src && msg.dst == dst);
      // Re-home spilled payloads into this inbox's arena: payload lifetime
      // becomes inbox lifetime, and the shard arena is free for reuse as
      // soon as the step's delivery ends.
      msg.reintern(inbox_arenas_[dst]);
      if (src == dst) {
        ++local;
      } else {
        ++cross;
        src_bits += msg.wire_bits();
      }
      inbox.push_back(msg);
    }
    bucket.clear();
    if (src_bits > 0) partial.link_bits.emplace_back(src, src_bits);
  }
  partial.cross = cross;
  partial.local = local;
}

std::uint64_t Cluster::deliver_shards_finish() {
  const MachineId k = config_.k;
  delivery_shards_ = {};
  // Fold the per-destination rows into the ledger. Every quantity is an
  // unsigned sum or maximum of the per-link values a message-by-message
  // pass would accumulate, so this order — like any order — reproduces that
  // ledger bit-for-bit (tests/test_delivery.cpp checks it against such a
  // reference). Footprint is O(touched links) for any k.
  std::uint64_t moved = 0;
  std::uint64_t max_load = 0;
  for (MachineId d = 0; d < k; ++d) {
    const auto& partial = delivery_partials_[d];
    moved += partial.cross + partial.local;
    stats_.messages += partial.cross;
    stats_.local_messages += partial.local;
    for (const auto& [src, bits] : partial.link_bits) {
      max_load = std::max(max_load, bits);
      stats_.total_bits += bits;
      stats_.sent_bits_by_machine[src] += bits;
      stats_.received_bits_by_machine[d] += bits;
      if (!cut_side_.empty() && cut_side_[src] != cut_side_[d]) stats_.cut_bits += bits;
    }
  }
  if (moved == 0) return 0;  // nothing moved: a free superstep
  const std::uint64_t rounds =
      max_load == 0 ? 0 : (max_load + config_.bandwidth_bits - 1) / config_.bandwidth_bits;
  stats_.rounds += rounds;
  ++stats_.supersteps;
  stats_.max_link_bits = std::max(stats_.max_link_bits, max_load);
  stats_.last_superstep_link_bits = max_load;
  if (max_load > 0) stats_.superstep_link_max.add(static_cast<double>(max_load));
  return rounds;
}

std::span<const Message> Cluster::inbox(MachineId m) const {
  KMM_CHECK(m < config_.k);
  return inboxes_[m];
}

void Cluster::clear_inbox(MachineId m) {
  KMM_CHECK(m < config_.k);
  inboxes_[m].clear();  // capacity retained; payload arenas recycle next delivery
}

void Cluster::inject_inbox(MachineId m, const Message& msg) {
  KMM_CHECK(m < config_.k && msg.dst == m);
  Message copy = msg;
  // Inbox lifetime for the payload: inbox_arenas_[m] is reset by the next
  // delivery to m — the same instant inboxes_[m] is cleared, so the copy can
  // never outlive its words.
  copy.reintern(inbox_arenas_[m]);
  inboxes_[m].push_back(copy);
}

void Cluster::charge_rounds(std::uint64_t rounds) { stats_.rounds += rounds; }

void Cluster::restore_stats(const ClusterStats& stats) {
  KMM_CHECK_MSG(stats.sent_bits_by_machine.size() == config_.k &&
                    stats.received_bits_by_machine.size() == config_.k,
                "restored ledger's per-machine vectors must match the cluster width");
  stats_ = stats;
}

void Cluster::track_cut(std::vector<std::uint8_t> side) {
  KMM_CHECK_MSG(side.size() == config_.k, "cut side vector must cover all machines");
  cut_side_ = std::move(side);
}

}  // namespace kmm
