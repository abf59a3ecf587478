#pragma once
// Message envelope for the k-machine simulator.
//
// `bits` is the logical wire size charged against link bandwidth. Senders
// set it to what a real encoding would use (e.g. a vertex id costs
// ceil(log2 n) bits, a sketch cell 61 bits); when left 0 it defaults to
// 64 bits per payload word. Every message additionally pays a fixed header
// (tag + framing), mirroring the O(log k) addressing overhead the paper
// accounts for in the Theorem 5 simulation.
//
// Wire-bit accounting is independent of physical payload storage. A payload
// of up to kInlinePayloadWords words lives inline in the Message struct;
// anything larger is spilled to a PayloadArena owned by the delivering
// Cluster (or, transiently, by a Runtime outbox shard) and referenced by
// pointer. Either way wire_bits() sees only the declared `bits` and the
// logical word count, so the ledger — rounds, total_bits, per-link maxima,
// cut bits — is bit-identical whether a payload happens to be inline,
// arena-backed, or (historically) heap-allocated. Readers never observe the
// storage class: payload() exposes every payload as a
// std::span<const std::uint64_t> whose lifetime matches the inbox it was
// delivered to (one superstep).

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "cluster/payload_arena.hpp"
#include "graph/partition.hpp"

namespace kmm {

inline constexpr std::uint64_t kMessageHeaderBits = 16;

/// Payloads at most this many words are stored inline (no arena traffic);
/// nearly every control/data message in src/core/ is 1-3 words.
inline constexpr std::size_t kInlinePayloadWords = 4;

struct Message {
  MachineId src = 0;
  MachineId dst = 0;
  std::uint32_t tag = 0;

 private:
  std::uint32_t words_ = 0;  // keeps the struct at exactly one cache line

 public:
  std::uint64_t bits = 0;  // payload bits excluding header; 0 = 64*words

  /// Build a message, spilling payloads longer than kInlinePayloadWords
  /// into `arena` (whose generation must outlive the message's delivery).
  static Message make(MachineId src, MachineId dst, std::uint32_t tag,
                      std::span<const std::uint64_t> payload, std::uint64_t bits,
                      PayloadArena& arena) {
    Message msg;
    msg.src = src;
    msg.dst = dst;
    msg.tag = tag;
    msg.bits = bits;
    msg.words_ = static_cast<std::uint32_t>(payload.size());
    if (payload.size() <= kInlinePayloadWords) {
      std::copy(payload.begin(), payload.end(), msg.inline_.begin());
    } else {
      msg.external_ = arena.intern(payload).data();
    }
    return msg;
  }

  /// The payload as a read-only span; valid for the lifetime of the inbox
  /// the message was delivered to (i.e. until the next superstep).
  [[nodiscard]] std::span<const std::uint64_t> payload() const noexcept {
    return {words_ <= kInlinePayloadWords ? inline_.data() : external_, words_};
  }

  [[nodiscard]] std::size_t payload_words() const noexcept { return words_; }

  [[nodiscard]] std::uint64_t wire_bits() const noexcept {
    const std::uint64_t body = bits != 0 ? bits : 64 * words_;
    return body + kMessageHeaderBits;
  }

  /// Re-home a spilled payload into `arena` (no-op for inline payloads).
  /// Used when a message migrates between arena generations — e.g. from a
  /// Runtime shard arena into the destination inbox's arena at delivery.
  void reintern(PayloadArena& arena) {
    if (words_ > kInlinePayloadWords) {
      external_ = arena.intern({external_, words_}).data();
    }
  }

 private:
  std::array<std::uint64_t, kInlinePayloadWords> inline_{};
  const std::uint64_t* external_ = nullptr;
};

static_assert(sizeof(Message) == 64, "Message should stay one cache line");

}  // namespace kmm
