#pragma once
// Flat, capacity-retaining label -> value registry for the Borůvka engine's
// per-machine component state.
//
// The engine keys everything by component label (a vertex id in [0, n)):
// which parts a machine holds, which labels to re-sketch, proxy-side
// component records, per-superstep sketch accumulators. Tree-based maps put
// every one of those on the allocator and scatter them across the heap;
// this registry is the flat replacement, mirroring the message plane's
// count-then-bucket/touched-list design (PR 3):
//
//  * a dense slot table `slot_of_[label]` (one u32 per label in the
//    universe, kNoSlot when absent) makes find/insert/erase O(1) with no
//    hashing and no per-node allocation;
//  * slots are recycled through a free list, and clear() recycles the whole
//    population without releasing storage — a slot's payload keeps its heap
//    capacity (a part's vertex vector, a record's machine mask) across
//    occupants, so steady-state churn allocates nothing;
//  * `touched_` lists the labels currently present; for_each_sorted() sorts
//    it ascending and walks payloads in label order — the exact iteration
//    order the old ordered maps gave, which the wire protocol depends on
//    (the golden ledger pins message order per superstep).
//
// Contract:
//  * reset_universe() must be called before use; labels must be < universe.
//  * get_or_create() with created == true hands back a *stale* payload from
//    a previous occupant — the caller must reset it, preferably with a
//    capacity-retaining reset (vector::clear, assign of equal size).
//  * erase()/get_or_create() must not be called while iterating; collect
//    labels and mutate after (the engine's finished/merged-list pattern).
//  * The registry is not thread-safe; the engine shards one registry per
//    machine so superstep handlers never share one.
//
// Memory: the dense slot table costs 4 bytes per universe label per
// registry. The engine keeps 3 registries x k machines over a universe of n
// labels — 12*n*k bytes total, the price of O(1) slot lookup without
// hashing; revisit with a paged table if simulated n ever outgrows it.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/common.hpp"
#include "util/assert.hpp"

namespace kmm {

template <typename T>
class LabelRegistry {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Size the dense slot table for labels in [0, universe) and empty the
  /// registry. Existing slot storage is kept for recycling.
  void reset_universe(std::size_t universe) {
    slot_of_.assign(universe, kNoSlot);
    touched_.clear();
    free_.clear();
    free_.reserve(slots_.size());
    for (std::uint32_t s = 0; s < slots_.size(); ++s) free_.push_back(s);
  }

  [[nodiscard]] bool contains(Label label) const noexcept {
    KMM_DCHECK(label < slot_of_.size());
    return slot_of_[label] != kNoSlot;
  }

  [[nodiscard]] T* find(Label label) noexcept {
    KMM_DCHECK(label < slot_of_.size());
    const std::uint32_t s = slot_of_[label];
    return s == kNoSlot ? nullptr : &slots_[s].value;
  }
  [[nodiscard]] const T* find(Label label) const noexcept {
    KMM_DCHECK(label < slot_of_.size());
    const std::uint32_t s = slot_of_[label];
    return s == kNoSlot ? nullptr : &slots_[s].value;
  }

  [[nodiscard]] T& at(Label label) {
    T* v = find(label);
    KMM_CHECK_MSG(v != nullptr, "label not present in registry");
    return *v;
  }

  /// Find or insert. On insert, `created` is set and the returned payload is
  /// stale (recycled slot) — the caller must reset it. References are
  /// invalidated by later get_or_create calls (slot storage may grow).
  [[nodiscard]] T& get_or_create(Label label, bool& created) {
    KMM_DCHECK(label < slot_of_.size());
    std::uint32_t s = slot_of_[label];
    if (s != kNoSlot) {
      created = false;
      return slots_[s].value;
    }
    created = true;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slot_of_[label] = s;
    slots_[s].label = label;
    slots_[s].pos = static_cast<std::uint32_t>(touched_.size());
    touched_.push_back(label);
    return slots_[s].value;
  }

  /// Remove `label`, recycling its slot (payload storage retained for the
  /// next occupant). O(1) via swap-with-last in the touched list.
  void erase(Label label) {
    KMM_DCHECK(label < slot_of_.size());
    const std::uint32_t s = slot_of_[label];
    KMM_CHECK_MSG(s != kNoSlot, "erase of a label not present in registry");
    const std::uint32_t pos = slots_[s].pos;
    const Label last = touched_.back();
    touched_[pos] = last;
    slots_[slot_of_[last]].pos = pos;
    touched_.pop_back();
    slot_of_[label] = kNoSlot;
    free_.push_back(s);
  }

  /// Empty the registry; all slots (and their payload capacities) are
  /// recycled, so a warm registry refills without allocating.
  void clear() noexcept {
    for (const Label label : touched_) {
      free_.push_back(slot_of_[label]);
      slot_of_[label] = kNoSlot;
    }
    touched_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept { return touched_.size(); }
  [[nodiscard]] bool empty() const noexcept { return touched_.empty(); }

  /// Visit every (label, payload) in unspecified order — for scans whose
  /// result is order-independent (activity bits, counts).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (const Label label : touched_) fn(label, slots_[slot_of_[label]].value);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Label label : touched_) fn(label, slots_[slot_of_[label]].value);
  }

  /// True iff any (label, payload) satisfies `pred`; stops at the first hit
  /// (the activity scans' early break).
  template <typename Pred>
  [[nodiscard]] bool any_of(Pred&& pred) const {
    for (const Label label : touched_) {
      if (pred(label, slots_[slot_of_[label]].value)) return true;
    }
    return false;
  }

  /// Visit every (label, payload) in ascending label order — the iteration
  /// the wire protocol uses wherever messages are emitted, so the ledger
  /// matches the ordered-map representation bit for bit. Sorts the touched
  /// list in place (in-place introsort, no allocation).
  template <typename Fn>
  void for_each_sorted(Fn&& fn) {
    sort_touched();
    for (const Label label : touched_) fn(label, slots_[slot_of_[label]].value);
  }

 private:
  void sort_touched() noexcept {
    std::sort(touched_.begin(), touched_.end());
    for (std::uint32_t p = 0; p < touched_.size(); ++p) {
      slots_[slot_of_[touched_[p]]].pos = p;
    }
  }

  struct Slot {
    Label label = 0;
    std::uint32_t pos = 0;  // index in touched_ while occupied
    T value{};
  };

  std::vector<std::uint32_t> slot_of_;  // label -> slot, kNoSlot when absent
  std::vector<Slot> slots_;             // never shrinks; free slots recycled
  std::vector<std::uint32_t> free_;
  std::vector<Label> touched_;          // labels currently present
};

}  // namespace kmm
