#include "fault/fault_schedule.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace kmm {

namespace {

struct NamedProfile {
  std::string_view name;
  FaultProfile profile;
};

constexpr FaultProfile make_profile(double crash, double drop, double dup, double reorder,
                                    double corrupt) {
  FaultProfile p;
  p.crash_prob = crash;
  p.drop_prob = drop;
  p.dup_prob = dup;
  p.reorder_prob = reorder;
  p.corrupt_prob = corrupt;
  return p;
}

// Rates chosen so a few-hundred-superstep run sees a handful of each fault
// class without degenerating into noise; `chaos` excludes corruption (see
// FaultProfile::find's doc comment).
constexpr NamedProfile kProfiles[] = {
    {"none", make_profile(0.0, 0.0, 0.0, 0.0, 0.0)},
    {"crashes", make_profile(0.05, 0.0, 0.0, 0.0, 0.0)},
    {"lossy", make_profile(0.0, 0.05, 0.03, 0.05, 0.0)},
    {"corrupt", make_profile(0.0, 0.0, 0.0, 0.0, 0.05)},
    {"chaos", make_profile(0.03, 0.04, 0.02, 0.04, 0.0)},
};

}  // namespace

const FaultProfile* FaultProfile::find(std::string_view name) {
  for (const auto& entry : kProfiles) {
    if (entry.name == name) return &entry.profile;
  }
  return nullptr;
}

FaultProfile FaultProfile::named(std::string_view name) {
  const FaultProfile* p = find(name);
  KMM_CHECK_MSG(p != nullptr, "unknown fault profile name");
  return *p;
}

void FaultSchedule::crashes_at(std::uint64_t step, MachineId k, std::vector<Crash>& out) const {
  out.clear();
  for (MachineId m = 0; m < k; ++m) {
    if (passes(split3(seed_ ^ kSaltCrash, step, m), profile_.crash_prob)) {
      out.push_back({m, profile_.crash_stall, false});
    }
  }
  for (const ExplicitCrash& c : crashes_) {
    if (c.step != step) continue;
    const unsigned stall = c.stall != 0 ? c.stall : profile_.crash_stall;
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const Crash& e) { return e.machine == c.machine; });
    if (it == out.end()) {
      out.push_back({c.machine, stall, c.hang});
    } else {
      it->stall = std::max(it->stall, stall);
      it->hang = it->hang || c.hang;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Crash& a, const Crash& b) { return a.machine < b.machine; });
}

bool FaultSchedule::explicit_link(std::uint64_t step, MachineId src, MachineId dst,
                                  std::uint64_t msg_index, LinkFaultKind kind) const {
  for (const ExplicitLink& f : links_) {
    if (f.step != step || f.src != src || f.dst != dst || f.kind != kind) continue;
    if (kind == LinkFaultKind::kReorder || f.msg_index == msg_index) return true;
  }
  return false;
}

unsigned FaultSchedule::drop_attempts(std::uint64_t step, MachineId src, MachineId dst,
                                      std::uint64_t msg_index) const {
  const std::uint64_t hm = split(link_key(kSaltDrop, step, src, dst), msg_index);
  unsigned attempts = 0;
  while (attempts < profile_.max_drop_attempts &&
         passes(split(hm, 100 + attempts), profile_.drop_prob)) {
    ++attempts;
  }
  if (attempts == 0 && explicit_link(step, src, dst, msg_index, LinkFaultKind::kDrop)) {
    attempts = 1;
  }
  return attempts;
}

bool FaultSchedule::duplicated(std::uint64_t step, MachineId src, MachineId dst,
                               std::uint64_t msg_index) const {
  const std::uint64_t hm = split(link_key(kSaltDup, step, src, dst), msg_index);
  return passes(split(hm, 200), profile_.dup_prob) ||
         explicit_link(step, src, dst, msg_index, LinkFaultKind::kDuplicate);
}

bool FaultSchedule::corrupted(std::uint64_t step, MachineId src, MachineId dst,
                              std::uint64_t msg_index, std::uint64_t* mask) const {
  const std::uint64_t hm = split(link_key(kSaltCorrupt, step, src, dst), msg_index);
  if (!passes(split(hm, 300), profile_.corrupt_prob) &&
      !explicit_link(step, src, dst, msg_index, LinkFaultKind::kCorrupt)) {
    return false;
  }
  // A small nonzero low-bit flip: large enough to change any value, small
  // enough that an in-range label usually stays in range, exercising the
  // verification layer (not the bounds asserts) as the detector.
  *mask = 1 + (split(hm, 301) % 7);
  return true;
}

bool FaultSchedule::reordered(std::uint64_t step, MachineId src, MachineId dst) const {
  return passes(split(link_key(kSaltReorder, step, src, dst), 400), profile_.reorder_prob) ||
         explicit_link(step, src, dst, 0, LinkFaultKind::kReorder);
}

FaultSchedule service_attempt_schedule(std::uint64_t seed, std::uint64_t query_id,
                                       std::uint64_t attempt, double kill_prob,
                                       MachineId k, FaultProfile profile) {
  KMM_CHECK_MSG(k >= 1, "service_attempt_schedule needs at least one machine");
  constexpr std::uint64_t kKillHorizon = 64;  // kill steps are drawn in [0, 64)
  // Every crash must come from the single kill draw below (see the header
  // doc): zero the profile's own crash stream before seeding the schedule.
  profile.crash_prob = 0.0;
  FaultSchedule schedule(split3(seed, query_id, attempt), profile);
  constexpr std::uint64_t kSaltKill = 0x6b696c6cull;  // "kill"
  const std::uint64_t draw = split3(seed ^ kSaltKill, query_id, attempt);
  bool kill = false;
  if (kill_prob >= 1.0) {
    kill = true;
  } else if (kill_prob > 0.0) {
    kill = (draw >> 11) < static_cast<std::uint64_t>(kill_prob * 9007199254740992.0);
  }
  if (kill) {
    const std::uint64_t step = split(draw, 1) % kKillHorizon;
    const MachineId machine = static_cast<MachineId>(split(draw, 2) % k);
    schedule.add_crash(step, machine);
  }
  return schedule;
}

bool FaultSchedule::ingest_alloc_fails(MachineId machine) const {
  if (std::find(ingest_fails_.begin(), ingest_fails_.end(), machine) != ingest_fails_.end()) {
    return true;
  }
  return passes(split3(seed_ ^ kSaltAlloc, 0, machine), profile_.alloc_fail_prob);
}

}  // namespace kmm
