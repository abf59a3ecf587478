#include "core/boruvka.hpp"

#include <algorithm>
#include <cmath>

#include "core/drr.hpp"
#include "fault/fault_plane.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace kmm {

namespace {

// Message tags of the engine's wire protocol.
constexpr std::uint32_t kTagSketch = 1;
constexpr std::uint32_t kTagLabelQuery = 2;
constexpr std::uint32_t kTagLabelReply = 3;
constexpr std::uint32_t kTagWeightQuery = 4;
constexpr std::uint32_t kTagWeightReply = 5;
constexpr std::uint32_t kTagDirective = 6;  // [label, kind, thr] kind: 0=continue 1=finished
constexpr std::uint32_t kTagHandoff = 7;
constexpr std::uint32_t kTagChildReg = 8;   // [child, parent]
constexpr std::uint32_t kTagRelabel = 9;    // [from, to]
constexpr std::uint32_t kTagChildDone = 10; // [parent, srcs...]
constexpr std::uint32_t kTagCtrlElim = 11;
constexpr std::uint32_t kTagCtrlMerge = 12;
constexpr std::uint32_t kTagCtrlActive = 13;
constexpr std::uint32_t kTagCountProxy = 14;
constexpr std::uint32_t kTagCountRoot = 15;
constexpr std::uint32_t kTagCountBcast = 16;

constexpr std::uint64_t kDirectiveContinue = 0;
constexpr std::uint64_t kDirectiveFinished = 1;

}  // namespace

std::vector<std::pair<Vertex, Vertex>> BoruvkaResult::forest_edges() const {
  std::vector<std::pair<Vertex, Vertex>> all;
  for (const auto& per_machine : forest_by_machine) {
    all.insert(all.end(), per_machine.begin(), per_machine.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::vector<WeightedEdge> BoruvkaResult::mst_edges() const {
  std::vector<WeightedEdge> all;
  for (const auto& per_machine : mst_by_machine) {
    all.insert(all.end(), per_machine.begin(), per_machine.end());
  }
  std::sort(all.begin(), all.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
    return std::tuple{a.u, a.v, a.w} < std::tuple{b.u, b.v, b.w};
  });
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

BoruvkaEngine::BoruvkaEngine(Cluster& cluster, const DistributedGraph& dg,
                             BoruvkaConfig config, BoruvkaMode mode)
    : cluster_(&cluster),
      dg_(&dg),
      config_(config),
      mode_(mode),
      shared_(config.seed),
      n_(dg.num_vertices()),
      label_bits_(bits_for(std::max<std::uint64_t>(n_, 2))),
      // The Lemma 7 bound 12*ceil(log2 n) (+1) unless configured.
      max_phases_(config.max_phases > 0 ? static_cast<std::uint32_t>(config.max_phases)
                                        : static_cast<std::uint32_t>(12 * label_bits_) + 1),
      runtime_(cluster, RuntimeConfig{config.threads, config.obs, config.fault, config.cancel,
                                      config.pool}),
      builder_(n_, shared_.seed(0, 0, seed_purpose::kSketch), config.sketch_copies) {
  KMM_CHECK_MSG(n_ >= 2, "the engine needs at least two vertices");
  const MachineId k = cluster_->k();
  machines_.resize(k);
  machine_parts_.resize(k);
  resend_.resize(k);
  proxy_records_.resize(k);
  sum_slots_.resize(k);
  sketch_pool_.resize(k);
  for (MachineId i = 0; i < k; ++i) {
    machine_parts_[i].reset_universe(n_);
    resend_[i].reset_universe(n_);
    proxy_records_[i].reset_universe(n_);
    sum_slots_[i].reset_universe(n_);
  }
  writer_.resize(k);
  mask_scratch_.assign(k, std::vector<std::uint64_t>(mask_words()));
  power_scratch_.resize(k);
  label_scratch_.resize(k);
  seen_scratch_.assign(n_, 0);
  labels_.resize(n_);
  for (Vertex v = 0; v < n_; ++v) {
    labels_[v] = v;
    bool created = false;
    Part& part = machine_parts_[dg.home(v)].get_or_create(v, created);
    part.verts.assign(1, v);
    part.finished = false;
  }
  result_.forest_by_machine.resize(k);
  result_.mst_by_machine.resize(k);
}

ProxyMap BoruvkaEngine::elimination_proxies(std::uint32_t phase, std::uint32_t t) const {
  if (config_.single_coordinator) return ProxyMap::fixed(0, cluster_->k());
  return ProxyMap(shared_.seed(phase, t, seed_purpose::kProxy), cluster_->k());
}

ProxyMap BoruvkaEngine::merge_proxies(std::uint32_t phase, std::uint32_t rho) const {
  if (config_.single_coordinator) return ProxyMap::fixed(0, cluster_->k());
  // Offset keeps merge-iteration hashes disjoint from elimination ones.
  return ProxyMap(shared_.seed(phase, 100000 + rho, seed_purpose::kProxy), cluster_->k());
}

void BoruvkaEngine::charge_phase_randomness() {
  if (!config_.charge_randomness) return;
  // Section 2.2: d = Θ~(n/k) bits make the per-iteration hash functions
  // d-wise independent; plus Θ(log^2 n) bits for the sketch seeds ([10]).
  const std::uint64_t d_bits =
      (n_ / cluster_->k() + 1) * label_bits_ + 4 * label_bits_ * label_bits_;
  shared_.charge_distribution(*cluster_, d_bits);
}

void BoruvkaEngine::write_record(Label label, const Record& rec, WordWriter& w) const {
  w.u64(label)
      .u64(rec.state)
      .u64(rec.parent)
      .u64(rec.children_left)
      .u64(rec.thr)
      .u64(rec.has_candidate ? 1 : 0)
      .u64(rec.cand_in)
      .u64(rec.cand_out)
      .u64(rec.cand_w)
      .u64(rec.target);
  for (const auto word : rec.srcs) w.u64(word);
}

void BoruvkaEngine::read_record(WordReader& r, LabelRegistry<Record>& into) const {
  const Label label = r.u64();
  bool created = false;
  Record& rec = into.get_or_create(label, created);
  KMM_CHECK_MSG(created, "duplicate proxy record");
  rec.reset(mask_words());
  rec.state = static_cast<State>(r.u64());
  rec.parent = r.u64();
  rec.children_left = static_cast<std::uint32_t>(r.u64());
  rec.thr = r.u64();
  rec.has_candidate = r.u64() != 0;
  rec.cand_in = static_cast<Vertex>(r.u64());
  rec.cand_out = static_cast<Vertex>(r.u64());
  rec.cand_w = r.u64();
  rec.target = r.u64();
  for (auto& word : rec.srcs) word = r.u64();
}

void BoruvkaEngine::send_handoffs(MachineId i, Outbox& out, const ProxyMap& to) {
  const std::uint64_t rec_bits = 4 * label_bits_ + 140 + cluster_->k();
  WordWriter& w = writer_[i];
  proxy_records_[i].for_each_sorted([&](Label label, const Record& rec) {
    w.clear();
    write_record(label, rec, w);
    out.send(to.proxy_of(label), kTagHandoff, w.words(), rec_bits);
  });
  proxy_records_[i].clear();
}

// ------------------------------------------------------------ the program

void BoruvkaEngine::on_superstep(MachineId self, std::span<const Message> inbox,
                                 Outbox& out) {
  Machine& me = machines_[self];
  if (me.await_verdict) {
    // Machine 0's verdict of the broadcast this machine stepped through
    // last superstep is the whole inbox; it decides where the cursor goes.
    KMM_CHECK_MSG(inbox.size() == 1, "expected exactly one OR verdict");
    me.await_verdict = false;
    advance_past_broadcast(me.cursor, inbox.front().payload()[0] != 0);
  }
  Cursor& c = me.cursor;
  switch (c.step) {
    case Step::kActiveGather:
    case Step::kElimGather:
    case Step::kMergeGather:
      // First half of an OR-reduce: machines with work report to machine 0.
      me.bit = has_work(self, c.step);
      if (me.bit) out.send(0, ctrl_tag(c.step), {}, 1);
      break;
    case Step::kActiveBcast:
    case Step::kElimBcast:
    case Step::kMergeBcast:
      broadcast(self, inbox, out);
      return;  // the verdict moves the cursor
    case Step::kSketch:
      sketch_parts(self, out);
      break;
    case Step::kProxyMerge:
      merge_sketches(self, inbox, out);
      break;
    case Step::kAnswer:
    case Step::kThreshold:  // its inbox holds only the replies' directives
      answer_queries(self, inbox, out);
      break;
    case Step::kReply:
      apply_replies(self, inbox, out);
      break;
    case Step::kRank:
      rank_components(self, out);
      break;
    case Step::kChildReg:
      for (const auto& msg : inbox) {
        if (msg.tag != kTagChildReg) continue;
        Record* rec = proxy_records_[self].find(msg.payload()[1]);
        KMM_CHECK_MSG(rec != nullptr, "child registered with an unknown parent component");
        ++rec->children_left;
      }
      break;
    case Step::kHandoff:
      // Fresh proxies each merge iteration (Lemma 5) + record handoff.
      send_handoffs(self, out, merge_proxies(c.phase, c.rho));
      break;
    case Step::kLeaves:
      merge_leaves(self, inbox, out);
      break;
    case Step::kApply:
      apply_merges(self, inbox);
      break;
    case Step::kCountProxy:
    case Step::kCountRoot:
    case Step::kCountBcast:
      count_step(self, inbox, out);
      break;
    case Step::kDone:
      KMM_CHECK_MSG(false, "Borůvka engine stepped past the end of its protocol");
  }
  // Every other step is followed by the next one in declaration order; the
  // merge iteration loops back to its OR.
  c.step = c.step == Step::kApply ? Step::kMergeGather
                                  : static_cast<Step>(static_cast<int>(c.step) + 1);
}

bool BoruvkaEngine::has_work(MachineId i, Step gather) const {
  switch (gather) {
    case Step::kActiveGather:
      return machine_parts_[i].any_of(
          [](Label, const Part& part) { return !part.verts.empty() && !part.finished; });
    case Step::kElimGather:
      return proxy_records_[i].any_of([](Label, const Record& rec) {
        return rec.state == kSearching || rec.state == kAwaitWeight ||
               rec.state == kAwaitLabel;
      });
    default:  // kMergeGather
      return proxy_records_[i].any_of(
          [](Label label, const Record& rec) { return rec.parent != label; });
  }
}

std::uint32_t BoruvkaEngine::ctrl_tag(Step s) {
  if (s <= Step::kActiveBcast) return kTagCtrlActive;
  return s <= Step::kElimBcast ? kTagCtrlElim : kTagCtrlMerge;
}

/// Second half of an OR-reduce: machine 0 broadcasts the OR of the gathered
/// bits back (2 supersteps, at most k-1 one-bit messages each — the paper's
/// O(1)-round control primitive). The other machines read the verdict next
/// superstep.
void BoruvkaEngine::broadcast(MachineId i, std::span<const Message> inbox, Outbox& out) {
  Machine& me = machines_[i];
  if (i != 0) {
    me.await_verdict = true;
    return;
  }
  me.verdict = !inbox.empty() || me.bit;
  for (MachineId j = 1; j < out.machines(); ++j) {
    out.send(j, ctrl_tag(me.cursor.step), {me.verdict ? 1ULL : 0ULL}, 1);
  }
  advance_past_broadcast(me.cursor, me.verdict);
}

void BoruvkaEngine::advance_past_broadcast(Cursor& c, bool any) const {
  switch (c.step) {
    case Step::kActiveBcast:
      // The active OR after the phase cap only decides `converged`.
      if (any && c.phase < max_phases_) {
        c = Cursor{Step::kSketch, c.phase, 0, 0};
      } else {
        c.step = config_.count_components ? Step::kCountProxy : Step::kDone;
      }
      break;
    case Step::kElimBcast:
      if (any) {
        ++c.t;
        c.step = Step::kSketch;
      } else {
        c.step = Step::kRank;  // t stays: the proxy generation holding the records
      }
      break;
    default:  // kMergeBcast
      if (any) {
        ++c.rho;
        c.step = Step::kHandoff;
      } else {
        ++c.phase;
        c.step = Step::kActiveGather;
      }
  }
}

// SS1: each machine sketches its active parts (restricted by the local
// threshold in MST mode) and, from the second iteration on, hands its proxy
// records off to the fresh proxy generation. Sketch construction is the
// engine's dominant local computation — the handlers below are where
// threads > 1 pays. One pooled sampler per machine absorbs every part
// sketch of the iteration.
void BoruvkaEngine::sketch_parts(MachineId i, Outbox& out) {
  const Cursor& c = machines_[i].cursor;
  if (c.t == 0) {
    // Phase entry: every active part is sketched, unrestricted, and the
    // previous phase's proxy records retire.
    resend_[i].clear();
    proxy_records_[i].clear();
    machine_parts_[i].for_each([&](Label label, const Part& part) {
      if (!part.verts.empty() && !part.finished) {
        bool created = false;
        resend_[i].get_or_create(label, created) = kNoWeightLimit;
      }
    });
  }
  const ProxyMap prox = elimination_proxies(c.phase, c.t);
  // The only read of the bound builder's power tables. On a fault-plane
  // replay the builder may be bound to a later iteration; the sketches are
  // then wrong, but replayed sends are discarded.
  const GraphSketchBuilder& builder = builder_;
  resend_[i].for_each_sorted([&](Label label, Weight thr) {
    const Part* part = machine_parts_[i].find(label);
    KMM_CHECK(part != nullptr);
    auto& pool = sketch_pool_[i];
    pool.release_all();
    L0Sampler& sketch = pool.acquire(builder.universe(), builder.params(), builder.seed());
    builder.accumulate_part(*dg_, part->verts, thr, sketch, power_scratch_[i]);
    // Wire forms vary in length with the sketch's live depth; reserving
    // the longest keeps the reused writer from growing in steady state.
    auto& w = writer_[i];
    w.clear();
    w.reserve(1 + sketch.max_serialized_words());
    w.u64(label);
    sketch.serialize(w);
    out.send(prox.proxy_of(label), kTagSketch, w.words(), label_bits_ + sketch.wire_bits());
  });
  resend_[i].clear();
  if (c.t >= 1) send_handoffs(i, out, prox);
}

// Proxy side: apply handoffs first so records exist before this iteration's
// sketches are merged, then sum per-label sketches and run the state
// transitions on the combined result. Incoming sketches are merged
// wire-level: each copy's live cells add straight off the payload into a
// pooled accumulator (add_serialized) — no per-message deserialize. The
// accumulators' seed comes from the cursor, so a replay merges exactly what
// the live step did.
void BoruvkaEngine::merge_sketches(MachineId i, std::span<const Message> inbox,
                                   Outbox& out) {
  const Cursor& c = machines_[i].cursor;
  const std::uint64_t sketch_seed = shared_.seed(c.phase, c.t, seed_purpose::kSketch);
  const GraphSketchBuilder& shape = builder_;  // universe, params, decode
  for (const auto& msg : inbox) {
    if (msg.tag == kTagHandoff) {
      WordReader r(msg.payload());
      read_record(r, proxy_records_[i]);
    }
  }
  auto& sums = sum_slots_[i];
  auto& pool = sketch_pool_[i];
  sums.clear();
  pool.release_all();
  for (const auto& msg : inbox) {
    if (msg.tag != kTagSketch) continue;
    WordReader r(msg.payload());
    const Label label = r.u64();
    bool created = false;
    Record& rec = proxy_records_[i].get_or_create(label, created);
    if (created) {
      rec.reset(mask_words());
      rec.parent = label;
    }
    mask_set(rec.srcs, msg.src);
    bool sum_created = false;
    std::uint32_t& sum_idx = sums.get_or_create(label, sum_created);
    if (sum_created) sum_idx = pool.acquire_index(shape.universe(), shape.params(), sketch_seed);
    pool.at(sum_idx).add_serialized(r);
  }

  // State transitions for components whose combined sketch arrived, in
  // ascending label order (the wire order the ledger pins).
  sums.for_each_sorted([&](Label label, std::uint32_t sum_idx) {
    L0Sampler& sum = pool.at(sum_idx);
    Record& rec = proxy_records_[i].at(label);
    KMM_CHECK(rec.state == kSearching);
    if (sum.is_zero()) {
      if (rec.has_candidate) {
        // No outgoing edge lighter than the candidate: MWOE confirmed.
        rec.state = kAwaitLabel;
        out.send(dg_->home(rec.cand_out), kTagLabelQuery, {label, rec.cand_out},
                 2 * label_bits_);
      } else {
        rec.state = kFinishedState;
        mask_for_each(rec.srcs, [&](MachineId m) {
          out.send(m, kTagDirective, {label, kDirectiveFinished, 0}, label_bits_ + 2);
        });
      }
      return;
    }
    const auto sampled = sum.sample();
    if (!sampled) {
      // Nonzero vector but recovery failed: retry with fresh seeds.
      ++machines_[i].sampler_retries;
      mask_for_each(rec.srcs, [&](MachineId m) {
        out.send(m, kTagDirective, {label, kDirectiveContinue, rec.thr}, label_bits_ + 66);
      });
      return;
    }
    const auto [x, y] = shape.decode(sampled->index);
    rec.cand_in = sampled->value > 0 ? x : y;
    rec.cand_out = sampled->value > 0 ? y : x;
    rec.has_candidate = true;
    if (mode_ == BoruvkaMode::kConnectivity) {
      rec.state = kAwaitLabel;
      out.send(dg_->home(rec.cand_out), kTagLabelQuery, {label, rec.cand_out},
               2 * label_bits_);
    } else {
      rec.state = kAwaitWeight;
      out.send(dg_->home(rec.cand_in), kTagWeightQuery, {label, rec.cand_in, rec.cand_out},
               3 * label_bits_);
    }
  });
}

// SS2: home machines answer queries; part machines apply directives issued
// by the sampling step (and, one step later, by the weight replies).
void BoruvkaEngine::answer_queries(MachineId i, std::span<const Message> inbox,
                                   Outbox& out) {
  for (const auto& msg : inbox) {
    switch (msg.tag) {
      case kTagLabelQuery: {
        const Label label = msg.payload()[0];
        const auto v = static_cast<Vertex>(msg.payload()[1]);
        KMM_CHECK_MSG(dg_->home(v) == i, "label query reached a non-home machine");
        out.send(msg.src, kTagLabelReply, {label, labels_[v]}, 2 * label_bits_);
        break;
      }
      case kTagWeightQuery: {
        const Label label = msg.payload()[0];
        const auto in = static_cast<Vertex>(msg.payload()[1]);
        const auto out_v = static_cast<Vertex>(msg.payload()[2]);
        KMM_CHECK_MSG(dg_->home(in) == i, "weight query reached a non-home machine");
        Weight w = 0;
        bool found = false;
        for (const auto& he : dg_->neighbors(in)) {
          if (he.to == out_v) {
            w = he.weight;
            found = true;
            break;
          }
        }
        KMM_CHECK_MSG(found, "sampled edge does not exist at the home machine");
        out.send(msg.src, kTagWeightReply, {label, w}, label_bits_ + 64);
        break;
      }
      case kTagDirective:
        apply_directive(i, msg);
        break;
      default:
        break;
    }
  }
}

void BoruvkaEngine::apply_directive(MachineId i, const Message& msg) {
  const Label label = msg.payload()[0];
  if (msg.payload()[1] == kDirectiveFinished) {
    // The proxy's srcs mask names every machine holding a part of `label`.
    Part* part = machine_parts_[i].find(label);
    KMM_CHECK_MSG(part != nullptr, "finish directive for a part this machine does not hold");
    part->finished = true;
  } else {
    bool created = false;
    resend_[i].get_or_create(label, created) = msg.payload()[2];
  }
}

// SS3: replies complete the pending transitions.
void BoruvkaEngine::apply_replies(MachineId i, std::span<const Message> inbox, Outbox& out) {
  for (const auto& msg : inbox) {
    if (msg.tag == kTagLabelReply) {
      const Label label = msg.payload()[0];
      const Label target = msg.payload()[1];
      Record& rec = proxy_records_[i].at(label);
      KMM_CHECK(rec.state == kAwaitLabel);
      KMM_CHECK_MSG(target != label, "sampled edge is intra-component");
      rec.target = target;
      rec.state = kDone;
    } else if (msg.tag == kTagWeightReply) {
      const Label label = msg.payload()[0];
      const Weight w = msg.payload()[1];
      Record& rec = proxy_records_[i].at(label);
      KMM_CHECK(rec.state == kAwaitWeight);
      KMM_CHECK_MSG(w >= 1, "edge weights must be positive");
      rec.cand_w = w;
      rec.thr = w - 1;  // next sketches keep strictly lighter edges only
      rec.state = kSearching;
      mask_for_each(rec.srcs, [&](MachineId m) {
        out.send(m, kTagDirective, {label, kDirectiveContinue, rec.thr}, label_bits_ + 66);
      });
    }
  }
}

void BoruvkaEngine::rank_components(MachineId i, Outbox& out) {
  const Cursor& c = machines_[i].cursor;
  const ProxyMap prox = elimination_proxies(c.phase, c.t);
  const std::uint64_t rank_seed = shared_.seed(c.phase, 0, seed_purpose::kRank);
  auto& finished_records = label_scratch_[i];
  finished_records.clear();
  proxy_records_[i].for_each_sorted([&](Label label, Record& rec) {
    if (rec.state == kFinishedState) {
      finished_records.push_back(label);
      return;
    }
    KMM_CHECK(rec.state == kDone);
    if (mode_ == BoruvkaMode::kMst) {
      // Every confirmed MWOE belongs to the MST (cut property); the proxy
      // machine is the "at least one machine" of Theorem 2(a).
      const Vertex u = std::min(rec.cand_in, rec.cand_out);
      const Vertex v = std::max(rec.cand_in, rec.cand_out);
      result_.mst_by_machine[i].push_back(WeightedEdge{u, v, rec.cand_w});
    }
    bool attach;
    if (config_.merge_rule == MergeRule::kDrr) {
      attach = drr_attaches(rank_seed, label, rec.target);
    } else {
      // Footnote 9: merge only 0-coin -> 1-coin; resulting trees have
      // depth 1 (a 0-component never receives children).
      attach = split(rank_seed, label) % 2 == 0 && split(rank_seed, rec.target) % 2 == 1;
    }
    if (attach) {
      rec.parent = rec.target;
      out.send(prox.proxy_of(rec.target), kTagChildReg, {label, rec.target}, 2 * label_bits_);
    } else {
      rec.parent = label;  // root of its merge tree
    }
  });
  for (const Label label : finished_records) proxy_records_[i].erase(label);
}

// Apply handoffs, then merge leaves (no remaining children) into their
// parents; both touch only this machine's record map.
void BoruvkaEngine::merge_leaves(MachineId i, std::span<const Message> inbox, Outbox& out) {
  const Cursor& c = machines_[i].cursor;
  const ProxyMap prox = merge_proxies(c.phase, c.rho);
  for (const auto& msg : inbox) {
    if (msg.tag == kTagHandoff) {
      WordReader r(msg.payload());
      read_record(r, proxy_records_[i]);
    }
  }
  auto& merged = label_scratch_[i];
  merged.clear();
  proxy_records_[i].for_each_sorted([&](Label label, const Record& rec) {
    if (rec.parent == label || rec.children_left != 0) return;
    if (mode_ == BoruvkaMode::kConnectivity) {
      const Vertex u = std::min(rec.cand_in, rec.cand_out);
      const Vertex v = std::max(rec.cand_in, rec.cand_out);
      result_.forest_by_machine[i].emplace_back(u, v);
    }
    mask_for_each(rec.srcs, [&](MachineId m) {
      out.send(m, kTagRelabel, {label, rec.parent}, 2 * label_bits_);
    });
    auto& w = writer_[i];
    w.clear();
    w.u64(rec.parent);
    for (const auto word : rec.srcs) w.u64(word);
    out.send(prox.proxy_of(rec.parent), kTagChildDone, w.words(),
             label_bits_ + cluster_->k() + 16);
    merged.push_back(label);
  });
  for (const Label label : merged) proxy_records_[i].erase(label);
}

void BoruvkaEngine::apply_merges(MachineId i, std::span<const Message> inbox) {
  for (const auto& msg : inbox) {
    if (msg.tag == kTagRelabel) {
      relabel_part(i, msg.payload()[0], msg.payload()[1]);
    } else if (msg.tag == kTagChildDone) {
      const Label parent = msg.payload()[0];
      Record* rec = proxy_records_[i].find(parent);
      KMM_CHECK_MSG(rec != nullptr, "child-done for unknown parent");
      KMM_CHECK(rec->children_left > 0);
      --rec->children_left;
      auto& child_srcs = mask_scratch_[i];
      KMM_DCHECK(msg.payload_words() >= 1 + child_srcs.size());
      for (std::size_t wi = 0; wi < child_srcs.size(); ++wi) {
        child_srcs[wi] = msg.payload()[1 + wi];
      }
      mask_or(rec->srcs, child_srcs);
    }
  }
}

void BoruvkaEngine::relabel_part(MachineId machine, Label from, Label to) {
  KMM_DCHECK(from != to);
  auto& parts = machine_parts_[machine];
  KMM_CHECK_MSG(parts.contains(from), "relabel for a part this machine does not hold");
  bool created = false;
  Part& dst = parts.get_or_create(to, created);
  if (created) {
    dst.verts.clear();
    dst.finished = false;
  }
  // Re-find after get_or_create: slot storage may have grown.
  const auto& src = parts.find(from)->verts;
  for (const Vertex v : src) labels_[v] = to;
  dst.verts.insert(dst.verts.end(), src.begin(), src.end());
  parts.erase(from);
}

// The counting protocol: parts report their labels to per-label proxies,
// proxies forward the distinct labels to machine 0, which counts and
// broadcasts the total.
void BoruvkaEngine::count_step(MachineId i, std::span<const Message> inbox, Outbox& out) {
  const Step step = machines_[i].cursor.step;
  if (step == Step::kCountProxy) {
    const ProxyMap prox(shared_.seed(0xC017, 0, seed_purpose::kProxy), cluster_->k());
    machine_parts_[i].for_each_sorted([&](Label label, const Part& part) {
      if (!part.verts.empty()) out.send(prox.proxy_of(label), kTagCountProxy, {label}, label_bits_);
    });
    return;
  }
  // kCountRoot at the proxies, kCountBcast at machine 0 only: sort + unique
  // reproduces the ordered-set iteration the wire expects.
  if (step == Step::kCountBcast && i != 0) return;
  auto& distinct = label_scratch_[i];
  distinct.clear();
  const std::uint32_t tag = step == Step::kCountRoot ? kTagCountProxy : kTagCountRoot;
  for (const auto& msg : inbox) {
    if (msg.tag == tag) distinct.push_back(msg.payload()[0]);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  if (step == Step::kCountRoot) {
    for (const Label label : distinct) out.send(0, kTagCountRoot, {label}, label_bits_);
    return;
  }
  machines_[0].count = distinct.size();
  for (MachineId j = 1; j < out.machines(); ++j) {
    out.send(j, kTagCountBcast, {machines_[0].count}, 64);
  }
}

// ------------------------------------------------- snapshot / restore

void BoruvkaEngine::snapshot(MachineId m, WordWriter& w) {
  const Machine& me = machines_[m];
  w.u64(static_cast<std::uint64_t>(me.cursor.step))
      .u64(me.cursor.phase)
      .u64(me.cursor.t)
      .u64(me.cursor.rho)
      .u64(me.await_verdict ? 1 : 0)
      .u64(me.bit ? 1 : 0)
      .u64(me.verdict ? 1 : 0)
      .u64(me.count)
      .u64(me.sampler_retries);
  for (const Vertex v : dg_->vertices_of(m)) w.u64(labels_[v]);

  w.u64(machine_parts_[m].size());
  machine_parts_[m].for_each_sorted([&](Label label, const Part& part) {
    w.u64(label).u64(part.finished ? 1 : 0).u64(part.verts.size());
    for (const Vertex v : part.verts) w.u64(v);
  });
  w.u64(resend_[m].size());
  resend_[m].for_each_sorted([&](Label label, Weight thr) { w.u64(label).u64(thr); });
  w.u64(proxy_records_[m].size());
  proxy_records_[m].for_each_sorted(
      [&](Label label, const Record& rec) { write_record(label, rec, w); });

  const auto& forest = result_.forest_by_machine[m];
  w.u64(forest.size());
  for (const auto& [u, v] : forest) w.u64(u).u64(v);
  const auto& mst = result_.mst_by_machine[m];
  w.u64(mst.size());
  for (const auto& e : mst) w.u64(e.u).u64(e.v).u64(e.w);
}

void BoruvkaEngine::restore(MachineId m, WordReader& r) {
  Machine& me = machines_[m];
  me.cursor.step = static_cast<Step>(r.u64());
  me.cursor.phase = static_cast<std::uint32_t>(r.u64());
  me.cursor.t = static_cast<std::uint32_t>(r.u64());
  me.cursor.rho = static_cast<std::uint32_t>(r.u64());
  me.await_verdict = r.u64() != 0;
  me.bit = r.u64() != 0;
  me.verdict = r.u64() != 0;
  me.count = r.u64();
  me.sampler_retries = r.u64();
  for (const Vertex v : dg_->vertices_of(m)) labels_[v] = r.u64();

  machine_parts_[m].clear();
  for (std::uint64_t count = r.u64(); count > 0; --count) {
    const Label label = r.u64();
    bool created = false;
    Part& part = machine_parts_[m].get_or_create(label, created);
    part.finished = r.u64() != 0;
    part.verts.resize(r.u64());
    for (Vertex& v : part.verts) v = static_cast<Vertex>(r.u64());
  }
  resend_[m].clear();
  for (std::uint64_t count = r.u64(); count > 0; --count) {
    const Label label = r.u64();
    bool created = false;
    resend_[m].get_or_create(label, created) = r.u64();
  }
  proxy_records_[m].clear();
  for (std::uint64_t count = r.u64(); count > 0; --count) read_record(r, proxy_records_[m]);

  auto& forest = result_.forest_by_machine[m];
  forest.resize(r.u64());
  for (auto& [u, v] : forest) {
    u = static_cast<Vertex>(r.u64());
    v = static_cast<Vertex>(r.u64());
  }
  auto& mst = result_.mst_by_machine[m];
  mst.resize(r.u64());
  for (WeightedEdge& e : mst) {
    e.u = static_cast<Vertex>(r.u64());
    e.v = static_cast<Vertex>(r.u64());
    e.w = r.u64();
  }
}

std::uint64_t BoruvkaEngine::count_distinct_labels() {
  seen_scratch_.assign(n_, 0);
  std::uint64_t count = 0;
  for (const Label label : labels_) {
    if (!seen_scratch_[label]) {
      seen_scratch_[label] = 1;
      ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------- driver

BoruvkaResult BoruvkaEngine::run() {
  const StatsScope scope(*cluster_);
  // An armed durable frame is restored before the first step, so the cursor
  // read below is already the resumed one (porting recipe rule 10).
  if (config_.fault != nullptr) config_.fault->apply_resume(*cluster_, *this);

  PhaseTrace trace;
  std::uint64_t rounds_before = 0;
  const auto open_trace = [&](std::uint32_t phase) {
    trace = PhaseTrace{};
    trace.phase = phase;
    trace.components_before = count_distinct_labels();
    rounds_before = cluster_->stats().rounds;
  };
  // A resumed run knows the phases an earlier process finished only by
  // index, and traces a phase it resumed inside from the resume point on.
  const Cursor start = machines_[0].cursor;
  for (std::uint32_t p = 0; p < start.phase; ++p) result_.phases.push_back(PhaseTrace{p});
  if (start.step >= Step::kSketch && start.step <= Step::kApply) open_trace(start.phase);

  // One-word control steps run kInline (porting recipe rule 4).
  const auto mode_of = [](Step s) {
    switch (s) {
      case Step::kActiveGather:
      case Step::kActiveBcast:
      case Step::kThreshold:
      case Step::kElimGather:
      case Step::kElimBcast:
      case Step::kChildReg:
      case Step::kMergeGather:
      case Step::kMergeBcast:
      case Step::kCountBcast:
        return StepMode::kInline;
      default:
        return StepMode::kParallel;
    }
  };

  while (!done()) {
    const Cursor c = machines_[0].cursor;
    if (c.step == Step::kSketch) {
      KMM_CHECK_MSG(static_cast<int>(c.t) < config_.max_elimination_iterations,
                    "outgoing-edge selection failed to converge");
    } else if (c.step == Step::kHandoff) {
      KMM_CHECK_MSG(static_cast<int>(c.rho) < config_.max_merge_iterations,
                    "merge loop failed to converge");
    }
    if (c.step == Step::kSketch || c.step == Step::kProxyMerge) {
      // Rebind the builder's power tables in place (allocation-free).
      const std::uint64_t sketch_seed = shared_.seed(c.phase, c.t, seed_purpose::kSketch);
      if (builder_.seed() != sketch_seed) builder_.rebind(sketch_seed);
    }
    (void)runtime_.step(*this, mode_of(c.step));

    const Step next = machines_[0].cursor.step;
    if (c.step == Step::kActiveBcast && next == Step::kSketch) {
      open_trace(c.phase);
      charge_phase_randomness();
    } else if (c.step == Step::kMergeBcast && next == Step::kActiveGather) {
      trace.elimination_iterations = c.t + 1;
      trace.merge_iterations = c.rho;
      trace.components_after = count_distinct_labels();
      trace.rounds = cluster_->stats().rounds - rounds_before;
      result_.phases.push_back(trace);
      result_.max_merge_iterations = std::max(result_.max_merge_iterations, c.rho);
      KMM_LOG_DEBUG("phase %u: %llu -> %llu components, %llu rounds", c.phase,
                    static_cast<unsigned long long>(trace.components_before),
                    static_cast<unsigned long long>(trace.components_after),
                    static_cast<unsigned long long>(trace.rounds));
    }
  }

  // The last OR-broadcast was the active OR: it found nothing left, or the
  // Lemma 7 phase budget ran out (correct w.h.p. regardless).
  result_.converged = !machines_[0].verdict;
  if (config_.count_components) {
    result_.num_components = machines_[0].count;
    KMM_CHECK_MSG(result_.num_components == count_distinct_labels(),
                  "counting protocol disagrees with the label state");
  } else {
    result_.num_components = count_distinct_labels();
  }
  for (const Machine& m : machines_) result_.sampler_retries += m.sampler_retries;
  result_.labels = labels_;
  result_.stats = scope.snapshot();
  return result_;
}

}  // namespace kmm
