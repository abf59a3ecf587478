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
      runtime_(cluster, RuntimeConfig{config.threads, config.obs, config.fault, config.cancel,
                                      config.pool}) {
  KMM_CHECK_MSG(n_ >= 2, "the engine needs at least two vertices");
  const MachineId k = cluster_->k();
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
  bit_scratch_.assign(k, 0);
  seen_scratch_.assign(n_, 0);
  sampler_retries_by_machine_.assign(k, 0);
  labels_.resize(n_);
  finished_ = std::make_unique<std::atomic<std::uint8_t>[]>(n_);
  for (Vertex v = 0; v < n_; ++v) {
    labels_[v] = v;
    bool created = false;
    auto& part = machine_parts_[dg.home(v)].get_or_create(v, created);
    part.clear();
    part.push_back(v);
  }
  result_.forest_by_machine.resize(k);
  result_.mst_by_machine.resize(k);
}

const GraphSketchBuilder& BoruvkaEngine::bind_builder(std::uint64_t sketch_seed) {
  if (builder_.has_value()) {
    builder_->rebind(sketch_seed);
  } else {
    builder_.emplace(n_, sketch_seed, config_.sketch_copies);
  }
  return *builder_;
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
  const std::uint64_t lg = bits_for(std::max<std::uint64_t>(n_, 2));
  const std::uint64_t d_bits = (n_ / cluster_->k() + 1) * lg + 4 * lg * lg;
  shared_.charge_distribution(*cluster_, d_bits);
}

bool BoruvkaEngine::any_active_parts() {
  const MachineId k = cluster_->k();
  bit_scratch_.assign(k, 0);
  for (MachineId i = 0; i < k; ++i) {
    bit_scratch_[i] =
        machine_parts_[i].any_of([&](Label label, const std::vector<Vertex>& verts) {
          return !verts.empty() && !finished_[label].load(std::memory_order_relaxed);
        })
            ? 1
            : 0;
  }
  return or_reduce_broadcast(runtime_, bit_scratch_, kTagCtrlActive);
}

void BoruvkaEngine::send_handoffs(LabelRegistry<Record>& from, Outbox& out,
                                  const ProxyMap& to, WordWriter& w) {
  const std::uint64_t rec_bits = 4 * label_bits_ + 140 + cluster_->k();
  from.for_each_sorted([&](Label label, const Record& rec) {
    w.clear();
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
    out.send(to.proxy_of(label), kTagHandoff, w.words(), rec_bits);
  });
}

void BoruvkaEngine::apply_handoff(WordReader& reader, LabelRegistry<Record>& into) {
  const Label label = reader.u64();
  bool created = false;
  Record& rec = into.get_or_create(label, created);
  KMM_CHECK_MSG(created, "duplicate record in handoff");
  rec.reset(mask_words());
  rec.state = static_cast<State>(reader.u64());
  rec.parent = reader.u64();
  rec.children_left = static_cast<std::uint32_t>(reader.u64());
  rec.thr = reader.u64();
  rec.has_candidate = reader.u64() != 0;
  rec.cand_in = static_cast<Vertex>(reader.u64());
  rec.cand_out = static_cast<Vertex>(reader.u64());
  rec.cand_w = reader.u64();
  rec.target = reader.u64();
  for (auto& word : rec.srcs) word = reader.u64();
}

std::uint32_t BoruvkaEngine::run_elimination_loop(std::uint32_t phase) {
  const MachineId k = cluster_->k();
  for (MachineId i = 0; i < k; ++i) {
    resend_[i].clear();
    proxy_records_[i].clear();
    machine_parts_[i].for_each([&](Label label, const std::vector<Vertex>& verts) {
      if (!verts.empty() && !finished_[label].load(std::memory_order_relaxed)) {
        bool created = false;
        resend_[i].get_or_create(label, created) = kNoWeightLimit;
      }
    });
  }

  for (std::uint32_t t = 0;; ++t) {
    KMM_CHECK_MSG(static_cast<int>(t) < config_.max_elimination_iterations,
                  "outgoing-edge selection failed to converge");
    const ProxyMap prox = elimination_proxies(phase, t);
    const GraphSketchBuilder& builder =
        bind_builder(shared_.seed(phase, t, seed_purpose::kSketch));

    // SS1: each machine sketches its active parts (restricted by the local
    // threshold in MST mode) and, from the second iteration on, hands its
    // proxy records off to the fresh proxy generation. Sketch construction
    // is the engine's dominant local computation — the handlers below are
    // where threads > 1 pays. One pooled sampler per machine absorbs every
    // part sketch of the iteration.
    runtime_.step([&](MachineId i, std::span<const Message>, Outbox& out) {
      resend_[i].for_each_sorted([&](Label label, Weight thr) {
        auto* part = machine_parts_[i].find(label);
        KMM_CHECK(part != nullptr);
        auto& pool = sketch_pool_[i];
        pool.release_all();
        L0Sampler& sketch =
            pool.acquire(builder.universe(), builder.params(), builder.seed());
        builder.accumulate_part(*dg_, *part, thr, sketch, power_scratch_[i]);
        // Wire forms vary in length with the sketch's live depth; reserving
        // the longest keeps the reused writer from growing in steady state.
        auto& w = writer_[i];
        w.clear();
        w.reserve(1 + sketch.max_serialized_words());
        w.u64(label);
        sketch.serialize(w);
        out.send(prox.proxy_of(label), kTagSketch, w.words(),
                 label_bits_ + sketch.wire_bits());
      });
      resend_[i].clear();
      if (t >= 1) {
        send_handoffs(proxy_records_[i], out, prox, writer_[i]);
        proxy_records_[i].clear();
      }
    });

    // Proxy side: apply handoffs first so records exist before this
    // iteration's sketches are merged, then sum per-label sketches and run
    // the state transitions on the combined result. Incoming sketches are
    // merged wire-level: each copy's live cells add straight off the payload
    // into a pooled accumulator (add_serialized) — no per-message
    // deserialize.
    runtime_.step([&](MachineId i, std::span<const Message> inbox, Outbox& out) {
      for (const auto& msg : inbox) {
        if (msg.tag == kTagHandoff) {
          WordReader r(msg.payload());
          apply_handoff(r, proxy_records_[i]);
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
        if (sum_created) {
          sum_idx = pool.acquire_index(builder.universe(), builder.params(), builder.seed());
        }
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
          ++sampler_retries_by_machine_[i];
          mask_for_each(rec.srcs, [&](MachineId m) {
            out.send(m, kTagDirective, {label, kDirectiveContinue, rec.thr},
                     label_bits_ + 66);
          });
          return;
        }
        const auto [x, y] = builder.decode(sampled->index);
        rec.cand_in = sampled->value > 0 ? x : y;
        rec.cand_out = sampled->value > 0 ? y : x;
        rec.has_candidate = true;
        if (mode_ == BoruvkaMode::kConnectivity) {
          rec.state = kAwaitLabel;
          out.send(dg_->home(rec.cand_out), kTagLabelQuery, {label, rec.cand_out},
                   2 * label_bits_);
        } else {
          rec.state = kAwaitWeight;
          out.send(dg_->home(rec.cand_in), kTagWeightQuery,
                   {label, rec.cand_in, rec.cand_out}, 3 * label_bits_);
        }
      });
    });

    // SS2: home machines answer queries; part machines apply directives
    // issued by the sampling step.
    runtime_.step([&](MachineId i, std::span<const Message> inbox, Outbox& out) {
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
          case kTagDirective: {
            const Label label = msg.payload()[0];
            if (msg.payload()[1] == kDirectiveFinished) {
              finished_[label].store(1, std::memory_order_relaxed);
            } else {
              bool created = false;
              resend_[i].get_or_create(label, created) = msg.payload()[2];
            }
            break;
          }
          default:
            break;
        }
      }
    });

    // SS3: replies complete the pending transitions.
    runtime_.step([&](MachineId i, std::span<const Message> inbox, Outbox& out) {
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
            out.send(m, kTagDirective, {label, kDirectiveContinue, rec.thr},
                     label_bits_ + 66);
          });
        }
      }
    });

    // SS4: threshold directives issued after weight replies. Pure control
    // application (and no sends, so the trailing superstep is free) — run
    // inline, the barrier would cost more than the work.
    runtime_.step(
        [&](MachineId i, std::span<const Message> inbox, Outbox&) {
          for (const auto& msg : inbox) {
            if (msg.tag != kTagDirective) continue;
            const Label label = msg.payload()[0];
            if (msg.payload()[1] == kDirectiveFinished) {
              finished_[label].store(1, std::memory_order_relaxed);
            } else {
              bool created = false;
              resend_[i].get_or_create(label, created) = msg.payload()[2];
            }
          }
        },
        StepMode::kInline);

    bit_scratch_.assign(k, 0);
    for (MachineId i = 0; i < k; ++i) {
      bit_scratch_[i] = proxy_records_[i].any_of([](Label, const Record& rec) {
        return rec.state == kSearching || rec.state == kAwaitWeight ||
               rec.state == kAwaitLabel;
      })
                            ? 1
                            : 0;
    }
    if (!or_reduce_broadcast(runtime_, bit_scratch_, kTagCtrlElim)) return t;
  }
}

void BoruvkaEngine::run_drr_step(std::uint32_t phase, std::uint32_t proxy_gen) {
  const ProxyMap prox = elimination_proxies(phase, proxy_gen);
  const std::uint64_t rank_seed = shared_.seed(phase, 0, seed_purpose::kRank);

  runtime_.step([&](MachineId i, std::span<const Message>, Outbox& out) {
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
        out.send(prox.proxy_of(rec.target), kTagChildReg, {label, rec.target},
                 2 * label_bits_);
      } else {
        rec.parent = label;  // root of its merge tree
      }
    });
    for (const Label label : finished_records) proxy_records_[i].erase(label);
  });

  // Counter bumps only — not worth a pool dispatch.
  runtime_.step(
      [&](MachineId i, std::span<const Message> inbox, Outbox&) {
        for (const auto& msg : inbox) {
          if (msg.tag != kTagChildReg) continue;
          const Label parent = msg.payload()[1];
          Record* rec = proxy_records_[i].find(parent);
          KMM_CHECK_MSG(rec != nullptr,
                        "child registered with an unknown parent component");
          ++rec->children_left;
        }
      },
      StepMode::kInline);
}

std::uint32_t BoruvkaEngine::run_merge_loop(std::uint32_t phase, std::uint32_t last_gen) {
  (void)last_gen;
  const MachineId k = cluster_->k();
  std::uint32_t rho = 0;
  while (true) {
    bit_scratch_.assign(k, 0);
    for (MachineId i = 0; i < k; ++i) {
      bit_scratch_[i] = proxy_records_[i].any_of(
                            [](Label label, const Record& rec) { return rec.parent != label; })
                            ? 1
                            : 0;
    }
    if (!or_reduce_broadcast(runtime_, bit_scratch_, kTagCtrlMerge)) break;
    ++rho;
    KMM_CHECK_MSG(static_cast<int>(rho) < config_.max_merge_iterations,
                  "merge loop failed to converge");

    // Fresh proxies each merge iteration (Lemma 5) + record handoff.
    const ProxyMap prox = merge_proxies(phase, rho);
    runtime_.step([&](MachineId i, std::span<const Message>, Outbox& out) {
      send_handoffs(proxy_records_[i], out, prox, writer_[i]);
      proxy_records_[i].clear();
    });

    // Apply handoffs, then merge leaves (no remaining children) into their
    // parents; both touch only this machine's record map.
    runtime_.step([&](MachineId i, std::span<const Message> inbox, Outbox& out) {
      for (const auto& msg : inbox) {
        if (msg.tag == kTagHandoff) {
          WordReader r(msg.payload());
          apply_handoff(r, proxy_records_[i]);
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
    });

    runtime_.step([&](MachineId i, std::span<const Message> inbox, Outbox&) {
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
    });
  }
  result_.max_merge_iterations = std::max(result_.max_merge_iterations, rho);
  return rho;
}

void BoruvkaEngine::relabel_part(MachineId machine, Label from, Label to) {
  KMM_DCHECK(from != to);
  auto& parts = machine_parts_[machine];
  KMM_CHECK_MSG(parts.contains(from), "relabel for a part this machine does not hold");
  bool created = false;
  auto& dst = parts.get_or_create(to, created);
  if (created) dst.clear();
  // Re-find after get_or_create: slot storage may have grown.
  const auto& src = *parts.find(from);
  for (const Vertex v : src) labels_[v] = to;
  dst.insert(dst.end(), src.begin(), src.end());
  parts.erase(from);
}

void BoruvkaEngine::snapshot_machine(MachineId m, WordWriter& w) {
  w.u64(static_cast<std::uint64_t>(bit_scratch_[m]));
  w.u64(sampler_retries_by_machine_[m]);
  for (const Vertex v : dg_->vertices_of(m)) w.u64(labels_[v]);

  std::uint64_t count = 0;
  machine_parts_[m].for_each([&](Label, const std::vector<Vertex>&) { ++count; });
  w.u64(count);
  machine_parts_[m].for_each_sorted([&](Label label, const std::vector<Vertex>& verts) {
    w.u64(label).u64(verts.size());
    for (const Vertex v : verts) w.u64(v);
  });

  count = 0;
  resend_[m].for_each([&](Label, const Weight&) { ++count; });
  w.u64(count);
  resend_[m].for_each_sorted([&](Label label, const Weight& thr) { w.u64(label).u64(thr); });

  count = 0;
  proxy_records_[m].for_each([&](Label, const Record&) { ++count; });
  w.u64(count);
  proxy_records_[m].for_each_sorted([&](Label label, const Record& rec) {
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
  });

  const auto& forest = result_.forest_by_machine[m];
  w.u64(forest.size());
  for (const auto& [u, v] : forest) w.u64(u).u64(v);
  const auto& mst = result_.mst_by_machine[m];
  w.u64(mst.size());
  for (const auto& e : mst) w.u64(e.u).u64(e.v).u64(e.w);
}

void BoruvkaEngine::restore_machine(MachineId m, WordReader& r) {
  bit_scratch_[m] = static_cast<char>(r.u64());
  sampler_retries_by_machine_[m] = r.u64();
  for (const Vertex v : dg_->vertices_of(m)) labels_[v] = r.u64();

  machine_parts_[m].clear();
  std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const Label label = r.u64();
    const std::uint64_t size = r.u64();
    bool created = false;
    auto& part = machine_parts_[m].get_or_create(label, created);
    part.clear();
    for (std::uint64_t j = 0; j < size; ++j) {
      part.push_back(static_cast<Vertex>(r.u64()));
    }
  }

  resend_[m].clear();
  count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const Label label = r.u64();
    bool created = false;
    resend_[m].get_or_create(label, created) = r.u64();
  }

  proxy_records_[m].clear();
  count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const Label label = r.u64();
    bool created = false;
    Record& rec = proxy_records_[m].get_or_create(label, created);
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

  auto& forest = result_.forest_by_machine[m];
  forest.clear();
  count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto u = static_cast<Vertex>(r.u64());
    const auto v = static_cast<Vertex>(r.u64());
    forest.emplace_back(u, v);
  }
  auto& mst = result_.mst_by_machine[m];
  mst.clear();
  count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto u = static_cast<Vertex>(r.u64());
    const auto v = static_cast<Vertex>(r.u64());
    const Weight weight = r.u64();
    mst.push_back(WeightedEdge{u, v, weight});
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

void BoruvkaEngine::run_component_count() {
  const MachineId k = cluster_->k();
  const ProxyMap prox(shared_.seed(0xC017, 0, seed_purpose::kProxy), k);
  runtime_.step([&](MachineId i, std::span<const Message>, Outbox& out) {
    machine_parts_[i].for_each_sorted([&](Label label, const std::vector<Vertex>& verts) {
      if (!verts.empty()) out.send(prox.proxy_of(label), kTagCountProxy, {label}, label_bits_);
    });
  });
  runtime_.step([&](MachineId i, std::span<const Message> inbox, Outbox& out) {
    // sort + unique reproduces the ordered-set iteration the wire expects.
    auto& distinct = label_scratch_[i];
    distinct.clear();
    for (const auto& msg : inbox) {
      if (msg.tag == kTagCountProxy) distinct.push_back(msg.payload()[0]);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    for (const Label label : distinct) {
      out.send(0, kTagCountRoot, {label}, label_bits_);
    }
  });
  // Only machine 0 acts here; there is no parallelism to harvest.
  std::uint64_t count = 0;
  runtime_.step(
      [&](MachineId i, std::span<const Message> inbox, Outbox& out) {
        if (i != 0) return;
        auto& all = label_scratch_[0];
        all.clear();
        for (const auto& msg : inbox) {
          if (msg.tag == kTagCountRoot) all.push_back(msg.payload()[0]);
        }
        std::sort(all.begin(), all.end());
        all.erase(std::unique(all.begin(), all.end()), all.end());
        count = all.size();
        for (MachineId j = 1; j < out.machines(); ++j) {
          out.send(j, kTagCountBcast, {count}, 64);
        }
      },
      StepMode::kInline);
  result_.num_components = count;
}

BoruvkaResult BoruvkaEngine::run() {
  const StatsScope scope(*cluster_);
  // Fault-plane state hooks for the whole run (porting recipe rule 8b);
  // cleared on exit so a plane outliving the engine cannot call into it.
  const StateHookScope fault_scope(
      config_.fault, [this](MachineId m, WordWriter& w) { snapshot_machine(m, w); },
      [this](MachineId m, WordReader& r) { restore_machine(m, r); });
  const std::uint64_t lg = bits_for(std::max<std::uint64_t>(n_, 2));
  const int max_phases =
      config_.max_phases > 0 ? config_.max_phases : static_cast<int>(12 * lg) + 1;

  for (int phase = 0; phase < max_phases; ++phase) {
    if (!any_active_parts()) {
      result_.converged = true;
      break;
    }
    PhaseTrace trace;
    trace.phase = static_cast<std::uint32_t>(phase);
    trace.components_before = count_distinct_labels();
    const std::uint64_t rounds_before = cluster_->stats().rounds;

    charge_phase_randomness();
    const std::uint32_t gen = run_elimination_loop(static_cast<std::uint32_t>(phase));
    run_drr_step(static_cast<std::uint32_t>(phase), gen);
    trace.merge_iterations = run_merge_loop(static_cast<std::uint32_t>(phase), gen);
    trace.elimination_iterations = gen + 1;
    trace.components_after = count_distinct_labels();
    trace.rounds = cluster_->stats().rounds - rounds_before;
    result_.phases.push_back(trace);
    KMM_LOG_DEBUG("phase %d: %llu -> %llu components, %llu rounds", phase,
                  static_cast<unsigned long long>(trace.components_before),
                  static_cast<unsigned long long>(trace.components_after),
                  static_cast<unsigned long long>(trace.rounds));
  }
  if (!result_.converged) {
    // The Lemma 7 phase budget is exhausted; correct w.h.p. regardless —
    // record whether anything was actually left.
    result_.converged = !any_active_parts();
  }

  if (config_.count_components) {
    run_component_count();
    KMM_CHECK_MSG(result_.num_components == count_distinct_labels(),
                  "counting protocol disagrees with the label state");
  } else {
    result_.num_components = count_distinct_labels();
  }
  for (const auto retries : sampler_retries_by_machine_) result_.sampler_retries += retries;
  result_.labels = labels_;
  result_.stats = scope.snapshot();
  return result_;
}

}  // namespace kmm
