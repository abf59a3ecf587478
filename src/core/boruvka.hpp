#pragma once
// The Borůvka-style engine behind both the O~(n/k^2) connectivity algorithm
// (Section 2) and the MST algorithm (Section 3.1).
//
// One *phase* executes, in order:
//
//   1. shared-randomness charge        (Section 2.2 relay cost)
//   2. outgoing-edge selection loop    (Sections 2.3-2.4; for MST the
//      Section 3.1 weight-threshold elimination until the MWOE is
//      *confirmed* by an empty restricted sketch)
//   3. DRR ranking + child registration (Section 2.5)
//   4. level-wise tree merging with per-iteration fresh proxies and
//      proxy-to-proxy record handoffs   (Section 2.5, Lemma 5)
//   5. termination check                (O(1)-round OR-reduce)
//
// All inter-machine coordination happens through Cluster messages, so the
// round/bit ledger reflects the full protocol, including label/weight
// lookups at home machines and all control traffic.
//
// Execution: the engine is one checkpointable MachineProgram (porting
// recipe rules 8 and 10 in runtime.hpp). Each protocol segment above is one
// step of a per-machine cursor {step, phase, t, rho} that all machines
// advance in lockstep, so with config.threads > 1 the k machines' local
// computation runs in parallel on the src/runtime/ engine. Handlers touch
// only machine-indexed state and derive every input (proxy maps, rank and
// sketch seeds) from their own cursor; run() only picks each step's
// StepMode and does the driver-side work (sketch-builder binding, the
// randomness charge, PhaseTrace, the safety caps). The cluster ledger is
// identical for every thread count, a crashed machine is rebuilt by
// checkpoint/replay, and with a DurableStore on the fault plane a run
// resumes bit-identically in a new process.
//
// Registry contract (the allocation-free sketch plane, mirroring the
// message plane of PR 3): all per-machine and proxy-side component state
// lives in LabelRegistry instances — flat label -> slot tables with
// free-list slot recycling and a sorted touched-list for iteration — never
// in tree maps. The rules that keep the ledger bit-identical and the steady
// state allocation-free:
//
//  * every loop that *emits messages* iterates via for_each_sorted(), which
//    reproduces the ordered-map ascending-label order exactly (the golden
//    ledger in tests/test_golden_stats.cpp pins this); order-independent
//    scans use the cheaper for_each();
//  * registries, sketch pools (SketchPool), WordWriters, and all scratch
//    vectors are machine-indexed members — a handler touches only slot i,
//    which is what makes the handlers race-free without locks;
//  * cleared containers retain capacity (registry clear() recycles slots
//    with their payload storage; Record::reset re-assigns the machine mask
//    in place), so iteration t+1 reuses iteration t's memory: after warmup
//    an elimination iteration performs zero heap allocations
//    (tests/test_alloc_steady_state.cpp and bench_boruvka_hotpath measure
//    this);
//  * incoming sketches are merged wire-level — L0Sampler::add_serialized
//    adds each copy's live prefix of 3-word cells (the prefix-truncated
//    wire form) straight off the message payload into a pooled
//    accumulator; no per-message sketch is ever materialized. Payloads
//    vary in length, so the per-machine writer reserves the longest form
//    (L0Sampler::max_serialized_words) and never grows in steady state.
//    The ledger charges L0Sampler::wire_bits(), the dense logical size.
//
// Modes:
//  * kConnectivity — samples any outgoing edge; merge edges form a spanning
//    forest (each edge recorded by the proxy machine that performed the
//    merge, i.e. the relaxed "some machine knows each edge" criterion of
//    Theorem 2(a) applied to spanning trees).
//  * kMst — iterates the elimination loop per component until the minimum
//    weight outgoing edge is confirmed; every confirmed MWOE is output
//    (cut property), so with distinct weights the union over machines is
//    exactly the MST.

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/distributed_graph.hpp"
#include "cluster/proxy.hpp"
#include "cluster/shared_randomness.hpp"
#include "core/common.hpp"
#include "core/label_registry.hpp"
#include "runtime/runtime.hpp"
#include "sketch/graph_sketch.hpp"
#include "sketch/sketch_pool.hpp"

namespace kmm {

enum class BoruvkaMode { kConnectivity, kMst };

/// How sampled inter-component edges turn into merges (Section 2.5).
enum class MergeRule {
  /// Distributed random ranking: attach to the selected neighbor iff its
  /// rank is higher; trees of depth O(log n) (the paper's default).
  kDrr,
  /// Footnote 9's simpler alternative: components flip a shared coin and a
  /// merge happens only along edges from a 0-component to a 1-component;
  /// trees have depth 1 but only ~1/4 of selections merge per phase.
  kCoinFlip,
};

struct BoruvkaConfig {
  std::uint64_t seed = 1;        // master seed for the shared random tape
  int sketch_copies = 3;         // l0-sampler repetitions
  int max_phases = 0;            // 0 => the Lemma 7 bound 12*ceil(log2 n)
  bool charge_randomness = true; // charge the Section 2.2 relay each phase
  bool count_components = true;  // run the final counting protocol
  int max_elimination_iterations = 200;  // safety cap (expected O(log n))
  int max_merge_iterations = 200;        // safety cap (expected O(log n))
  MergeRule merge_rule = MergeRule::kDrr;
  /// Ablation only: route every component through one coordinator machine
  /// instead of random proxies — the congested "trivial strategy" of
  /// Section 1.2. Correctness is unaffected; rounds degrade to O~(n/k).
  bool single_coordinator = false;
  /// Worker threads for per-machine local computation (1 = sequential,
  /// 0 = hardware concurrency; clamped to k). Results and the cluster
  /// ledger are identical for every value — only wall-clock time changes.
  unsigned threads = 1;
  /// Optional observability sinks, forwarded to every Runtime this config
  /// builds (engine + the BoruvkaConfig-driven passes: rep_mst, two_edge,
  /// verification). Null records nothing; the ledger is identical either
  /// way. See src/obs/obs_sink.hpp.
  const ObsSink* obs = nullptr;
  /// Optional fault-injection & recovery plane (src/fault/). The engine is
  /// checkpointable: scheduled crashes roll the victim back to the last
  /// checkpoint and replay its logged inboxes; a DurableStore on the plane
  /// commits resume frames, and an armed frame resumes the run. Null is
  /// bit-identical.
  FaultPlane* fault = nullptr;
  /// Optional cooperative cancellation point (src/serve/cancel.hpp),
  /// forwarded to every Runtime this config builds exactly like `obs`:
  /// deadlines/budgets/client cancellation unwind the run at the next
  /// superstep boundary by throwing QueryCancelled (porting recipe rule 9).
  /// Null never cancels.
  CancelPoint* cancel = nullptr;
  /// Optional shared worker pool (RuntimeConfig::pool): the serving layer
  /// multiplexes many queries' Runtimes onto one pool. Null = each Runtime
  /// owns a private pool when threads > 1, as before.
  ThreadPool* pool = nullptr;
};

/// Per-phase instrumentation. After a durable resume, the phases an earlier
/// process finished carry only their index.
struct PhaseTrace {
  std::uint32_t phase = 0;
  std::uint64_t components_before = 0;  // distinct labels entering the phase
  std::uint64_t components_after = 0;
  std::uint32_t elimination_iterations = 0;
  std::uint32_t merge_iterations = 0;   // DRR tree depth processed
  std::uint64_t rounds = 0;             // rounds charged during the phase
};

struct BoruvkaResult {
  std::vector<Label> labels;  // final component label per vertex
  std::uint64_t num_components = 0;
  bool converged = false;     // all components finished before max_phases

  /// Spanning-forest merge edges, per recording machine (kConnectivity).
  std::vector<std::vector<std::pair<Vertex, Vertex>>> forest_by_machine;
  /// Confirmed MWOEs, per recording machine (kMst).
  std::vector<std::vector<WeightedEdge>> mst_by_machine;

  std::vector<PhaseTrace> phases;
  std::uint32_t max_merge_iterations = 0;   // max DRR merge depth over phases
  std::uint64_t sampler_retries = 0;        // sample() failures on nonzero sketches
  RunStats stats;

  /// All forest/MST edges flattened (deduplicated, sorted).
  [[nodiscard]] std::vector<std::pair<Vertex, Vertex>> forest_edges() const;
  [[nodiscard]] std::vector<WeightedEdge> mst_edges() const;
};

/// The engine as one checkpointable MachineProgram; run() drives it.
class BoruvkaEngine final : public MachineProgram {
 public:
  /// Bumped on any change to the snapshot word layout (rule 10).
  static constexpr std::uint64_t kStateVersion = 1;

  BoruvkaEngine(Cluster& cluster, const DistributedGraph& dg, BoruvkaConfig config,
                BoruvkaMode mode);

  BoruvkaResult run();

  void on_superstep(MachineId self, std::span<const Message> inbox, Outbox& out) override;
  /// Machine 0 has stepped past the last step of the protocol.
  [[nodiscard]] bool done() const override { return machines_[0].cursor.step == Step::kDone; }
  [[nodiscard]] bool checkpointable() const override { return true; }
  void snapshot(MachineId m, WordWriter& w) override;
  void restore(MachineId m, WordReader& r) override;
  [[nodiscard]] std::uint64_t state_version() const override { return kStateVersion; }

 private:
  /// The protocol's steps in execution order: per phase the active OR,
  /// elimination iterations t, DRR ranking, merge iterations rho; after the
  /// last phase the component count.
  enum class Step : std::uint8_t {
    kActiveGather, kActiveBcast,
    kSketch, kProxyMerge, kAnswer, kReply, kThreshold, kElimGather, kElimBcast,
    kRank, kChildReg,
    kMergeGather, kMergeBcast, kHandoff, kLeaves, kApply,
    kCountProxy, kCountRoot, kCountBcast,
    kDone,
  };
  struct Cursor {
    Step step = Step::kActiveGather;
    std::uint32_t phase = 0;
    std::uint32_t t = 0;    // elimination iteration (the DRR proxy generation after it)
    std::uint32_t rho = 0;  // merge iteration
  };
  struct Machine {
    Cursor cursor;
    // Machines other than 0 learn an OR verdict from the next step's inbox;
    // until then their cursor stays on the broadcast step.
    bool await_verdict = false;
    bool bit = false;      // this machine's input to the current OR-gather
    bool verdict = false;  // machine 0: result of the last OR-broadcast
    std::uint64_t count = 0;  // machine 0: result of the counting protocol
    std::uint64_t sampler_retries = 0;
  };

  enum State : std::uint8_t { kSearching, kAwaitWeight, kAwaitLabel, kDone, kFinishedState };

  /// A component part held by a home machine. `finished` is set by the
  /// proxy's finish directive, which reaches every machine holding a part.
  struct Part {
    std::vector<Vertex> verts;
    bool finished = false;
  };

  /// Proxy-side component record; travels between proxy generations in
  /// handoff messages. Lives in a LabelRegistry slot, so a recycled record
  /// must be reset() before use — the srcs mask is re-assigned in place
  /// (equal size), keeping slot reuse allocation-free.
  struct Record {
    State state = kSearching;
    Label parent = 0;              // == label for roots
    std::uint32_t children_left = 0;
    Weight thr = kNoWeightLimit;   // MST elimination threshold
    bool has_candidate = false;
    Vertex cand_in = 0, cand_out = 0;  // candidate edge, in ∈ C
    Weight cand_w = 0;
    Label target = 0;              // label on the other side of the edge
    std::vector<std::uint64_t> srcs;  // k-bit mask of machines holding parts

    void reset(std::size_t mask_words) {
      state = kSearching;
      parent = 0;
      children_left = 0;
      thr = kNoWeightLimit;
      has_candidate = false;
      cand_in = cand_out = 0;
      cand_w = 0;
      target = 0;
      srcs.assign(mask_words, 0);
    }
  };

  // -- protocol steps (handlers; machine i's state only) --------------------
  [[nodiscard]] bool has_work(MachineId i, Step gather) const;  // the OR-gather bit
  [[nodiscard]] static std::uint32_t ctrl_tag(Step or_step);
  void broadcast(MachineId i, std::span<const Message> inbox, Outbox& out);
  void sketch_parts(MachineId i, Outbox& out);
  void merge_sketches(MachineId i, std::span<const Message> inbox, Outbox& out);
  void answer_queries(MachineId i, std::span<const Message> inbox, Outbox& out);
  void apply_replies(MachineId i, std::span<const Message> inbox, Outbox& out);
  void apply_directive(MachineId i, const Message& msg);
  void rank_components(MachineId i, Outbox& out);
  void merge_leaves(MachineId i, std::span<const Message> inbox, Outbox& out);
  void apply_merges(MachineId i, std::span<const Message> inbox);
  void count_step(MachineId i, std::span<const Message> inbox, Outbox& out);
  void send_handoffs(MachineId i, Outbox& out, const ProxyMap& to);
  /// The cursor after an OR-broadcast step, from the cursor and the verdict.
  void advance_past_broadcast(Cursor& c, bool any) const;

  void charge_phase_randomness();  // driver-side, between steps

  // -- helpers -------------------------------------------------------------
  [[nodiscard]] ProxyMap elimination_proxies(std::uint32_t phase, std::uint32_t t) const;
  [[nodiscard]] ProxyMap merge_proxies(std::uint32_t phase, std::uint32_t rho) const;
  /// The one word layout of a proxy record: handoff payloads and snapshots.
  void write_record(Label label, const Record& rec, WordWriter& w) const;
  void read_record(WordReader& r, LabelRegistry<Record>& into) const;
  void relabel_part(MachineId machine, Label from, Label to);
  [[nodiscard]] std::uint64_t count_distinct_labels();  // instrumentation only

  [[nodiscard]] std::size_t mask_words() const { return (cluster_->k() + 63) / 64; }
  static void mask_set(std::vector<std::uint64_t>& mask, MachineId m) {
    mask[m / 64] |= 1ULL << (m % 64);
  }
  static void mask_or(std::vector<std::uint64_t>& mask,
                      const std::vector<std::uint64_t>& other) {
    for (std::size_t i = 0; i < mask.size(); ++i) mask[i] |= other[i];
  }
  template <typename Fn>
  void mask_for_each(const std::vector<std::uint64_t>& mask, Fn fn) const {
    for (std::size_t w = 0; w < mask.size(); ++w) {
      std::uint64_t bits = mask[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(static_cast<MachineId>(w * 64 + static_cast<std::size_t>(b)));
        bits &= bits - 1;
      }
    }
  }

  Cluster* cluster_;
  const DistributedGraph* dg_;
  BoruvkaConfig config_;
  BoruvkaMode mode_;
  SharedRandomness shared_;
  std::size_t n_;
  std::uint64_t label_bits_;  // wire bits of one label / vertex id
  std::uint32_t max_phases_;  // config_.max_phases, or the Lemma 7 bound
  Runtime runtime_;           // parallel superstep executor over cluster_

  // Per-machine state, indexed by machine (labels_ by vertex, with
  // home(v) == i): each handler touches only its own slot, so handlers are
  // race-free without locks. snapshot(m) serializes all of it but the
  // within-step scratch further down.
  std::vector<Machine> machines_;
  std::vector<LabelRegistry<Part>> machine_parts_;
  // Labels to re-sketch next iteration; the payload is the current MST
  // elimination threshold (kNoWeightLimit in connectivity mode / on entry).
  std::vector<LabelRegistry<Weight>> resend_;
  std::vector<Label> labels_;    // labels_[v], authoritative at home(v)
  // Proxy-side records for the current proxy generation.
  std::vector<LabelRegistry<Record>> proxy_records_;

  // Per-superstep proxy accumulators: label -> pooled sketch index; lives
  // only within the proxy handler of one elimination iteration.
  std::vector<LabelRegistry<std::uint32_t>> sum_slots_;
  // Recycled L0Sampler storage: SS1 part sketches and proxy-side sums both
  // draw zeroed accumulators from here instead of constructing sketches.
  std::vector<SketchPool> sketch_pool_;
  // One builder for the whole run, rebound per iteration by the driver;
  // read-only inside handlers. Only the sketch step reads its power tables;
  // other handlers use its seed-free shape (universe, params, decode).
  GraphSketchBuilder builder_;

  // Per-machine scratch (machine-indexed like the state above, so handlers
  // stay race-free); cleared between uses with capacity retained, so the
  // steady state allocates nothing.
  std::vector<WordWriter> writer_;
  std::vector<std::vector<std::uint64_t>> mask_scratch_;   // child-src masks
  std::vector<std::vector<std::uint64_t>> power_scratch_;  // fingerprint powers
  std::vector<std::vector<Label>> label_scratch_;  // finished/merged/count lists
  std::vector<char> seen_scratch_;  // per-vertex marks for label counting

  BoruvkaResult result_;
};

}  // namespace kmm
