// kmm_perfbench — the repository benchmark binary.
//
//   kmm_perfbench --workload conn-gnm|mst-rmat|flood-stream --seed N
//                 --seconds S --trace 0|1 [--n N]
//   kmm_perfbench --self-check
//
// One workload per process. The binary generates the workload's graphs from
// --seed, times the library's public entry points from outside, checks
// every answer against a sequential referee outside the timed region, and
// prints one JSON object as the last line of stdout:
//
//   --trace 0  end-to-end metrics: every solve runs with tracing off.
//   --trace 1  per-layer metrics: untraced and traced solves alternate; the
//              traced ones attach a MetricsTimeline through the configs'
//              ObsSink, and the benchmark's own spans wrap each layer call.
//
// A run holds one or more independent graphs (the workload's `graphs`) and
// solves them in passes, one solve per graph per pass, until --seconds is
// spent. Times are medians over passes of the mean solve per graph; the
// end-to-end ones are process CPU time, which host steal does not inflate.
// Ledger figures are means over the graphs, which damps the seed-to-seed
// spread a single random graph's ledger has.
//
// Every solve's ledger (rounds, bits) must equal the first solve of the
// same graph, traced or not: observation never perturbs the ledger. A wrong
// answer, a solve that does not converge, a thrown error or a ledger
// difference counts as a failed solve; any failed solve makes the run
// report correct=false and exit 1. --n overrides the vertex count of each
// graph (small smoke runs). --self-check feeds each referee a deliberately
// wrong answer and exits 0 only if every one is counted as failed. See
// README.md for the workloads and what each metric should move.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "kmm.hpp"
#include "util/union_find.hpp"

// ---- counting allocator ----------------------------------------------------
// Counts heap allocations across each batch of traced solves
// (runtime.allocs_per_superstep). One relaxed increment per operator new.

namespace {
std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t alloc_count() noexcept { return g_allocs.load(std::memory_order_relaxed); }

void* counted_new(std::size_t size) {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc{};
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* counted_new_aligned(std::size_t size, std::align_val_t align) {
  const auto al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  void* p = std::aligned_alloc(al, rounded != 0 ? rounded : al);
  if (p == nullptr) throw std::bad_alloc{};
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, std::align_val_t al) { return counted_new_aligned(size, al); }
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_new_aligned(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace kmm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads ---------------------------------------------------------------

enum class Algo { kConn, kMst, kFlood };

struct Workload {
  const char* name;
  Algo algo;
  bool rmat;      // R-MAT instead of G(n, m)
  bool stream;    // shard-direct stream_ingest instead of a materialized graph
  std::size_t n;  // vertices per graph; m = 3n
  int graphs;     // independent graphs per run
  unsigned threads;  // threads per solve
  bool concurrent;   // a pass solves its graphs at once, one pool lane each
};

constexpr MachineId kMachines = 16;
constexpr int kSketchCopies = 3;  // BoruvkaConfig::sketch_copies default
constexpr int kSetupReps = 5;
constexpr int kMinPasses = 3;

constexpr Workload kWorkloads[] = {
    {"conn-gnm", Algo::kConn, false, false, 50'000, 4, 4, false},
    {"mst-rmat", Algo::kMst, true, false, 12'500, 4, 1, true},
    {"flood-stream", Algo::kFlood, false, true, 250'000, 4, 4, false},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t graph_seed(std::uint64_t run_seed, int graph) {
  return split(run_seed, 0x6a70 + static_cast<std::uint64_t>(graph));
}

// ---- small statistics and process probes -----------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// CPU seconds (user + system, every thread) the process has used so far.
/// Time the host steals from a virtual CPU is not charged here, which is
/// why the end-to-end times below are CPU time: wall time on a shared VM
/// swung up to 2x for minutes at a time (see README.md).
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- the benchmark's own spans -----------------------------------------------
// One span per layer call the benchmark makes (setup > graph.generate /
// cluster.ingest, solve, solve.traced, sketch.*), kept in memory and
// summarized on stderr when a traced run ends. runtime.driver_s is the
// solve.traced span minus the MetricsTimeline's handler/deliver/reduce time
// inside it: the driver thread's self time between supersteps.

class Spans {
 public:
  int open(const char* name, int parent = -1) {
    spans_.push_back({name, parent, seconds_since(t0_), -1.0});
    return static_cast<int>(spans_.size() - 1);
  }
  /// Ends span `id` and returns its duration in seconds.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = seconds_since(t0_);
    return s.end_s - s.start_s;
  }

  void summarize(std::FILE* out) const {
    std::fprintf(out, "spans: %-22s %-14s %6s %12s %12s\n", "name", "parent", "count",
                 "total_s", "median_s");
    std::vector<std::string> seen;
    for (const Span& first : spans_) {
      const std::string key = std::string(first.name) + "<" + parent_name(first);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      std::vector<double> d;
      double total = 0.0;
      for (const Span& s : spans_) {
        if (std::string(s.name) + "<" + parent_name(s) != key) continue;
        d.push_back(s.end_s - s.start_s);
        total += d.back();
      }
      std::fprintf(out, "spans: %-22s %-14s %6zu %12.6f %12.6f\n", first.name,
                   parent_name(first), d.size(), total, median(d));
    }
  }

 private:
  struct Span {
    const char* name;
    int parent;
    double start_s, end_s;
  };

  [[nodiscard]] const char* parent_name(const Span& s) const {
    return s.parent < 0 ? "-" : spans_[static_cast<std::size_t>(s.parent)].name;
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

// ---- setup: generate + partition + distribute ---------------------------------

gen::ParGenConfig gen_config(const Workload& w, std::uint64_t seed) {
  gen::ParGenConfig cfg;
  cfg.seed = split(seed, 0x9a4f);
  cfg.threads = w.threads;
  return cfg;
}

struct Instance {
  std::unique_ptr<Graph> graph;  // materialized workloads only
  std::optional<DistributedGraph> dg;
  double generate_s = 0.0;  // materialized: gnm_par / rmat_par (+ weights)
  double ingest_s = 0.0;    // DistributedGraph construction or stream_ingest
};

/// Builds one graph of the workload; `seed` is the graph's own seed.
std::optional<Instance> build_instance(const Workload& w, std::size_t n, std::uint64_t seed,
                                       ThreadPool* pool, Spans& spans, int parent) {
  Instance inst;
  const gen::ParGenConfig cfg = gen_config(w, seed);
  const VertexPartition partition = VertexPartition::random(n, kMachines, split(seed, 0x9a97));
  if (w.stream) {
    const gen::EdgeStream stream = gen::gnm_stream_source(n, 3 * n, cfg, pool);
    StreamIngestOptions opts;
    opts.threads = w.threads;
    opts.pool = pool;
    const int id = spans.open("cluster.ingest", parent);
    auto ingest = stream_ingest(n, partition, stream, opts);
    if (!ingest.ok()) {
      std::fprintf(stderr, "error: stream_ingest: %s\n", ingest.error().message.c_str());
      return std::nullopt;
    }
    inst.dg.emplace(std::move(ingest).value());
    inst.ingest_s = spans.close(id);
    return inst;
  }
  int id = spans.open("graph.generate", parent);
  if (w.rmat) {
    Graph g = gen::rmat_par(n, 3 * n, cfg, 0.57, 0.19, 0.19, pool);
    if (w.algo == Algo::kMst) {
      Rng wrng(split(seed, 0x3e16));
      g = with_unique_weights(with_random_weights(g, wrng, 1'000'000));
    }
    inst.graph = std::make_unique<Graph>(std::move(g));
  } else {
    inst.graph = std::make_unique<Graph>(gen::gnm_par(n, 3 * n, cfg, pool));
  }
  inst.generate_s = spans.close(id);
  id = spans.open("cluster.ingest", parent);
  inst.dg.emplace(*inst.graph, partition, pool);
  inst.ingest_s = spans.close(id);
  return inst;
}

/// graph.generate_s of a stream workload: one replay of the edge stream into
/// a counting sink (stream_ingest itself replays it twice).
double time_stream_replay(const Workload& w, std::size_t n, std::uint64_t seed,
                          ThreadPool* pool, Spans& spans, int parent) {
  std::atomic<std::uint64_t> count{0};
  const gen::EdgeStream stream = gen::gnm_stream_source(n, 3 * n, gen_config(w, seed), pool);
  const int id = spans.open("graph.generate", parent);
  stream([&](std::size_t, std::span<const WeightedEdge> chunk) {
    count.fetch_add(chunk.size(), std::memory_order_relaxed);
  });
  const double s = spans.close(id);
  KMM_CHECK(count.load() == 3 * n);  // a gnm stream holds exactly m distinct edges
  return s;
}

/// Shard bytes of the busiest machine. The stream backend reports its real
/// shards; the materialized backend holds none, so this computes the bytes
/// of the global CSR half-edges the busiest machine's vertices own.
double max_shard_bytes(const DistributedGraph& dg) {
  if (!dg.materialized()) return static_cast<double>(dg.max_shard_bytes());
  std::size_t best = 0;
  for (MachineId i = 0; i < dg.machines(); ++i) {
    std::size_t half_edges = 0;
    for (const Vertex v : dg.vertices_of(i)) half_edges += dg.degree(v);
    best = std::max(best, half_edges * sizeof(HalfEdge));
  }
  return static_cast<double>(best);
}

// ---- referees ------------------------------------------------------------------

struct Reference {
  std::vector<Label> labels;  // conn, flood: smallest vertex id of v's component
  Weight msf_weight = 0;      // mst
};

/// Union-find over one replay of the (re-runnable) edge stream: a check of
/// a streamed answer. Sequential replay, so the sink needs no lock.
std::vector<Label> stream_component_labels(const Workload& w, std::size_t n,
                                           std::uint64_t seed) {
  gen::ParGenConfig cfg = gen_config(w, seed);
  cfg.threads = 1;
  UnionFind uf(n);
  gen::gnm_stream_source(n, 3 * n, cfg)([&](std::size_t, std::span<const WeightedEdge> chunk) {
    for (const WeightedEdge& e : chunk) uf.unite(e.u, e.v);
  });
  std::vector<Label> smallest(n, n);
  std::vector<Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) {
    Label& root_min = smallest[uf.find(static_cast<std::uint32_t>(v))];
    if (root_min == n) root_min = v;  // ascending scan: first member is the smallest
    labels[v] = root_min;
  }
  return labels;
}

Reference reference_for(const Workload& w, const Instance& inst, std::size_t n,
                        std::uint64_t seed) {
  Reference ref;
  switch (w.algo) {
    case Algo::kConn: {
      const std::vector<Vertex> l = ref::component_labels(*inst.graph);
      ref.labels.assign(l.begin(), l.end());
      break;
    }
    case Algo::kMst:
      ref.msf_weight = ref::msf_weight(*inst.graph);
      break;
    case Algo::kFlood:
      ref.labels = stream_component_labels(w, n, seed);
      break;
  }
  return ref;
}

/// What a solve answered, in the referee's terms.
struct Answer {
  bool converged = false;
  std::vector<Label> labels;  // conn (canonicalized), flood
  Weight weight = 0;          // mst
};

bool referee_accepts(const Workload& w, const Reference& ref, const Answer& a) {
  if (!a.converged) return false;
  if (w.algo == Algo::kMst) return a.weight == ref.msf_weight;
  return a.labels == ref.labels;
}

/// Solves attempted and failed; failed_frac = failed / attempted.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// Rounds and bits must repeat exactly across every solve of one graph.
struct LedgerCheck {
  std::optional<RunStats> first;

  bool matches(const RunStats& s) {
    if (!first) first = s;
    return s.rounds == first->rounds && s.bits == first->bits;
  }
};

// ---- one solve -------------------------------------------------------------------

struct Solve {
  double seconds = 0.0;
  RunStats stats;
  std::uint64_t max_link_bits = 0;
  // Borůvka engine counters (0 for flooding).
  std::uint64_t phases = 0, elimination_iterations = 0, merge_iterations = 0;
  std::uint64_t sampler_retries = 0;
};

Answer run_solve(const Workload& w, const Instance& inst, std::uint64_t seed,
                 const ObsSink* obs, ThreadPool* pool, Solve& out) {
  const DistributedGraph& dg = *inst.dg;
  Cluster cluster(ClusterConfig::for_graph(dg.num_vertices(), kMachines));
  Answer answer;
  if (w.algo == Algo::kFlood) {
    FloodingConfig cfg;
    cfg.threads = w.threads;
    cfg.obs = obs;
    cfg.pool = pool;
    const auto t0 = Clock::now();
    FloodingResult res = flooding_connectivity(cluster, dg, cfg);
    out.seconds = seconds_since(t0);
    out.stats = res.stats;
    answer.converged = res.converged;
    answer.labels = std::move(res.labels);
  } else {
    BoruvkaConfig cfg;
    cfg.seed = split(seed, 0xa190);
    cfg.sketch_copies = kSketchCopies;
    cfg.threads = w.threads;
    cfg.obs = obs;
    cfg.pool = pool;
    const auto t0 = Clock::now();
    BoruvkaResult res = w.algo == Algo::kConn ? connected_components(cluster, dg, cfg)
                                              : minimum_spanning_forest(cluster, dg, cfg);
    out.seconds = seconds_since(t0);
    out.stats = res.stats;
    out.phases = res.phases.size();
    for (const PhaseTrace& p : res.phases) {
      out.elimination_iterations += p.elimination_iterations;
      out.merge_iterations += p.merge_iterations;
    }
    out.sampler_retries = res.sampler_retries;
    answer.converged = res.converged;
    if (w.algo == Algo::kConn) {
      const std::vector<Vertex> canon = canonical_labels(res.labels);
      answer.labels.assign(canon.begin(), canon.end());
    } else {
      for (const WeightedEdge& e : res.mst_edges()) answer.weight += e.w;
    }
  }
  out.max_link_bits = cluster.stats().max_link_bits;
  return answer;
}

/// Runs one solve and referees its answer and ledger; nullopt is a failed
/// solve. A thrown error is a failed solve, never an abort of the benchmark.
std::optional<Solve> checked_solve(const Workload& w, const Instance& inst,
                                   const Reference& ref, std::uint64_t seed, const ObsSink* obs,
                                   ThreadPool* pool, LedgerCheck& ledger) {
  Solve s;
  try {
    const Answer a = run_solve(w, inst, seed, obs, pool, s);
    if (!referee_accepts(w, ref, a)) {
      std::fprintf(stderr, "solve of graph seed %llu: wrong answer\n",
                   static_cast<unsigned long long>(seed));
      return std::nullopt;
    }
    if (!ledger.matches(s.stats)) {
      std::fprintf(stderr, "solve of graph seed %llu: ledger rounds=%llu bits=%llu, first %llu %llu\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(s.stats.rounds),
                   static_cast<unsigned long long>(s.stats.bits),
                   static_cast<unsigned long long>(ledger.first->rounds),
                   static_cast<unsigned long long>(ledger.first->bits));
      return std::nullopt;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solve of graph seed %llu: error: %s\n",
                 static_cast<unsigned long long>(seed), e.what());
    return std::nullopt;
  }
  return s;
}

// ---- sketch layer probe -------------------------------------------------------

struct SketchProbe {
  double build_ns_per_half_edge = 0.0;
  double rebind_ms = 0.0;
  double merge_words_per_s = 0.0;
  double serialized_words = 0.0;
  double wire_bits = 0.0;
  double builder_table_bytes = 0.0;  // computed: 2 * copies * n * 8
};

/// Times the sketch layer in isolation on one of the workload's graphs:
/// accumulate_part over singleton parts of a spread sample of vertices,
/// rebind(), and add_serialized() of those singleton sketches.
SketchProbe probe_sketch(const DistributedGraph& dg, std::uint64_t seed, Spans& spans) {
  constexpr std::size_t kSample = 1 << 14;
  constexpr int kReps = 5;
  const std::size_t n = dg.num_vertices();
  const std::size_t count = std::min(n, kSample);
  std::vector<Vertex> sample(count);
  for (std::size_t i = 0; i < count; ++i) sample[i] = static_cast<Vertex>(i * (n / count));
  std::size_t half_edges = 0;
  for (const Vertex v : sample) half_edges += dg.degree(v);

  SketchProbe p;
  GraphSketchBuilder builder(n, split(seed, 0x5e7c), kSketchCopies);
  std::vector<double> rebind_ms;
  for (int r = 0; r < kReps; ++r) {
    const int id = spans.open("sketch.rebind");
    builder.rebind(split(seed, 0x5e7d + static_cast<std::uint64_t>(r)));
    rebind_ms.push_back(spans.close(id) * 1e3);
  }
  p.rebind_ms = median(rebind_ms);

  L0Sampler sink = builder.empty_sketch();
  std::vector<std::uint64_t> scratch;
  auto sketch_singleton = [&](const Vertex& v) {
    sink.reset(builder.seed());
    builder.accumulate_part(dg, std::span<const Vertex>(&v, 1), kNoWeightLimit, sink, scratch);
  };
  std::vector<double> build_ns;
  for (int r = 0; r < kReps; ++r) {
    const int id = spans.open("sketch.build");
    for (const Vertex& v : sample) sketch_singleton(v);
    build_ns.push_back(spans.close(id) * 1e9 /
                       static_cast<double>(std::max<std::size_t>(half_edges, 1)));
  }
  p.build_ns_per_half_edge = median(build_ns);

  // Reserve the whole batch: serialize() reserves exactly its own words, so
  // an unreserved writer would reallocate on every sketch.
  WordWriter wire;
  wire.reserve(count * static_cast<std::size_t>(builder.params().cells()) * 3);
  for (const Vertex& v : sample) {
    sketch_singleton(v);
    sink.serialize(wire);
  }
  p.serialized_words = static_cast<double>(wire.size()) / static_cast<double>(count);
  p.wire_bits = static_cast<double>(sink.wire_bits());
  p.builder_table_bytes = 2.0 * kSketchCopies * static_cast<double>(n) * 8.0;

  L0Sampler acc = builder.empty_sketch();
  std::vector<double> words_per_s;
  for (int r = 0; r < kReps; ++r) {
    acc.reset(builder.seed());
    WordReader reader(wire.words());
    const int id = spans.open("sketch.merge");
    for (std::size_t i = 0; i < count; ++i) acc.add_serialized(reader);
    words_per_s.push_back(static_cast<double>(wire.size()) / spans.close(id));
  }
  p.merge_words_per_s = median(words_per_s);
  return p;
}

// ---- output ------------------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) std::printf("%-34s %.6g %s\n", m.name, m.value, m.unit);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name, metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- the run ---------------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t n = 0;  // 0 = the workload's size
  bool self_check = false;
};

/// Per-layer figures of one traced pass, summed over its graphs.
struct TracedPass {
  double handler_s = 0.0, deliver_s = 0.0, reduce_s = 0.0, driver_s = 0.0;
  std::uint64_t allocs = 0;  // heap allocations over the whole traced batch
  std::uint64_t steps = 0;   // ledger supersteps of the batch
  std::vector<double> step_us;  // wall time of every ledger superstep
};

void add_timeline(const MetricsTimeline& timeline, double solve_s, TracedPass& pass) {
  const MetricsTimeline::Row tot = timeline.totals();
  const double handler = static_cast<double>(tot.handler_ns) * 1e-9;
  const double deliver = static_cast<double>(tot.deliver_ns) * 1e-9;
  const double reduce = static_cast<double>(tot.reduce_ns) * 1e-9;
  pass.handler_s += handler;
  pass.deliver_s += deliver;
  pass.reduce_s += reduce;
  pass.driver_s += solve_s - (handler + deliver + reduce);
  pass.steps += timeline.size();
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    pass.step_us.push_back(static_cast<double>(timeline.wall_ns(i)) * 1e-3);
  }
}

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  const std::size_t n = opt.n != 0 ? opt.n : w.n;
  const auto graphs = static_cast<std::size_t>(w.graphs);
  const double per_graph = 1.0 / static_cast<double>(graphs);
  // One pool for the process: the solves' workers, or for a concurrent
  // workload one lane per graph (each solve then runs single-threaded).
  const unsigned lanes = w.concurrent ? static_cast<unsigned>(graphs) : w.threads;
  std::unique_ptr<ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<ThreadPool>(lanes);
  Spans spans;

  // Setup: generate + partition + distribute every graph, several times;
  // the last set is kept. The previous set is destroyed first, so peak RSS
  // never holds two.
  std::vector<Instance> inst;
  std::vector<double> setup_s, setup_cpu_s, generate_s, ingest_s;
  for (int r = 0; r < kSetupReps; ++r) {
    inst.clear();
    const double cpu0 = process_cpu_s();
    const int id = spans.open("setup");
    double generate = 0.0, ingest = 0.0;
    for (std::size_t g = 0; g < graphs; ++g) {
      std::optional<Instance> one =
          build_instance(w, n, graph_seed(opt.seed, static_cast<int>(g)), pool.get(), spans, id);
      if (!one) return 1;
      generate += one->generate_s;
      ingest += one->ingest_s;
      inst.push_back(std::move(*one));
    }
    setup_s.push_back(spans.close(id));
    setup_cpu_s.push_back(process_cpu_s() - cpu0);
    if (opt.trace && w.stream) {
      const int replay = spans.open("stream.replay");
      for (std::size_t g = 0; g < graphs; ++g) {
        generate += time_stream_replay(w, n, graph_seed(opt.seed, static_cast<int>(g)),
                                       pool.get(), spans, replay);
      }
      spans.close(replay);
    }
    generate_s.push_back(generate);
    ingest_s.push_back(ingest);
  }
  const double rss_after_setup = peak_rss_mb();  // high-water mark of setup alone
  std::vector<Reference> refs;
  for (std::size_t g = 0; g < graphs; ++g) {
    refs.push_back(reference_for(w, inst[g], n, graph_seed(opt.seed, static_cast<int>(g))));
  }
  std::printf("workload=%s graphs=%zu n=%zu m=%zu k=%u threads/solve=%u concurrent=%d "
              "seed=%llu trace=%d\n",
              w.name, graphs, n, inst[0].dg->num_edges(), kMachines, w.threads,
              w.concurrent ? 1 : 0, static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);

  // Passes until the time budget is spent (at least kMinPasses): every
  // graph solved once untraced, then in traced mode once more traced.
  std::vector<MetricsTimeline> timelines(graphs);
  std::vector<ObsSink> sinks(graphs);
  for (std::size_t g = 0; g < graphs; ++g) {
    timelines[g].reserve(1 << 14, kMachines);
    sinks[g].timeline = &timelines[g];
  }
  ThreadPool* solve_pool = w.concurrent ? nullptr : pool.get();
  std::vector<LedgerCheck> ledgers(graphs);
  std::vector<std::optional<Solve>> batch(graphs);
  auto solve_all = [&](bool traced) {
    auto one = [&](std::size_t g) {
      if (traced) timelines[g].clear();
      batch[g] = checked_solve(w, inst[g], refs[g], graph_seed(opt.seed, static_cast<int>(g)),
                               traced ? &sinks[g] : nullptr, solve_pool, ledgers[g]);
    };
    const int id = spans.open(traced ? "solve.traced" : "solve");
    if (w.concurrent) {
      pool->parallel_for(graphs, one);
    } else {
      for (std::size_t g = 0; g < graphs; ++g) one(g);
    }
    spans.close(id);
  };

  Tally tally;
  std::vector<Solve> first(graphs);  // counters repeat exactly; keep one per graph
  std::vector<double> plain_s, traced_s;  // per pass: mean solve seconds per graph
  std::vector<double> plain_cpu_s;        // per pass: process CPU seconds per graph
  std::vector<TracedPass> traced_passes;
  bool failed = false;
  // Tallies the batch; returns the mean solve seconds per graph.
  auto settle = [&]() {
    double sum = 0.0;
    for (const std::optional<Solve>& s : batch) {
      tally.record(s.has_value());
      if (s) sum += s->seconds;
      failed = failed || !s;
    }
    return sum * per_graph;
  };
  const auto t_begin = Clock::now();
  double last_pass_s = 0.0;
  while (!failed && (static_cast<int>(plain_s.size()) < kMinPasses ||
                     seconds_since(t_begin) + last_pass_s <= opt.seconds)) {
    const auto t_pass = Clock::now();
    const double cpu0 = process_cpu_s();
    solve_all(false);
    plain_cpu_s.push_back((process_cpu_s() - cpu0) * per_graph);
    const double plain = settle();
    if (failed) break;
    if (plain_s.empty()) {
      for (std::size_t g = 0; g < graphs; ++g) first[g] = *batch[g];
    }
    plain_s.push_back(plain);
    if (opt.trace) {
      const std::uint64_t allocs0 = alloc_count();
      solve_all(true);
      const std::uint64_t allocs = alloc_count() - allocs0;
      const double traced = settle();
      if (failed) break;
      TracedPass tp;
      for (std::size_t g = 0; g < graphs; ++g) add_timeline(timelines[g], batch[g]->seconds, tp);
      tp.allocs = allocs;
      traced_s.push_back(traced);
      traced_passes.push_back(std::move(tp));
    }
    last_pass_s = seconds_since(t_pass);
  }

  const bool correct = !failed;
  std::printf("wall s per solve, per pass (mean over %zu graphs):", graphs);
  for (const double x : plain_s) std::printf(" %.4f", x);
  std::printf("\ncpu s per solve, per pass:");
  for (const double x : plain_cpu_s) std::printf(" %.4f", x);
  std::printf("\nsetup wall s: %.4f (median of %d)", median(setup_s), kSetupReps);
  std::printf("\npasses: %zu untraced, %zu traced\n", plain_s.size(), traced_s.size());
  std::printf("failed_frac %.6g (%llu of %llu solves)\n", tally.failed_frac(),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  auto mean_of = [&](auto field) {
    double sum = 0.0;
    for (const Solve& s : first) sum += static_cast<double>(field(s));
    return sum * per_graph;
  };
  for (std::size_t g = 0; g < graphs; ++g) {
    const RunStats& l = first[g].stats;
    std::printf("ledger graph %zu: rounds=%llu bits=%llu messages=%llu supersteps=%llu\n", g,
                static_cast<unsigned long long>(l.rounds),
                static_cast<unsigned long long>(l.bits),
                static_cast<unsigned long long>(l.messages),
                static_cast<unsigned long long>(l.supersteps));
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"solve_cpu_s", median(plain_cpu_s), "s"},
        {"setup_s", median(setup_cpu_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"rounds", mean_of([](const Solve& s) { return s.stats.rounds; }), "rounds"},
        {"bits", mean_of([](const Solve& s) { return s.stats.bits; }), "bits"},
        {"solved_frac", 1.0 - tally.failed_frac(), "ratio"},
    };
  } else {
    auto pass_median = [&](auto field) {
      std::vector<double> v;
      for (const TracedPass& p : traced_passes) v.push_back(field(p));
      return median(v);
    };
    double shard_bytes = 0.0;
    for (const Instance& i : inst) shard_bytes += max_shard_bytes(*i.dg) * per_graph;
    const SketchProbe sk = probe_sketch(*inst[0].dg, graph_seed(opt.seed, 0), spans);
    metrics = {
        {"graph.generate_s", median(generate_s), "s"},
        {"cluster.ingest_s", median(ingest_s), "s"},
        {"cluster.max_shard_bytes", shard_bytes, "B"},
        {"cluster.messages", mean_of([](const Solve& s) { return s.stats.messages; }), "count"},
        {"cluster.supersteps", mean_of([](const Solve& s) { return s.stats.supersteps; }),
         "count"},
        {"cluster.max_link_bits", mean_of([](const Solve& s) { return s.max_link_bits; }),
         "bits"},
        {"runtime.solve_wall_s", median(plain_s), "s"},
        {"runtime.handler_s", pass_median([&](const TracedPass& p) { return p.handler_s * per_graph; }), "s"},
        {"runtime.deliver_s", pass_median([&](const TracedPass& p) { return p.deliver_s * per_graph; }), "s"},
        {"runtime.reduce_frac",
         pass_median([](const TracedPass& p) {
           const double phases = p.deliver_s + p.reduce_s;
           return phases > 0.0 ? p.reduce_s / phases : 0.0;
         }),
         "ratio"},
        {"runtime.driver_s", pass_median([&](const TracedPass& p) { return p.driver_s * per_graph; }), "s"},
        {"runtime.superstep_p50_us", pass_median([](const TracedPass& p) { return quantile(p.step_us, 0.5); }), "us"},
        {"runtime.superstep_p99_us", pass_median([](const TracedPass& p) { return quantile(p.step_us, 0.99); }), "us"},
        {"runtime.allocs_per_superstep",
         pass_median([](const TracedPass& p) {
           return p.steps == 0 ? 0.0 : static_cast<double>(p.allocs) / static_cast<double>(p.steps);
         }),
         "count"},
        {"sketch.build_ns_per_half_edge", sk.build_ns_per_half_edge, "ns"},
        {"sketch.rebind_ms", sk.rebind_ms, "ms"},
        {"sketch.merge_words_per_s", sk.merge_words_per_s, "words/s"},
        {"sketch.serialized_words", sk.serialized_words, "words"},
        {"sketch.wire_bits", sk.wire_bits, "bits"},
        {"sketch.builder_table_bytes", sk.builder_table_bytes, "B"},
        {"core.phases", mean_of([](const Solve& s) { return s.phases; }), "count"},
        {"core.elimination_iterations",
         mean_of([](const Solve& s) { return s.elimination_iterations; }), "count"},
        {"core.merge_iterations", mean_of([](const Solve& s) { return s.merge_iterations; }),
         "count"},
        {"core.sampler_retries", mean_of([](const Solve& s) { return s.sampler_retries; }),
         "count"},
        {"mem.rss_after_setup_mb", rss_after_setup, "MB"},
        {"obs.overhead_ratio", plain_s.empty() ? 0.0 : median(traced_s) / median(plain_s),
         "ratio"},
    };
    spans.summarize(stderr);
  }
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}

// ---- self-check ------------------------------------------------------------------
// Each referee must count a deliberately wrong answer as a failed solve.

int self_check() {
  int bad = 0;
  auto expect = [&](bool cond, const char* what) {
    std::printf("self-check: %-44s %s\n", what, cond ? "ok" : "FAILED");
    if (!cond) ++bad;
  };
  for (const Workload& w : kWorkloads) {
    const std::size_t n = 2000;
    const std::uint64_t seed = 7;
    std::unique_ptr<ThreadPool> pool;
    if (w.threads > 1) pool = std::make_unique<ThreadPool>(w.threads);
    Spans spans;
    const std::optional<Instance> inst = build_instance(w, n, seed, pool.get(), spans, -1);
    if (!inst) return 1;
    const Reference ref = reference_for(w, *inst, n, seed);
    Solve s;
    const Answer good = run_solve(w, *inst, seed, nullptr, pool.get(), s);
    std::printf("self-check: workload %s\n", w.name);

    Tally tally;
    tally.record(referee_accepts(w, ref, good));
    expect(tally.failed == 0, "correct answer accepted");

    Answer wrong = good;
    if (w.algo == Algo::kMst) {
      wrong.weight += 1;
    } else {
      wrong.labels[n - 1] = wrong.labels[n - 1] == 0 ? 1 : 0;  // move the last vertex
    }
    tally.record(referee_accepts(w, ref, wrong));
    expect(tally.failed == 1 && tally.failed_frac() == 0.5, "wrong answer counted in failed_frac");

    Answer stuck = good;
    stuck.converged = false;
    tally.record(referee_accepts(w, ref, stuck));
    expect(tally.failed == 2, "unconverged answer counted as failed");

    LedgerCheck ledger;
    RunStats other = s.stats;
    other.bits += 1;
    const bool same = ledger.matches(s.stats);
    expect(same && !ledger.matches(other), "ledger difference detected");
  }
  return bad == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: kmm_perfbench --workload conn-gnm|mst-rmat|flood-stream --seed N "
               "--seconds S --trace 0|1 [--n N]\n"
               "       kmm_perfbench --self-check\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (text[0] == '\0' || text[0] == '-' || *end != '\0') {
    usage(flag + " expects a non-negative integer");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      opt.self_check = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = find_workload(value);
      if (opt.workload == nullptr) usage(std::string("unknown workload ") + value);
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, value);
      if (t > 1) usage("--trace expects 0 or 1");
      opt.trace = t == 1;
    } else if (flag == "--n") {
      opt.n = parse_u64(flag, value);
      if (opt.n < 2 * kMachines) usage("--n must be at least 2k");
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!opt.self_check && opt.workload == nullptr) usage("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  return opt.self_check ? self_check() : run(opt);
}
