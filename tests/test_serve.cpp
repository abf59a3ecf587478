// Serving-layer tests: cooperative cancellation (CancelPoint / CancelToken),
// deterministic retry/backoff, the lethal chaos plane, and the full
// ClusterService — admission, budgets, retries, and the determinism
// contracts (a cancelled-then-rerun query and a killed-then-retried query
// both land on ledgers bit-identical to an undisturbed run, for every
// worker-thread count).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "example_args.hpp"
#include "kmm.hpp"

namespace kmm {
namespace {

Graph test_graph(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  return gen::connected_gnm(n, m, rng);
}

void expect_same_ledger(const ClusterStats& a, const ClusterStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.supersteps, b.supersteps);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.max_link_bits, b.max_link_bits);
}

// ---------------------------------------------------------------------------
// ServePlane: CancelPoint / retry / lethal-plane units
// ---------------------------------------------------------------------------

TEST(ServePlane, SuperstepBudgetTripsDeterministically) {
  const Graph g = gen::path(64);
  const DistributedGraph dg(g, VertexPartition::random(64, 4, 3));
  for (int trial = 0; trial < 2; ++trial) {
    Cluster cluster(ClusterConfig::for_graph(64, 4));
    QueryBudget budget;
    budget.max_supersteps = 3;
    CancelPoint cancel(nullptr, budget);
    FloodingConfig config;
    config.cancel = &cancel;
    try {
      (void)flooding_connectivity(cluster, dg, config);
      FAIL() << "a 3-superstep budget cannot finish flooding a 64-path";
    } catch (const QueryCancelled& c) {
      EXPECT_EQ(c.code, QueryErrorCode::kSuperstepLimit);
      EXPECT_EQ(c.superstep, 3u);
    }
    EXPECT_EQ(cancel.supersteps(), 3u);
  }
}

TEST(ServePlane, PreCancelledTokenTripsBeforeAnySuperstep) {
  const Graph g = gen::path(16);
  const DistributedGraph dg(g, VertexPartition::random(16, 2, 3));
  Cluster cluster(ClusterConfig::for_graph(16, 2));
  CancelToken token;
  token.cancel();
  CancelPoint cancel(&token);
  FloodingConfig config;
  config.cancel = &cancel;
  try {
    (void)flooding_connectivity(cluster, dg, config);
    FAIL() << "a cancelled token must unwind at the first boundary";
  } catch (const QueryCancelled& c) {
    EXPECT_EQ(c.code, QueryErrorCode::kCancelled);
    EXPECT_EQ(c.superstep, 0u);
  }
}

TEST(ServePlane, CancelAtSuperstepIsClockFree) {
  const Graph g = gen::path(64);
  const DistributedGraph dg(g, VertexPartition::random(64, 4, 3));
  Cluster cluster(ClusterConfig::for_graph(64, 4));
  CancelPoint cancel;
  cancel.cancel_at_superstep(5);
  FloodingConfig config;
  config.cancel = &cancel;
  try {
    (void)flooding_connectivity(cluster, dg, config);
    FAIL() << "cancel_at_superstep(5) must fire";
  } catch (const QueryCancelled& c) {
    EXPECT_EQ(c.code, QueryErrorCode::kCancelled);
    EXPECT_EQ(c.superstep, 5u);
  }
}

TEST(ServePlane, ExpiredDeadlineTripsAsDeadlineExceeded) {
  Cluster cluster(ClusterConfig{2, 64});
  CancelPoint cancel;
  cancel.set_deadline_ns(1);  // long past for any steady clock
  try {
    cancel.check(cluster);
    FAIL() << "an expired deadline must trip the first check";
  } catch (const QueryCancelled& c) {
    EXPECT_EQ(c.code, QueryErrorCode::kDeadlineExceeded);
  }
}

TEST(ServePlane, LedgerBudgetCountsBitsSinceFirstCheck) {
  const Graph g = test_graph(128, 384, 9);
  const DistributedGraph dg(g, VertexPartition::random(128, 4, 3));
  Cluster cluster(ClusterConfig::for_graph(128, 4));
  QueryBudget budget;
  budget.max_ledger_bits = 1;  // any real superstep blows this immediately
  CancelPoint cancel(nullptr, budget);
  FloodingConfig config;
  config.cancel = &cancel;
  try {
    (void)flooding_connectivity(cluster, dg, config);
    FAIL() << "flooding a 128-vertex graph must exceed a 1-bit ledger budget";
  } catch (const QueryCancelled& c) {
    EXPECT_EQ(c.code, QueryErrorCode::kLedgerBudget);
    EXPECT_GE(c.superstep, 1u);
  }
}

TEST(ServePlane, RetryBackoffIsPureAndBounded) {
  RetryPolicy policy;
  policy.base_backoff_us = 100;
  policy.max_backoff_us = 1000;
  policy.seed = 42;
  for (std::uint64_t query = 1; query <= 4; ++query) {
    for (unsigned attempt = 1; attempt <= 5; ++attempt) {
      const std::uint64_t a = retry_backoff_us(policy, query, attempt);
      const std::uint64_t b = retry_backoff_us(policy, query, attempt);
      EXPECT_EQ(a, b) << "backoff must be a pure function of (seed, query, attempt)";
      EXPECT_GE(a, policy.base_backoff_us);
      EXPECT_LE(a, policy.max_backoff_us);
    }
  }
  // Different seeds decorrelate.
  RetryPolicy other = policy;
  other.seed = 43;
  bool any_diff = false;
  for (unsigned attempt = 1; attempt <= 5; ++attempt) {
    any_diff |= retry_backoff_us(policy, 1, attempt) != retry_backoff_us(other, 1, attempt);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ServePlane, ServiceAttemptScheduleDrawsOneKillPerAttempt) {
  // kill_prob = 1 always kills; kill_prob = 0 is silent.
  EXPECT_TRUE(service_attempt_schedule(7, 1, 1, 1.0, 8).has_crashes());
  EXPECT_FALSE(service_attempt_schedule(7, 1, 1, 0.0, 8).has_crashes());
  // The profile's own crash stream is zeroed: a crash-heavy profile with
  // kill_prob = 0 yields a schedule with no crashes at all.
  FaultProfile crashy;
  crashy.crash_prob = 1.0;
  EXPECT_FALSE(service_attempt_schedule(7, 1, 1, 0.0, 8, crashy).has_crashes());
  // With kill_prob = 0.5 the per-attempt draws are independent, so some
  // (query, attempt) pair in a small window must survive — the geometric
  // convergence retries rely on.
  bool some_silent = false, some_kill = false;
  for (std::uint64_t attempt = 1; attempt <= 16; ++attempt) {
    const bool kills = service_attempt_schedule(11, 1, attempt, 0.5, 8).has_crashes();
    some_silent |= !kills;
    some_kill |= kills;
  }
  EXPECT_TRUE(some_silent);
  EXPECT_TRUE(some_kill);
}

TEST(ServePlane, LethalPlaneThrowsQueryKilled) {
  const Graph g = gen::path(32);
  const DistributedGraph dg(g, VertexPartition::random(32, 4, 3));
  Cluster cluster(ClusterConfig::for_graph(32, 4));
  FaultSchedule schedule(1);
  schedule.add_crash(2, 1);
  FaultPlaneConfig fpc;
  fpc.lethal_crashes = true;
  FaultPlane plane(schedule, fpc);
  FloodingConfig config;
  config.fault = &plane;
  try {
    (void)flooding_connectivity(cluster, dg, config);
    FAIL() << "a lethal crash at superstep 2 must kill the attempt";
  } catch (const QueryKilled& killed) {
    EXPECT_EQ(killed.superstep, 2u);
    EXPECT_EQ(killed.machine, 1u);
  }
  EXPECT_EQ(plane.stats().crashes, 1u);
  EXPECT_EQ(plane.stats().checkpoints, 0u) << "lethal mode must skip checkpoint machinery";
}

// ---------------------------------------------------------------------------
// ClusterService
// ---------------------------------------------------------------------------

ServiceConfig small_service_config(MachineId k = 8) {
  ServiceConfig cfg;
  cfg.k = k;
  cfg.workers = 2;
  return cfg;
}

TEST(ClusterService, AnswersAndLedgerMatchDirectCall) {
  const Graph g = test_graph(256, 768, 5);
  const DistributedGraph dg(g, VertexPartition::random(256, 8, 7));
  ClusterService service(dg, small_service_config());

  QueryRequest req;
  req.kind = QueryKind::kConnectivity;
  req.seed = 21;
  const QueryOutcome outcome = service.run_query(req);
  ASSERT_TRUE(outcome.ok());

  Cluster cluster(ClusterConfig::for_graph(256, 8));
  BoruvkaConfig direct;
  direct.seed = 21;
  const BoruvkaResult reference = connected_components(cluster, dg, direct);
  EXPECT_EQ(outcome.value().value, reference.num_components);
  expect_same_ledger(outcome.value().ledger, cluster.stats());
}

TEST(ClusterService, ConcurrentMixedWorkloadAllStructured) {
  const Graph g = test_graph(192, 576, 6);
  const DistributedGraph dg(g, VertexPartition::random(192, 8, 7));
  ServiceConfig cfg = small_service_config();
  cfg.workers = 4;
  ClusterService service(dg, cfg);

  const QueryKind kinds[] = {
      QueryKind::kConnectivity, QueryKind::kMst,      QueryKind::kFlooding,
      QueryKind::kTwoEdge,      QueryKind::kMinCut,   QueryKind::kVerifyBipartite,
      QueryKind::kVerifyCycle,  QueryKind::kLeaderElection,
  };
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int rep = 0; rep < 2; ++rep) {
    for (const QueryKind kind : kinds) {
      QueryRequest req;
      req.kind = kind;
      req.seed = split(31, static_cast<std::uint64_t>(kind) + rep);
      tickets.push_back(service.submit(std::move(req)));
    }
  }
  service.drain();
  for (const auto& ticket : tickets) {
    EXPECT_TRUE(ticket->done());
    EXPECT_TRUE(ticket->wait().ok());
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, tickets.size());
  EXPECT_EQ(stats.completed, tickets.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(service.log().size(), tickets.size());
}

TEST(ClusterService, CancellationDeterminismAcrossThreadCounts) {
  const Graph g = test_graph(256, 768, 8);
  const DistributedGraph dg(g, VertexPartition::random(256, 8, 7));

  QueryRequest capped;
  capped.kind = QueryKind::kConnectivity;
  capped.seed = 33;
  capped.budget.max_supersteps = 4;
  QueryRequest full = capped;
  full.budget.max_supersteps = 0;

  std::vector<QueryError> errors;
  std::vector<QueryResult> reruns;
  for (const unsigned threads : {1u, 2u, 8u}) {
    ServiceConfig cfg = small_service_config();
    cfg.query_threads = threads;
    ClusterService service(dg, cfg);
    const QueryOutcome cancelled = service.run_query(capped);
    ASSERT_FALSE(cancelled.ok());
    errors.push_back(cancelled.error());
    // The cancelled run released everything; the rerun on the SAME service
    // must match a fresh undisturbed execution bit for bit.
    const QueryOutcome rerun = service.run_query(full);
    ASSERT_TRUE(rerun.ok());
    reruns.push_back(rerun.value());
  }
  for (const QueryError& e : errors) {
    EXPECT_EQ(e.code, QueryErrorCode::kSuperstepLimit);
    EXPECT_EQ(e.superstep, 4u);
  }
  for (std::size_t i = 1; i < reruns.size(); ++i) {
    EXPECT_EQ(reruns[i].value, reruns[0].value);
    expect_same_ledger(reruns[i].ledger, reruns[0].ledger);
  }
}

TEST(ClusterService, ClientCancelBeforeExecutionIsStructured) {
  const Graph g = test_graph(128, 384, 4);
  const DistributedGraph dg(g, VertexPartition::random(128, 8, 7));
  ClusterService service(dg, small_service_config());
  CancelToken token;
  token.cancel();
  QueryRequest req;
  req.kind = QueryKind::kMinCut;
  const QueryOutcome outcome = service.run_query(req, &token);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, QueryErrorCode::kCancelled);
  EXPECT_EQ(outcome.error().superstep, 0u);
}

TEST(ClusterService, DeadlineExceededIsStructured) {
  const Graph g = test_graph(4096, 12288, 12);
  const DistributedGraph dg(g, VertexPartition::random(4096, 8, 7));
  ClusterService service(dg, small_service_config());
  QueryRequest req;
  req.kind = QueryKind::kMinCut;  // dozens of supersteps at n = 4096
  req.budget.deadline_ms = 1;
  const QueryOutcome outcome = service.run_query(req);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, QueryErrorCode::kDeadlineExceeded);
}

TEST(ClusterService, AdmissionShedsOverMemoryBudget) {
  const Graph g = test_graph(128, 384, 4);
  const DistributedGraph dg(g, VertexPartition::random(128, 8, 7));
  ServiceConfig cfg = small_service_config();
  // A budget below even one query's per-machine estimate: every submission
  // is shed deterministically, before any executor touches it.
  cfg.budget.bytes_per_machine =
      estimate_query_bytes(dg.num_vertices(), cfg.k) / cfg.k - 1;
  ClusterService service(dg, cfg);
  for (int q = 0; q < 4; ++q) {
    QueryRequest req;
    req.kind = QueryKind::kConnectivity;
    const auto ticket = service.submit(std::move(req));
    EXPECT_TRUE(ticket->done()) << "a shed ticket resolves inside submit()";
    const QueryOutcome& outcome = ticket->wait();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, QueryErrorCode::kOverloaded);
  }
  EXPECT_EQ(service.stats().rejected_overload, 4u);
  EXPECT_EQ(service.stats().admitted, 0u);
}

TEST(ClusterService, ChaosRetryLandsOnUndisturbedLedger) {
  const Graph g = test_graph(192, 576, 10);
  const DistributedGraph dg(g, VertexPartition::random(192, 8, 7));

  // Scan for a chaos seed whose first query draws kill on attempt 1 and
  // survives attempt 2 — the canonical killed-then-retried trajectory.
  std::uint64_t chaos_seed = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    if (service_attempt_schedule(seed, 1, 1, 0.5, 8).has_crashes() &&
        !service_attempt_schedule(seed, 1, 2, 0.5, 8).has_crashes()) {
      chaos_seed = seed;
      break;
    }
  }
  ASSERT_NE(chaos_seed, 0u) << "no kill-then-survive seed in 200 draws";

  ServiceConfig chaos_cfg = small_service_config();
  chaos_cfg.chaos.kill_prob = 0.5;
  chaos_cfg.chaos.seed = chaos_seed;
  chaos_cfg.retry.base_backoff_us = 10;  // keep the test fast
  chaos_cfg.retry.max_backoff_us = 50;
  ClusterService chaos_service(dg, chaos_cfg);
  ClusterService calm_service(dg, small_service_config());

  QueryRequest req;
  req.kind = QueryKind::kConnectivity;
  req.seed = 77;
  const QueryOutcome noisy = chaos_service.run_query(req);
  const QueryOutcome calm = calm_service.run_query(req);
  ASSERT_TRUE(noisy.ok());
  ASSERT_TRUE(calm.ok());
  EXPECT_EQ(noisy.value().attempts, 2u);
  EXPECT_GT(noisy.value().backoff_us, 0u);
  EXPECT_EQ(noisy.value().value, calm.value().value);
  expect_same_ledger(noisy.value().ledger, calm.value().ledger);
  EXPECT_EQ(chaos_service.stats().kills, 1u);
  EXPECT_EQ(chaos_service.stats().retries, 1u);
}

TEST(ClusterService, CrashedWhenEveryAttemptKilled) {
  const Graph g = test_graph(96, 288, 10);
  const DistributedGraph dg(g, VertexPartition::random(96, 8, 7));
  ServiceConfig cfg = small_service_config();
  cfg.chaos.kill_prob = 1.0;  // every attempt dies
  cfg.chaos.seed = 5;
  cfg.retry.max_attempts = 3;
  cfg.retry.base_backoff_us = 10;
  cfg.retry.max_backoff_us = 50;
  ClusterService service(dg, cfg);
  QueryRequest req;
  req.kind = QueryKind::kConnectivity;
  const QueryOutcome outcome = service.run_query(req);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, QueryErrorCode::kCrashed);
  EXPECT_EQ(outcome.error().attempts, 3u);
  EXPECT_EQ(service.stats().kills, 3u);
}

TEST(ClusterService, InvalidArgumentsAreFrontLoaded) {
  const Graph g = test_graph(64, 192, 3);
  const DistributedGraph dg(g, VertexPartition::random(64, 4, 7));
  ServiceConfig cfg = small_service_config(4);
  ClusterService service(dg, cfg);

  QueryRequest bad_vertex;
  bad_vertex.kind = QueryKind::kVerifyStConnectivity;
  bad_vertex.s = 0;
  bad_vertex.t = 64;  // out of range
  const QueryOutcome v = service.run_query(bad_vertex);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, QueryErrorCode::kInvalidArgument);

  QueryRequest bad_edge;
  bad_edge.kind = QueryKind::kVerifyECycle;
  bad_edge.x = 0;
  bad_edge.y = 0;  // (0, 0) is never an edge
  const QueryOutcome e = service.run_query(bad_edge);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.error().code, QueryErrorCode::kInvalidArgument);

  // Shard-direct backend: global-recourse kinds are structurally
  // unanswerable and must say so instead of aborting in graph().
  ShardedAdjacency sharded;
  sharded.n = 64;
  sharded.vstart.assign(64, 0);
  sharded.vdeg.assign(64, 0);
  sharded.shards.resize(4);
  const DistributedGraph shard_dg(std::move(sharded), VertexPartition::round_robin(64, 4));
  ClusterService shard_service(shard_dg, cfg);
  QueryRequest mincut;
  mincut.kind = QueryKind::kMinCut;
  const QueryOutcome m = shard_service.run_query(mincut);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.error().code, QueryErrorCode::kInvalidArgument);
  // ...while the model-faithful kinds still run.
  QueryRequest conn;
  conn.kind = QueryKind::kConnectivity;
  const QueryOutcome c = shard_service.run_query(conn);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().value, 64u);  // edgeless: every vertex its own component
}

TEST(ClusterService, ShutdownResolvesQueuedTickets) {
  const Graph g = test_graph(192, 576, 6);
  const DistributedGraph dg(g, VertexPartition::random(192, 8, 7));
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  {
    ServiceConfig cfg = small_service_config();
    cfg.workers = 1;  // one executor, so most of these queue up
    ClusterService service(dg, cfg);
    for (int q = 0; q < 6; ++q) {
      QueryRequest req;
      req.kind = QueryKind::kMinCut;
      req.seed = static_cast<std::uint64_t>(q);
      tickets.push_back(service.submit(std::move(req)));
    }
  }  // dtor: queued work resolves kCancelled, in-flight work finishes
  for (const auto& ticket : tickets) {
    ASSERT_TRUE(ticket->done()) << "no ticket may be left unresolved at shutdown";
    const QueryOutcome& outcome = ticket->wait();
    if (!outcome.ok()) {
      EXPECT_EQ(outcome.error().code, QueryErrorCode::kCancelled);
    }
  }
}

TEST(ClusterService, RecordsPerQueryTimelines) {
  const Graph g = test_graph(128, 384, 4);
  const DistributedGraph dg(g, VertexPartition::random(128, 8, 7));
  ServiceConfig cfg = small_service_config();
  cfg.record_timelines = true;
  ClusterService service(dg, cfg);
  QueryRequest req;
  req.kind = QueryKind::kFlooding;
  const auto ticket = service.submit(std::move(req));
  const QueryOutcome& outcome = ticket->wait();
  ASSERT_TRUE(outcome.ok());
  const MetricsTimeline* timeline = service.timeline(ticket->id());
  ASSERT_NE(timeline, nullptr);
  EXPECT_GT(timeline->size(), 0u);
  EXPECT_LE(timeline->size(), outcome.value().supersteps);
  EXPECT_EQ(service.timeline(9999), nullptr);
}

TEST(ClusterService, WritesQueryLogJson) {
  const Graph g = test_graph(64, 192, 3);
  const DistributedGraph dg(g, VertexPartition::random(64, 4, 7));
  ClusterService service(dg, small_service_config(4));
  QueryRequest req;
  req.kind = QueryKind::kConnectivity;
  (void)service.submit(std::move(req))->wait();
  const std::string path = ::testing::TempDir() + "kmm_query_log.json";
  ASSERT_TRUE(service.write_query_log_json(path));
  std::FILE* in = std::fopen(path.c_str(), "r");
  ASSERT_NE(in, nullptr);
  char buffer[4096] = {};
  const std::size_t got = std::fread(buffer, 1, sizeof(buffer) - 1, in);
  std::fclose(in);
  const std::string body(buffer, got);
  EXPECT_NE(body.find("\"queries\""), std::string::npos);
  EXPECT_NE(body.find("\"connectivity\""), std::string::npos);
  EXPECT_NE(body.find("\"stats\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// ExampleArgs: strict validation of the serving flags (exit-2 death tests;
// excluded from the TSan suite like every EXPECT_EXIT test)
// ---------------------------------------------------------------------------

kmmex::ExampleArgs parse_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return kmmex::parse_example_args(static_cast<int>(argv.size()),
                                   const_cast<char**>(argv.data()));
}

TEST(ExampleArgsServe, ParsesServingFlags) {
  const kmmex::ExampleArgs args =
      parse_args({"--serve", "--deadline-ms", "250", "--max-inflight=8", "64", "4"});
  EXPECT_TRUE(args.serve);
  EXPECT_EQ(args.deadline_ms, 250u);
  EXPECT_EQ(args.max_inflight, 8u);
  ASSERT_EQ(args.pos.size(), 2u);
  EXPECT_EQ(args.pos_u64(0, 0), 64u);
}

TEST(ExampleArgsServe, RejectsDuplicateServe) {
  EXPECT_EXIT((void)parse_args({"--serve", "--serve"}), ::testing::ExitedWithCode(2),
              "duplicate flag --serve");
}

TEST(ExampleArgsServe, RejectsDuplicateDeadline) {
  EXPECT_EXIT((void)parse_args({"--deadline-ms", "10", "--deadline-ms=20"}),
              ::testing::ExitedWithCode(2), "duplicate flag --deadline-ms");
}

TEST(ExampleArgsServe, RejectsNonNumericDeadline) {
  EXPECT_EXIT((void)parse_args({"--deadline-ms", "soon"}), ::testing::ExitedWithCode(2),
              "--deadline-ms expects a non-negative integer");
}

TEST(ExampleArgsServe, RejectsTrailingGarbageDeadline) {
  EXPECT_EXIT((void)parse_args({"--deadline-ms=100ms"}), ::testing::ExitedWithCode(2),
              "--deadline-ms expects a non-negative integer");
}

TEST(ExampleArgsServe, RejectsZeroMaxInflight) {
  EXPECT_EXIT((void)parse_args({"--max-inflight", "0"}), ::testing::ExitedWithCode(2),
              "--max-inflight must be positive");
}

TEST(ExampleArgsServe, RejectsNegativeMaxInflight) {
  EXPECT_EXIT((void)parse_args({"--max-inflight", "-2"}), ::testing::ExitedWithCode(2),
              "--max-inflight expects a non-negative integer");
}

}  // namespace
}  // namespace kmm
