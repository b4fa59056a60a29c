// Multi-tenant front-end + session-stepped runtime (ISSUE 9).
//
// The guarantees pinned here:
//
//   1. Stepping is exact: driving a Session by hand (any interleaving of
//      step() calls across concurrently-open sessions, including two
//      flooding sessions sharing one Runtime's spill arenas) ends in a
//      RunResult bit-identical to the closed-loop run_sync/run_flat call.
//
//   2. Service equivalence: every job submitted through MatchingService —
//      any engine, any program, fault plans on, any quantum/inflight
//      setting — resolves to a future whose RunResult is bit-identical to
//      the same job run standalone.
//
//   3. One pool per process-wide Runtime: N sessions multiplexed on a
//      shared Runtime spawn the worker pool exactly once (pool_spawns
//      gauge == 1) and the per-session threads_spawned counters sum to
//      threads − 1 — the satellite regression for the hoisted pool.
//
//   4. Fair share: the deficit-round-robin discipline bounds how long a
//      flooding tenant can stall a greedy tenant — between two consecutive
//      steps granted to a tenant with runnable work, every other tenant
//      receives at most `quantum` steps (observed via step_observer).
//
//   5. Rejection: submit after shutdown() throws std::runtime_error;
//      non-positive round budgets and oversized instances throw
//      std::invalid_argument before anything is enqueued.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/greedy.hpp"
#include "engine_test_util.hpp"
#include "graph/generators.hpp"
#include "local/engine.hpp"
#include "local/faults.hpp"
#include "local/flat_engine.hpp"
#include "local/flooding.hpp"
#include "local/runtime.hpp"
#include "util/rng.hpp"

namespace dmm::svc {
namespace {

using dmm::local::EngineKind;
using dmm::local::expect_same_result;
using dmm::local::FaultPlan;
using dmm::local::FaultSpec;
using dmm::local::ProgramSource;
using dmm::local::RunOptions;
using dmm::local::RunResult;

ProgramSource flooding_greedy(int k) {
  return dmm::local::flooding_program_factory(std::make_shared<dmm::algo::GreedyLocal>(k),
                                              k);
}

// ---------------------------------------------------------------------------
// 1. Session stepping == closed-loop run, including manual interleavings.

TEST(Session, HandSteppedMatchesClosedRun) {
  dmm::Rng rng(41);
  const auto g = dmm::graph::random_coloured_graph(80, 4, 0.7, rng);
  FaultSpec spec;
  spec.crash_prob = 0.1;
  spec.drop_prob = 0.05;
  spec.horizon = 16;
  spec.seed = 7;
  const FaultPlan plan = FaultPlan::random(g, spec);

  for (const EngineKind kind : {EngineKind::kSync, EngineKind::kFlat}) {
    RunOptions options;
    options.max_rounds = 64;
    options.faults.plan = &plan;
    const RunResult closed =
        dmm::local::run(kind, g, dmm::algo::greedy_program_factory(), options);

    auto session =
        dmm::local::make_session(kind, g, dmm::algo::greedy_program_factory(), options);
    int steps = 0;
    while (!session->done()) {
      EXPECT_EQ(session->round(), steps);
      session->step();
      ++steps;
    }
    EXPECT_EQ(steps, closed.rounds);
    expect_same_result(closed, session->result(),
                       std::string("hand-stepped, engine ") +
                           dmm::local::engine_kind_name(kind));
  }
}

// Two flooding sessions alternating steps on ONE shared Runtime: flooding
// spills big messages into the runtime's shared arenas, so this is the
// direct test that arena sharing across interleaved sessions is safe (the
// borrow lock spans a full step; arenas are round-scoped scratch).
TEST(Session, InterleavedFloodingSessionsShareRuntime) {
  const int k = 5;
  const auto chain = dmm::graph::worst_case_chain(k);
  const auto& g = chain.long_path;
  const ProgramSource source = flooding_greedy(k);

  RunOptions options;
  options.max_rounds = 64;
  const RunResult standalone = dmm::local::run_flat(g, source, options);

  dmm::local::Runtime runtime(3);
  dmm::local::FlatEngineOptions fopts;
  fopts.threads = 3;
  auto a = dmm::local::make_session(EngineKind::kFlat, g, source, options, fopts, &runtime);
  auto b = dmm::local::make_session(EngineKind::kFlat, g, source, options, fopts, &runtime);
  // Lock-step interleaving: a, b, a, b, ... then drain whichever remains.
  while (!a->done() || !b->done()) {
    if (!a->done()) a->step();
    if (!b->done()) b->step();
  }
  const RunResult ra = a->result();
  const RunResult rb = b->result();
  expect_same_result(standalone, ra, "interleaved flooding session a");
  expect_same_result(standalone, rb, "interleaved flooding session b");
  EXPECT_EQ(runtime.pool_spawns(), 1u);
  EXPECT_EQ(ra.threads_spawned + rb.threads_spawned, 2);
}

// ---------------------------------------------------------------------------
// 2. Service equivalence grid: engines × programs × fault plans × knobs.

TEST(Service, InterleavedEqualsStandalone) {
  dmm::Rng rng(97);
  const int k = 4;
  const auto random_g = dmm::graph::random_coloured_graph(60, k, 0.6, rng);
  const auto chain = dmm::graph::worst_case_chain(k);

  FaultSpec spec;
  spec.crash_prob = 0.08;
  spec.permanent_prob = 0.3;
  spec.drop_prob = 0.04;
  spec.horizon = 12;
  spec.seed = 23;
  const FaultPlan random_plan = FaultPlan::random(random_g, spec);

  struct Case {
    std::string name;
    const dmm::graph::EdgeColouredGraph* graph;
    ProgramSource source;
    FaultPlan faults;  // empty = clean run
  };
  std::vector<Case> cases;
  cases.push_back({"greedy-clean", &random_g, dmm::algo::greedy_program_factory(), {}});
  cases.push_back(
      {"greedy-faulty", &random_g, dmm::algo::greedy_program_factory(), random_plan});
  cases.push_back({"flooding-clean", &chain.long_path, flooding_greedy(k), {}});

  for (const int quantum : {1, 7}) {
    for (const int inflight : {2, 32}) {
      ServiceOptions opts;
      opts.quantum = quantum;
      opts.inflight = inflight;
      opts.threads = 2;
      MatchingService service(opts);

      std::vector<std::future<RunResult>> futures;
      std::vector<std::pair<EngineKind, const Case*>> expected;
      for (const EngineKind kind : {EngineKind::kSync, EngineKind::kFlat}) {
        for (const Case& c : cases) {
          Job job;
          job.graph = *c.graph;
          job.source = c.source;
          job.max_rounds = 64;
          job.engine = kind;
          job.faults = c.faults;
          futures.push_back(service.submit("tenant-" + c.name, std::move(job)));
          expected.emplace_back(kind, &c);
        }
      }

      for (std::size_t i = 0; i < futures.size(); ++i) {
        const auto& [kind, c] = expected[i];
        RunOptions options;
        options.max_rounds = 64;
        if (!c->faults.empty()) options.faults.plan = &c->faults;
        const RunResult standalone = dmm::local::run(kind, *c->graph, c->source, options);
        expect_same_result(standalone, futures[i].get(),
                           c->name + ", engine " +
                               dmm::local::engine_kind_name(kind) + ", quantum " +
                               std::to_string(quantum) + ", inflight " +
                               std::to_string(inflight));
      }
      const ServiceStats stats = service.stats();
      EXPECT_EQ(stats.sessions, futures.size());
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Acceptance: 1000 concurrent sessions, mixed tenants, one shared
//    Runtime, exactly one pool spawn, every result bit-identical to its
//    standalone run.

TEST(Service, ThousandSessionsOneSharedPool) {
  constexpr int kJobs = 1000;
  constexpr int kDistinct = 10;
  constexpr int kThreads = 4;

  std::vector<dmm::graph::EdgeColouredGraph> graphs;
  graphs.reserve(kDistinct);
  for (int i = 0; i < kDistinct; ++i) {
    dmm::Rng rng(1000 + i);
    graphs.push_back(dmm::graph::random_coloured_graph(1000, 6, 0.8, rng));
  }
  // One oracle per distinct instance (the reference sync engine).
  std::vector<RunResult> oracles;
  oracles.reserve(kDistinct);
  RunOptions options;
  options.max_rounds = 64;
  for (const auto& g : graphs) {
    oracles.push_back(
        dmm::local::run_sync(g, dmm::algo::greedy_program_factory(), options));
  }

  ServiceOptions opts;
  opts.inflight = kJobs;  // all 1000 sessions genuinely concurrent
  opts.quantum = 3;
  opts.threads = kThreads;
  MatchingService service(opts);

  std::vector<std::future<RunResult>> futures;
  futures.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    Job job;
    job.graph = graphs[static_cast<std::size_t>(j % kDistinct)];
    job.source = dmm::algo::greedy_program_factory();
    job.max_rounds = 64;
    job.engine = EngineKind::kFlat;
    futures.push_back(
        service.submit("tenant-" + std::to_string(j % kDistinct), std::move(job)));
  }

  int threads_spawned_total = 0;
  for (int j = 0; j < kJobs; ++j) {
    RunResult r = futures[static_cast<std::size_t>(j)].get();
    threads_spawned_total += r.threads_spawned;
    expect_same_result(oracles[static_cast<std::size_t>(j % kDistinct)], r,
                       "session " + std::to_string(j));
  }
  // The pool was spawned exactly once for all 1000 sessions, and the
  // per-session gauges sum to the one pool's size (threads − 1).
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.pool_spawns, 1u);
  EXPECT_EQ(stats.threads_spawned, static_cast<std::size_t>(kThreads - 1));
  EXPECT_EQ(threads_spawned_total, kThreads - 1);
  EXPECT_EQ(stats.tenants.size(), static_cast<std::size_t>(kDistinct));
  for (const TenantStats& t : stats.tenants) {
    EXPECT_EQ(t.completed, static_cast<std::uint64_t>(kJobs / kDistinct)) << t.tenant;
  }
}

// A serial service (threads = 1) never spawns a pool at all.
TEST(Service, SerialRuntimeNeverSpawnsPool) {
  dmm::Rng rng(5);
  const auto g = dmm::graph::random_coloured_graph(50, 3, 0.6, rng);
  ServiceOptions opts;
  opts.threads = 1;
  MatchingService service(opts);
  Job job;
  job.graph = g;
  job.source = dmm::algo::greedy_program_factory();
  job.max_rounds = 32;
  const RunResult r = service.submit("solo", std::move(job)).get();
  EXPECT_EQ(r.threads_spawned, 0);
  EXPECT_EQ(service.stats().pool_spawns, 0u);
}

// ---------------------------------------------------------------------------
// 4. Fair share: the starvation bound quantum × (tenants − 1).

TEST(Service, FairShareBoundsCrossTenantStall) {
  const int k = 6;
  const auto chain = dmm::graph::worst_case_chain(k);
  dmm::Rng rng(61);
  const auto small = dmm::graph::random_coloured_graph(40, 3, 0.6, rng);

  constexpr int kQuantum = 2;
  std::vector<std::string> log;  // written by the scheduler thread only
  {
    ServiceOptions opts;
    opts.quantum = kQuantum;
    opts.inflight = 64;
    opts.step_observer = [&log](const std::string& tenant) { log.push_back(tenant); };
    MatchingService service(opts);

    // The flooding tenant dumps a pile of long jobs first; the greedy
    // tenant's short jobs arrive second and must still get steps promptly.
    std::vector<Job> flood_jobs;
    for (int i = 0; i < 12; ++i) {
      Job job;
      job.graph = chain.long_path;
      job.source = flooding_greedy(k);
      job.max_rounds = 64;
      flood_jobs.push_back(std::move(job));
    }
    auto flood_futures = service.submit_batch("zz-flood", std::move(flood_jobs));
    std::vector<Job> fast_jobs;
    for (int i = 0; i < 4; ++i) {
      Job job;
      job.graph = small;
      job.source = dmm::algo::greedy_program_factory();
      job.max_rounds = 32;
      fast_jobs.push_back(std::move(job));
    }
    auto fast_futures = service.submit_batch("aa-fast", std::move(fast_jobs));
    for (auto& f : fast_futures) f.get();
    for (auto& f : flood_futures) f.get();

    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.fairness_ratio, 0.0);
    // Destroy the service (joining the scheduler) before reading `log`.
  }

  // Between two consecutive steps granted to the fast tenant, the flood
  // tenant received at most quantum × (tenants − 1) steps.
  std::optional<std::size_t> last_fast;
  std::size_t worst_gap = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i] != "aa-fast") continue;
    if (last_fast.has_value()) {
      worst_gap = std::max(worst_gap, i - *last_fast - 1);
    }
    last_fast = i;
  }
  ASSERT_TRUE(last_fast.has_value());
  EXPECT_LE(worst_gap, static_cast<std::size_t>(kQuantum) * 1u);
}

// ---------------------------------------------------------------------------
// 5. Rejection paths.

TEST(Service, RejectsInvalidAndShutdownSubmissions) {
  dmm::Rng rng(13);
  const auto small = dmm::graph::random_coloured_graph(10, 3, 0.6, rng);
  const auto big = dmm::graph::random_coloured_graph(100, 3, 0.6, rng);

  ServiceOptions opts;
  opts.max_nodes = 32;
  MatchingService service(opts);

  {  // Non-positive round budget: rejected synchronously.
    Job job;
    job.graph = small;
    job.source = dmm::algo::greedy_program_factory();
    job.max_rounds = 0;
    EXPECT_THROW(service.submit("t", std::move(job)), std::invalid_argument);
  }
  {  // Oversized instance: rejected synchronously.
    Job job;
    job.graph = big;
    job.source = dmm::algo::greedy_program_factory();
    job.max_rounds = 32;
    EXPECT_THROW(service.submit("t", std::move(job)), std::invalid_argument);
  }
  {  // A batch with one bad job rejects the whole batch before enqueuing.
    std::vector<Job> jobs(2);
    jobs[0].graph = small;
    jobs[0].source = dmm::algo::greedy_program_factory();
    jobs[0].max_rounds = 32;
    jobs[1].graph = big;
    jobs[1].source = dmm::algo::greedy_program_factory();
    jobs[1].max_rounds = 32;
    EXPECT_THROW(service.submit_batch("t", std::move(jobs)), std::invalid_argument);
    EXPECT_EQ(service.stats().sessions, 0u);
  }
  {  // A session that exhausts its round budget delivers through the future.
    Job job;
    job.graph = dmm::graph::worst_case_chain(4).long_path;
    job.source = dmm::algo::greedy_program_factory();
    job.max_rounds = 1;
    auto future = service.submit("t", std::move(job));
    EXPECT_THROW(future.get(), std::runtime_error);
  }
  {  // Accepted before shutdown: still runs to completion.
    Job job;
    job.graph = small;
    job.source = dmm::algo::greedy_program_factory();
    job.max_rounds = 32;
    auto future = service.submit("t", std::move(job));
    service.shutdown();
    const RunResult standalone =
        dmm::local::run_sync(small, dmm::algo::greedy_program_factory(), {32});
    expect_same_result(standalone, future.get(), "accepted-before-shutdown");
  }
  {  // After shutdown: runtime_error, for single and batched submission.
    Job job;
    job.graph = small;
    job.source = dmm::algo::greedy_program_factory();
    job.max_rounds = 32;
    EXPECT_THROW(service.submit("t", std::move(job)), std::runtime_error);
    std::vector<Job> jobs(1);
    jobs[0].graph = small;
    jobs[0].source = dmm::algo::greedy_program_factory();
    jobs[0].max_rounds = 32;
    EXPECT_THROW(service.submit_batch("t", std::move(jobs)), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// 6. Latency percentiles use the nearest rank (ISSUE 10 satellite): the old
//    idx = q·N indexing overshot by one rank on exact multiples, so the p50
//    of a 2-sample came back as the UPPER element.

TEST(Service, PercentileUsesNearestRank) {
  // Size 1: every quantile is the only element.
  EXPECT_EQ(nearest_rank_percentile({42.0}, 0.50), 42.0);
  EXPECT_EQ(nearest_rank_percentile({42.0}, 0.99), 42.0);

  // Size 2: rank ceil(0.5·2) = 1 → the LOWER element (the bug returned 2).
  EXPECT_EQ(nearest_rank_percentile({1.0, 2.0}, 0.50), 1.0);
  EXPECT_EQ(nearest_rank_percentile({1.0, 2.0}, 0.99), 2.0);

  // Size 4: ranks ceil(.25·4)=1, ceil(.5·4)=2, ceil(.75·4)=3, ceil(.99·4)=4.
  const std::vector<double> four = {10.0, 20.0, 30.0, 40.0};
  EXPECT_EQ(nearest_rank_percentile(four, 0.25), 10.0);
  EXPECT_EQ(nearest_rank_percentile(four, 0.50), 20.0);
  EXPECT_EQ(nearest_rank_percentile(four, 0.75), 30.0);
  EXPECT_EQ(nearest_rank_percentile(four, 0.99), 40.0);

  // Size 100: p50 is the 50th order statistic, p99 the 99th — and q = 1
  // (rank 100) stays in range instead of indexing one past the end.
  std::vector<double> hundred(100);
  for (std::size_t i = 0; i < hundred.size(); ++i) {
    hundred[i] = static_cast<double>(i + 1);
  }
  EXPECT_EQ(nearest_rank_percentile(hundred, 0.50), 50.0);
  EXPECT_EQ(nearest_rank_percentile(hundred, 0.99), 99.0);
  EXPECT_EQ(nearest_rank_percentile(hundred, 1.0), 100.0);

  // Monotone in q by construction, so p50 ≤ p99 on any sample; clamped
  // below so q = 0 is the minimum, and empty samples read 0.
  EXPECT_LE(nearest_rank_percentile(four, 0.50), nearest_rank_percentile(four, 0.99));
  EXPECT_EQ(nearest_rank_percentile(four, 0.0), 10.0);
  EXPECT_EQ(nearest_rank_percentile({}, 0.50), 0.0);
}

}  // namespace
}  // namespace dmm::svc
