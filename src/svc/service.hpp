// Multi-tenant request front-end over the session-stepped engines
// (ROADMAP scenario (c): many concurrent matching instances behind a
// batched async API with per-tenant fair-share admission).
//
// The service owns one shared local::Runtime (one worker pool per
// process) and a single scheduler thread.  submit() enqueues a Job on its
// tenant's FIFO and returns a std::future; the scheduler admits queued
// jobs round-robin across tenants up to the in-flight bound, then
// interleaves the admitted sessions one round step at a time under a
// deficit-round-robin discipline:
//
//   * every scheduling pass visits the tenants that have admitted
//     sessions in a fixed (sorted) order and grants each a quantum of
//     round steps;
//   * a tenant that cannot use its credit (no runnable session) forfeits
//     the remainder — credit never accumulates, so an idle tenant cannot
//     later burst;
//   * consequently, between two consecutive steps granted to a tenant
//     with runnable work, every other tenant receives at most `quantum`
//     steps — a flooding tenant with thousand-round sessions cannot stall
//     a greedy tenant beyond the deficit window
//     (tests/test_service.cpp pins the bound via step_observer).
//
// Correctness under interleaving is structural, not scheduled: sessions
// share no mutable state except the runtime (whose borrow lock spans a
// full step), so every session's RunResult is bit-identical to its
// standalone run no matter how steps interleave — the equivalence suite
// checks results against the run_sync oracle across engines, fault plans
// and scheduling knobs.  Queueing/fair-share idiom per the ytsaurus
// scheduler sources cited in ROADMAP.md; docs/service.md has the full
// semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "graph/edge_coloured_graph.hpp"
#include "local/engine.hpp"
#include "local/faults.hpp"

namespace dmm::svc {

/// One matching instance submitted to the front-end.  The service takes
/// the Job by value and owns the graph / source / fault plan for the
/// session's lifetime (the engine borrows them), so a submitter may drop
/// its own copies immediately after submit() returns.  Copying a graph
/// into a Job is O(1): jobs on one instance share its storage
/// (copy-on-write) and the colour-sorted CSR that the first flat session
/// over it builds, so N jobs hold one adjacency and one CSR, not N.
struct Job {
  graph::EdgeColouredGraph graph{0, 1};
  local::ProgramSource source;
  /// Round budget; must be positive (submit rejects otherwise — an
  /// unbounded job could starve every tenant forever).
  int max_rounds = 0;
  local::EngineKind engine = local::EngineKind::kFlat;
  /// Deterministic fault plan for this run; empty = fault-free.
  local::FaultPlan faults;
};

struct ServiceOptions {
  /// Admission bound: at most this many sessions are in flight (admitted,
  /// stepping) at once; the rest wait in their tenant queues.
  int inflight = 8;
  /// Deficit-round-robin quantum: round steps granted per tenant per
  /// scheduling pass.  The starvation bound is quantum × (tenants − 1)
  /// foreign steps between two of a tenant's own.
  int quantum = 4;
  /// Worker budget of the shared Runtime used by flat sessions.  1 keeps
  /// everything serial (no pool is ever spawned).
  int threads = 1;
  /// Reject instances with more nodes than this (0 = unlimited).
  std::size_t max_nodes = 0;
  /// Test hook: called on the scheduler thread immediately before each
  /// granted round step, with the tenant receiving the step.  Must be
  /// thread-compatible with the scheduler (it is never called
  /// concurrently with itself).
  std::function<void(const std::string& tenant)> step_observer;
};

/// Nearest-rank percentile over an ascending-sorted sample: the element of
/// 1-based rank ceil(q·N), i.e. the smallest sample value that is ≥ at
/// least a q-fraction of the sample.  q is clamped to the sample (empty →
/// 0, q ≤ 0 → min, q ≥ 1 → max); p50 of a 2-sample is the LOWER element.
/// This is the formula behind TenantStats::p50_ms/p99_ms; exposed so the
/// regression suite can pin exact ranks (tests/test_service.cpp).
double nearest_rank_percentile(const std::vector<double>& sorted, double q);

struct TenantStats {
  std::string tenant;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t steps = 0;  // round steps granted so far
  // Sojourn latency (submit → result ready) over completed sessions, ms.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};

struct ServiceStats {
  std::uint64_t sessions = 0;  // completed sessions, all tenants
  // Shared-runtime gauges: pool_spawns stays ≤ 1 no matter how many
  // sessions ran (the whole point of the runtime), threads_spawned is the
  // pool size actually created.
  std::uint64_t pool_spawns = 0;
  std::size_t threads_spawned = 0;
  /// max / min of tenant mean sojourn latency over tenants with at least
  /// one completed session; 1.0 when fewer than two such tenants.  Under
  /// identical per-tenant workloads DRR keeps this near 1.
  double fairness_ratio = 1.0;
  std::vector<TenantStats> tenants;  // sorted by tenant name
};

/// The front-end.  Thread-safe: submit()/stats()/shutdown() may be called
/// from any thread.  Destruction shuts down admissions and drains every
/// already-submitted job (their futures all complete).
class MatchingService {
 public:
  explicit MatchingService(const ServiceOptions& options);
  ~MatchingService();

  MatchingService(const MatchingService&) = delete;
  MatchingService& operator=(const MatchingService&) = delete;

  /// Enqueues a job for `tenant` and returns the future of its final
  /// RunResult — bit-identical to the job's standalone run.  Throws
  /// std::invalid_argument synchronously for a non-positive round budget
  /// or an instance above max_nodes, and std::runtime_error after
  /// shutdown().  A job whose session throws (program error, round-budget
  /// exhaustion) delivers the exception through the future.
  std::future<local::RunResult> submit(const std::string& tenant, Job job);

  /// Batched submission: one queue pass, futures in job order.
  std::vector<std::future<local::RunResult>> submit_batch(const std::string& tenant,
                                                          std::vector<Job> jobs);

  /// Stops admissions (further submits throw); already-submitted jobs
  /// still run to completion.  Idempotent, non-blocking — wait on the
  /// futures (or destroy the service) to observe the drain.
  void shutdown();

  ServiceStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dmm::svc
