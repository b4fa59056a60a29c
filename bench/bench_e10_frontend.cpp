// E10 — the multi-tenant request front-end (ISSUE 9): what interleaving
// many sessions on one shared Runtime costs over running them back to
// back, and how evenly the deficit-round-robin scheduler treats tenants.
//
// Every row drives a deterministic workload (tenants × jobs of the same
// seeded instance) through svc::MatchingService and checks each session's
// RunResult against the standalone run of the same job — the bench aborts
// on any divergence, so a green baseline row doubles as an equivalence
// smoke check.  `sessions` is an exact workload property (the gate pins it
// on equality); tenant_p50_ms / tenant_p99_ms / fairness_ratio are wall
// measurements (banded); init_ms / send_ms / receive_ms carry the engines'
// phase split summed over the row's sessions (recorded, never gated).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

// The e10 workload: mid-sized so per-round scheduling cost is visible but
// the CI smoke stays fast.  Seeded — the pinned BENCH_e10.json session
// counts reproduce anywhere.
graph::EdgeColouredGraph workload() {
  Rng rng(42);
  return graph::random_coloured_graph(5000, 6, 0.7, rng);
}

local::FaultPlan workload_plan(const graph::EdgeColouredGraph& g) {
  local::FaultSpec spec;
  spec.crash_prob = 0.02;
  spec.horizon = 5;
  spec.min_down = 1;
  spec.max_down = 2;
  spec.permanent_prob = 0.25;
  spec.drop_prob = 0.01;
  spec.seed = 4210;
  return local::FaultPlan::random(g, spec);
}

bool same_result(const local::RunResult& a, const local::RunResult& b) {
  return a.outputs == b.outputs && a.halt_round == b.halt_round && a.rounds == b.rounds &&
         a.max_message_bytes == b.max_message_bytes &&
         a.total_message_bytes == b.total_message_bytes &&
         a.messages_sent == b.messages_sent && a.crashes == b.crashes &&
         a.restarts == b.restarts && a.messages_dropped == b.messages_dropped;
}

/// One front-end row: tenants × jobs_per_tenant copies of the greedy job
/// through a fresh MatchingService, every result diffed against the
/// standalone oracle.
benchjson::Record record_service_run(benchjson::Harness& harness, const std::string& label,
                                     const graph::EdgeColouredGraph& g,
                                     local::EngineKind kind, int tenants,
                                     int jobs_per_tenant, int threads,
                                     const local::FaultPlan& plan) {
  const int max_rounds = std::max(g.k() + 1, plan.max_restart_round() + g.k() + 2);
  local::RunOptions ropts;
  ropts.max_rounds = max_rounds;
  if (!plan.empty()) ropts.faults.plan = &plan;
  const local::RunResult standalone =
      local::run(kind, g, algo::greedy_program_factory(), ropts);

  benchjson::Record record;
  record.instance = label;
  record.n = g.node_count();
  record.m = g.edge_count();
  record.k = g.k();
  record.engine = local::engine_kind_name(kind);
  record.threads = threads;
  record.metrics["rounds"] = standalone.rounds;
  record.metrics["max_message_bytes"] = static_cast<double>(standalone.max_message_bytes);

  svc::ServiceOptions opts;
  opts.inflight = tenants * jobs_per_tenant;  // every session in flight at once
  opts.quantum = 4;
  opts.threads = threads;

  svc::ServiceStats stats;
  record.metrics["wall_ns"] = benchjson::Harness::time_ns([&] {
    svc::MatchingService service(opts);
    std::vector<std::vector<std::future<local::RunResult>>> futures(
        static_cast<std::size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
      std::vector<svc::Job> jobs(static_cast<std::size_t>(jobs_per_tenant));
      for (svc::Job& job : jobs) {
        job.graph = g;
        job.source = algo::greedy_program_factory();
        job.max_rounds = max_rounds;
        job.engine = kind;
        job.faults = plan;
      }
      futures[static_cast<std::size_t>(t)] =
          service.submit_batch("tenant-" + std::to_string(t), std::move(jobs));
    }
    for (auto& tenant_futures : futures) {
      for (auto& future : tenant_futures) {
        const local::RunResult run = future.get();
        if (!same_result(standalone, run)) {
          std::fprintf(stderr, "e10: service session diverged from standalone (%s)\n",
                       label.c_str());
          std::abort();
        }
        // Summed over the row's sessions: the fault counters (exact) and
        // each session's own setup / send / receive phase times (recorded).
        record.metrics["crashes"] += static_cast<double>(run.crashes);
        record.metrics["restarts"] += static_cast<double>(run.restarts);
        record.metrics["messages_dropped"] += static_cast<double>(run.messages_dropped);
        record.metrics["init_ms"] += run.init_ns / 1e6;
        record.metrics["send_ms"] += run.send_ns / 1e6;
        record.metrics["receive_ms"] += run.receive_ns / 1e6;
      }
    }
    stats = service.stats();
  });
  record.metrics["sessions"] = static_cast<double>(stats.sessions);
  // The worst tenant's percentiles: the number a fair-share regression
  // moves first.
  double& p50 = record.metrics["tenant_p50_ms"];
  double& p99 = record.metrics["tenant_p99_ms"];
  for (const svc::TenantStats& t : stats.tenants) {
    p50 = std::max(p50, t.p50_ms);
    p99 = std::max(p99, t.p99_ms);
  }
  record.metrics["fairness_ratio"] = stats.fairness_ratio;
  record.metrics["rss_bytes"] = static_cast<double>(benchjson::peak_rss_bytes());
  harness.add(record);
  return record;
}

void print_rows(benchjson::Harness& harness) {
  const graph::EdgeColouredGraph g = workload();
  const local::FaultPlan plan = workload_plan(g);
  const local::FaultPlan no_faults;
  constexpr int kTenants = 4;
  constexpr int kJobs = 8;

  std::printf("## E10: multi-tenant front-end, %d tenants x %d greedy jobs, n = %d, k = %d\n",
              kTenants, kJobs, g.node_count(), g.k());
  std::printf("%-32s %-6s %8s %12s %9s %9s %9s %9s\n", "instance", "engine", "threads",
              "wall (ms)", "sessions", "p50 (ms)", "p99 (ms)", "fairness");
  const std::string clean_label = "frontend n=5000 k=6 4x8";
  const std::string faulty_label = "frontend n=5000 k=6 4x8 faults";
  struct Config {
    const std::string* label;
    local::EngineKind kind;
    int threads;
    const local::FaultPlan* plan;
  };
  const Config configs[] = {
      {&clean_label, local::EngineKind::kSync, 1, &no_faults},
      {&clean_label, local::EngineKind::kFlat, 1, &no_faults},
      {&clean_label, local::EngineKind::kFlat, 4, &no_faults},
      {&faulty_label, local::EngineKind::kFlat, 4, &plan},
  };
  for (const Config& config : configs) {
    const benchjson::Record record =
        record_service_run(harness, *config.label, g, config.kind, kTenants, kJobs,
                           config.threads, *config.plan);
    const auto& metric = record.metrics;
    std::printf("%-32s %-6s %8d %12.2f %9.0f %9.2f %9.2f %9.2f\n", config.label->c_str(),
                local::engine_kind_name(config.kind), config.threads,
                metric.at("wall_ns") / 1e6, metric.at("sessions"), metric.at("tenant_p50_ms"),
                metric.at("tenant_p99_ms"), metric.at("fairness_ratio"));
  }
  std::printf("\n");
}

void BM_FrontendDrain(benchmark::State& state) {
  const graph::EdgeColouredGraph g = workload();
  const int max_rounds = g.k() + 1;
  svc::ServiceOptions opts;
  opts.inflight = 16;
  opts.quantum = 4;
  opts.threads = 4;
  for (auto _ : state) {
    svc::MatchingService service(opts);
    std::vector<std::future<local::RunResult>> futures;
    for (int t = 0; t < 2; ++t) {
      std::vector<svc::Job> jobs(4);
      for (svc::Job& job : jobs) {
        job.graph = g;
        job.source = algo::greedy_program_factory();
        job.max_rounds = max_rounds;
      }
      auto batch = service.submit_batch("tenant-" + std::to_string(t), std::move(jobs));
      for (auto& future : batch) futures.push_back(std::move(future));
    }
    for (auto& future : futures) benchmark::DoNotOptimize(future.get().rounds);
  }
  state.SetItemsProcessed(state.iterations() * 8 * g.node_count());
}
BENCHMARK(BM_FrontendDrain);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_experiment("e10", argc, argv, print_rows);
}
