// E12 — dynamic maximal matching under edge churn (docs/dynamic.md):
// what incremental repair costs per batch, and how little of the graph it
// touches compared to recomputing from scratch.
//
// Every row applies one seeded ChurnPlan to a DynamicMatcher and times
// ONLY the incremental apply (plan validation and the seeding greedy run
// sit outside the measured section; the seeding run's wall is recorded as
// init_ms).  The same plan is then replayed untimed on a fresh matcher
// with per-batch verification — incremental outputs AND a recompute-
// from-scratch oracle run must both pass check_outputs after every batch,
// and the replay's counters must equal the timed run's — the binary
// aborts on any violation, so a green baseline row doubles as a repair
// correctness smoke.  The churn counters (churn_ops / repairs /
// touched_nodes / recompute_avoided) are pure functions of
// (instance, seed): the same instance's sync and flat rows must agree on
// them exactly (also aborted on), and the pinned BENCH_e12.json gates
// them on equality; wall_ns is banded like every other experiment.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

struct ChurnCase {
  const char* label;
  graph::EdgeColouredGraph (*make)();
  dyn::ChurnSpec spec;
};

graph::EdgeColouredGraph random_workload() {
  Rng rng(42);
  return graph::random_coloured_graph(20000, 8, 0.7, rng);
}

graph::EdgeColouredGraph skewed_workload() {
  return graph::hub_cluster_graph(1500, 48, 1);
}

graph::EdgeColouredGraph star_workload() { return graph::star_graph(192); }

dyn::ChurnSpec spec_of(int batches, int ops, std::uint64_t seed) {
  dyn::ChurnSpec spec;
  spec.batches = batches;
  spec.ops_per_batch = ops;
  spec.insert_fraction = 0.5;
  spec.seed = seed;
  return spec;
}

/// One churn row: timed incremental apply, then the untimed verification
/// replay (per-batch incremental + oracle maximality, counter equality).
dyn::RepairStats record_churn_run(benchjson::Harness& harness, const std::string& label,
                                  const graph::EdgeColouredGraph& g, local::EngineKind kind,
                                  int threads, const dyn::ChurnSpec& spec) {
  const dyn::ChurnPlan plan = dyn::ChurnPlan::random(g, spec);
  plan.require_applies(g);

  dyn::MatcherOptions mopts;
  mopts.engine = kind;
  mopts.threads = threads;

  benchjson::Record record;
  record.instance = label;
  record.n = g.node_count();
  record.m = g.edge_count();
  record.k = g.k();
  record.engine = local::engine_kind_name(kind);
  record.threads = threads;

  // Timed: the incremental repair path alone.
  double init_ns = 0.0;
  dyn::DynamicMatcher* matcher_ptr = nullptr;
  init_ns = benchjson::Harness::time_ns(
      [&] { matcher_ptr = new dyn::DynamicMatcher(g, mopts); });
  dyn::DynamicMatcher& matcher = *matcher_ptr;
  record.metrics["init_ms"] = init_ns / 1e6;
  record.metrics["wall_ns"] = benchjson::Harness::time_ns([&] {
    for (const dyn::ChurnBatch& batch : plan.batches()) matcher.apply(batch);
  });

  // Untimed replay: every batch must leave BOTH the incremental matching
  // and a from-scratch recompute maximal, and the replayed counters must
  // equal the timed run's.
  dyn::DynamicMatcher checker(g, mopts);
  for (std::size_t b = 0; b < plan.batches().size(); ++b) {
    checker.apply(plan.batches()[b]);
    const verify::MatchingReport incremental = checker.check();
    const verify::MatchingReport oracle =
        verify::check_outputs(checker.graph(), checker.recompute());
    if (!incremental.ok() || !oracle.ok()) {
      std::fprintf(stderr, "e12: %s batch %zu invalid (%s)\n", label.c_str(), b,
                   incremental.ok() ? "oracle" : "incremental");
      std::abort();
    }
  }
  if (!(checker.stats() == matcher.stats())) {
    std::fprintf(stderr, "e12: %s replay counters diverged from timed run\n", label.c_str());
    std::abort();
  }

  const dyn::RepairStats stats = matcher.stats();
  const std::uint64_t ops = stats.inserts + stats.deletes;
  record.metrics["churn_ops"] = static_cast<double>(ops);
  if (ops > 0) record.metrics["ns_per_op"] = record.metrics["wall_ns"] / static_cast<double>(ops);
  record.metrics["repairs"] = static_cast<double>(stats.repairs);
  record.metrics["touched_nodes"] = static_cast<double>(stats.touched_nodes);
  record.metrics["recompute_avoided"] = static_cast<double>(stats.recompute_avoided);
  record.metrics["rss_bytes"] = static_cast<double>(benchjson::peak_rss_bytes());
  delete matcher_ptr;
  harness.add(std::move(record));
  return stats;
}

void print_rows(benchjson::Harness& harness) {
  const ChurnCase cases[] = {
      {"churn random n=20000 k=8", &random_workload, spec_of(48, 256, 1207)},
      {"churn hub_cluster h=1500 d=48", &skewed_workload, spec_of(32, 128, 1207)},
      {"churn star n=193", &star_workload, spec_of(16, 32, 1207)},
  };
  std::printf("## E12: dynamic maximal matching under churn, incremental repair vs oracle\n");
  std::printf("%-32s %-6s %8s %12s %8s %8s %8s %10s %14s\n", "instance", "engine", "threads",
              "wall (ms)", "ops", "ns/op", "repairs", "touched", "avoided");
  for (const ChurnCase& c : cases) {
    const graph::EdgeColouredGraph g = c.make();
    dyn::RepairStats sync_stats;
    struct EngineRow {
      local::EngineKind kind;
      int threads;
    };
    const EngineRow engines[] = {{local::EngineKind::kSync, 1}, {local::EngineKind::kFlat, 4}};
    for (const EngineRow& e : engines) {
      const dyn::RepairStats stats =
          record_churn_run(harness, c.label, g, e.kind, e.threads, c.spec);
      if (e.kind == local::EngineKind::kSync) {
        sync_stats = stats;
      } else if (!(stats == sync_stats)) {
        // The counters are a pure function of (instance, seed); an engine
        // that changes them has leaked into the repair path.
        std::fprintf(stderr, "e12: %s counters differ between engines\n", c.label);
        std::abort();
      }
      const auto& metrics = harness.records().back().metrics;
      const std::uint64_t ops = stats.inserts + stats.deletes;
      std::printf("%-32s %-6s %8d %12.2f %8llu %8.0f %8llu %10llu %14llu\n", c.label,
                  local::engine_kind_name(e.kind), e.threads, metrics.at("wall_ns") / 1e6,
                  static_cast<unsigned long long>(ops),
                  ops > 0 ? metrics.at("ns_per_op") : 0.0,
                  static_cast<unsigned long long>(stats.repairs),
                  static_cast<unsigned long long>(stats.touched_nodes),
                  static_cast<unsigned long long>(stats.recompute_avoided));
    }
  }
  std::printf("\n");
}

void BM_ChurnApply(benchmark::State& state) {
  const graph::EdgeColouredGraph g = random_workload();
  const dyn::ChurnSpec spec = spec_of(48, 256, 1207);
  const dyn::ChurnPlan plan = dyn::ChurnPlan::random(g, spec);
  for (auto _ : state) {
    state.PauseTiming();
    dyn::DynamicMatcher matcher(g, {});
    state.ResumeTiming();
    for (const dyn::ChurnBatch& batch : plan.batches()) matcher.apply(batch);
    benchmark::DoNotOptimize(matcher.stats().repairs);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(plan.op_count()));
}
BENCHMARK(BM_ChurnApply);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_experiment("e12", argc, argv, print_rows);
}
