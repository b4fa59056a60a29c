// E2 — §1.2 worst case: greedy needs exactly k-1 rounds; the endpoints are
// indistinguishable through round k-2.  Prints the series over k and times
// the chain simulation.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_engines.hpp"
#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

void print_rows(benchjson::Harness& harness) {
  std::printf("## E2: the greedy worst case (paper §1.2)\n");
  std::printf("%4s %14s %8s %22s %22s\n", "k", "rounds(greedy)", "k-1", "views equal @ k-2",
              "views equal @ k-1");
  for (int k = 2; k <= 16; ++k) {
    const graph::WorstCase wc = graph::worst_case_chain(k);
    local::RunResult run;
    for (const local::EngineKind kind : {local::EngineKind::kSync, local::EngineKind::kFlat}) {
      run = benchjson::record_engine_run(harness, "worst-case chain k=" + std::to_string(k),
                                         wc.long_path, kind, algo::greedy_program_factory(),
                                         {k + 1});
    }
    graph::EdgeColouredGraph merged(wc.long_path.node_count() + wc.short_path.node_count(), k);
    for (const auto& e : wc.long_path.edges()) merged.add_edge(e.u, e.v, e.colour);
    const graph::NodeIndex offset = wc.long_path.node_count();
    for (const auto& e : wc.short_path.edges()) {
      merged.add_edge(e.u + offset, e.v + offset, e.colour);
    }
    const bool eq_km2 = local::indistinguishable(merged, wc.u, wc.v + offset, k - 2);
    const bool eq_km1 = local::indistinguishable(merged, wc.u, wc.v + offset, k - 1);
    std::printf("%4d %14d %8d %22s %22s\n", k, run.rounds, k - 1, eq_km2 ? "yes" : "NO",
                eq_km1 ? "YES (bug)" : "no");
  }
  std::printf("\n");
}

void BM_WorstCaseChain(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const graph::WorstCase wc = graph::worst_case_chain(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        local::run_sync(wc.long_path, algo::greedy_program_factory(), {k + 1}));
  }
}
BENCHMARK(BM_WorstCaseChain)->Arg(4)->Arg(16)->Arg(64)->Arg(200);

void BM_WorstCaseChainFlat(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const graph::WorstCase wc = graph::worst_case_chain(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        local::run_flat(wc.long_path, algo::greedy_program_factory(), {k + 1}));
  }
}
BENCHMARK(BM_WorstCaseChainFlat)->Arg(4)->Arg(16)->Arg(64)->Arg(200);

void BM_IndistinguishabilityCheck(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const graph::WorstCase wc = graph::worst_case_chain(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(local::view_ball(wc.long_path, wc.u, k - 1));
  }
}
BENCHMARK(BM_IndistinguishabilityCheck)->Arg(8)->Arg(32)->Arg(128);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_experiment("e2", argc, argv, print_rows);
}
