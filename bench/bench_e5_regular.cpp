// E5 — Corollary 1: the lower-bound instances are d-regular with d = k-1,
// so the bound is Ω(Δ) in the maximum degree.  Prints the per-k row
// (regularity of U/V, greedy's horizon on them) and times greedy on
// d-regular trees of growing degree.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_engines.hpp"
#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

void print_rows(benchjson::Harness& harness) {
  std::printf("## E5: Corollary 1 — Omega(Delta) on d-regular instances (d = k-1)\n");
  std::printf("%4s %4s %12s %12s %14s\n", "k", "d", "U regular?", "V regular?",
              "greedy rounds");
  for (int k = 3; k <= 4; ++k) {
    const algo::GreedyLocal greedy(k);
    const lower::LowerBoundResult result = lower::run_adversary(k, greedy);
    if (!result.tight()) continue;
    const auto& tp = std::get<lower::TightPair>(result.outcome);
    // Simulate greedy on a concrete ball of U big enough to settle node 0.
    const colsys::ColourSystem chunk = tp.u.tree().ball(colsys::ColourSystem::root(),
                                                        std::min(tp.u.valid_radius(), k + 1));
    const graph::EdgeColouredGraph g = graph::to_graph(chunk);
    local::RunResult run;
    for (const local::EngineKind kind : {local::EngineKind::kSync, local::EngineKind::kFlat}) {
      run = benchjson::record_engine_run(harness, "tight-pair U ball k=" + std::to_string(k),
                                         g, kind, algo::greedy_program_factory(), {k + 1});
    }
    std::printf("%4d %4d %12s %12s %14d\n", k, k - 1,
                tp.u.tree().is_regular(k - 1) ? "yes" : "NO",
                tp.v.tree().is_regular(k - 1) ? "yes" : "NO", run.rounds);
  }
  std::printf("\n(regular trees of degree d need Theta(d) greedy rounds; see also E2)\n\n");
}

void BM_GreedyOnRegularTree(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int k = d + 1;
  const colsys::ColourSystem tree = colsys::regular_system(k, d, 6);
  const graph::EdgeColouredGraph g = graph::to_graph(tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(local::run_sync(g, algo::greedy_program_factory(), {k + 1}));
  }
  state.counters["nodes"] = g.node_count();
}
BENCHMARK(BM_GreedyOnRegularTree)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_experiment("e5", argc, argv, print_rows);
}
