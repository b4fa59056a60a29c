// E1 — Figure 1 + Lemma 1: greedy maximal matching.
//
// Prints the experiment rows (instance family, k, rounds used vs the k-1
// bound, matching size, validity) and then times the three greedy
// realisations with google-benchmark.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_engines.hpp"
#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

void print_rows(benchjson::Harness& harness) {
  std::printf("## E1: greedy maximal matching (Lemma 1: rounds <= k-1)\n");
  std::printf("%-28s %-5s %4s %8s %8s %8s %8s\n", "instance", "eng", "k", "rounds", "bound",
              "matched", "valid");
  struct Row {
    const char* name;
    graph::EdgeColouredGraph g;
  };
  Rng rng(1);
  const Row rows[] = {
      {"figure-1 (paper)", graph::figure1_graph()},
      {"random n=256 k=4", graph::random_coloured_graph(256, 4, 0.8, rng)},
      {"random n=256 k=8", graph::random_coloured_graph(256, 8, 0.8, rng)},
      {"hypercube d=8", graph::hypercube(8)},
      {"complete-bipartite d=8", graph::complete_bipartite(8)},
      {"worst-case chain k=8", graph::worst_case_chain(8).long_path},
      {"cayley ball k=4 depth=6", graph::to_graph(colsys::cayley_ball(4, 6))},
  };
  for (const Row& row : rows) {
    const int k = row.g.k();
    for (const local::EngineKind kind : {local::EngineKind::kSync, local::EngineKind::kFlat}) {
      const local::RunResult run = benchjson::record_engine_run(
          harness, row.name, row.g, kind, algo::greedy_program_factory(), {k + 1});
      const auto matched = verify::matched_edges(row.g, run.outputs);
      const bool ok = verify::check_outputs(row.g, run.outputs).ok();
      std::printf("%-28s %-5s %4d %8d %8d %8zu %8s\n", row.name,
                  local::engine_kind_name(kind), k, run.rounds, k - 1, matched.size(),
                  ok ? "yes" : "NO");
    }
  }
  std::printf("\n");
}

void BM_GreedyReference(benchmark::State& state) {
  Rng rng(2);
  const graph::EdgeColouredGraph g =
      graph::random_coloured_graph(static_cast<int>(state.range(0)), 6, 0.8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::greedy_outputs(g));
  }
  state.SetItemsProcessed(state.iterations() * g.node_count());
}
BENCHMARK(BM_GreedyReference)->Arg(256)->Arg(1024)->Arg(4096);

void BM_GreedyMessagePassing(benchmark::State& state) {
  Rng rng(3);
  const graph::EdgeColouredGraph g =
      graph::random_coloured_graph(static_cast<int>(state.range(0)), 6, 0.8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(local::run_sync(g, algo::greedy_program_factory(), {8}));
  }
  state.SetItemsProcessed(state.iterations() * g.node_count());
}
BENCHMARK(BM_GreedyMessagePassing)->Arg(256)->Arg(1024)->Arg(4096);

void BM_GreedyFlatEngine(benchmark::State& state) {
  Rng rng(3);
  const graph::EdgeColouredGraph g =
      graph::random_coloured_graph(static_cast<int>(state.range(0)), 6, 0.8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(local::run_flat(g, algo::greedy_program_factory(), {8}));
  }
  state.SetItemsProcessed(state.iterations() * g.node_count());
}
BENCHMARK(BM_GreedyFlatEngine)->Arg(256)->Arg(1024)->Arg(4096);

void BM_GreedyViewBased(benchmark::State& state) {
  Rng rng(4);
  const int k = 6;
  const graph::EdgeColouredGraph g =
      graph::random_coloured_graph(static_cast<int>(state.range(0)), k, 0.8, rng);
  const algo::GreedyLocal algo_obj(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(local::run_views(g, algo_obj));
  }
  state.SetItemsProcessed(state.iterations() * g.node_count());
}
BENCHMARK(BM_GreedyViewBased)->Arg(256)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_experiment("e1", argc, argv, print_rows);
}
