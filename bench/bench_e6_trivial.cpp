// E6 — §1.3's trivial case d = k: colour class 1 is a perfect matching and
// a 0-round algorithm solves the problem.  Prints rows for hypercubes and
// complete bipartite instances; times the constant-round solve vs greedy.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

void print_rows() {
  std::printf("## E6: the trivial case d = k (§1.3)\n");
  std::printf("%-26s %4s %8s %14s %12s\n", "instance", "d=k", "nodes", "0-round valid",
              "greedy rounds");
  for (int d = 2; d <= 9; ++d) {
    const graph::EdgeColouredGraph g = graph::hypercube(d);
    const algo::FirstColourLocal naive(d);
    const bool ok = verify::check_outputs(g, local::run_views(g, naive)).ok();
    const local::RunResult greedy = local::run_sync(g, algo::greedy_program_factory(), {d + 1});
    std::printf("hypercube Q_%-13d %4d %8d %14s %12d\n", d, d, g.node_count(),
                ok ? "yes" : "NO", greedy.rounds);
  }
  for (int d = 2; d <= 9; ++d) {
    const graph::EdgeColouredGraph g = graph::complete_bipartite(d);
    const algo::FirstColourLocal naive(d);
    const bool ok = verify::check_outputs(g, local::run_views(g, naive)).ok();
    const local::RunResult greedy = local::run_sync(g, algo::greedy_program_factory(), {d + 1});
    std::printf("K_{%d,%d}%*s %4d %8d %14s %12d\n", d, d, d >= 10 ? 15 : 17, "", d,
                g.node_count(), ok ? "yes" : "NO", greedy.rounds);
  }
  std::printf("\n(d = k-1, by contrast, forces k-1 rounds: see E2/E4)\n\n");
}

void BM_TrivialCaseHypercube(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const graph::EdgeColouredGraph g = graph::hypercube(d);
  const algo::FirstColourLocal naive(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(local::run_views(g, naive));
  }
  state.counters["nodes"] = g.node_count();
}
BENCHMARK(BM_TrivialCaseHypercube)->Arg(6)->Arg(10)->Arg(14);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_table_experiment("e6", argc, argv, print_rows);
}
