// E16 — contrast: the k-1 lower bound is about *deterministic* anonymous
// algorithms.  A Luby-style randomized matcher ignores colours entirely
// and finishes in O(log m) rounds regardless of k; side by side with
// greedy on the worst-case chain the scope of Theorem 2 is visible.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

void print_rows() {
  std::printf("## E16: deterministic greedy vs randomized matching (rounds)\n");
  std::printf("%6s %14s %18s %18s\n", "k", "greedy (=k-1)", "randomized (mean)",
              "randomized (max)");
  Rng rng(2027);
  for (int k : {8, 16, 32, 64, 128, 200}) {
    const graph::EdgeColouredGraph g = graph::worst_case_chain(k).long_path;
    const local::RunResult det = local::run_sync(g, algo::greedy_program_factory(), {k + 1});
    int total = 0, worst = 0;
    const int reps = 20;
    for (int rep = 0; rep < reps; ++rep) {
      const algo::RandomizedMatchingResult r = algo::randomized_matching(g, rng);
      total += r.rounds;
      worst = std::max(worst, r.rounds);
    }
    std::printf("%6d %14d %18.1f %18d\n", k, det.rounds,
                static_cast<double>(total) / reps, worst);
  }
  std::printf("\n(the deterministic lower bound k-1 grows linearly; the randomized\n"
              " baseline stays logarithmic — Theorem 2 is specifically about\n"
              " deterministic anonymous algorithms)\n\n");
}

void BM_RandomizedMatching(benchmark::State& state) {
  Rng rng(2029);
  const graph::EdgeColouredGraph g =
      graph::random_coloured_graph(static_cast<int>(state.range(0)), 6, 0.8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::randomized_matching(g, rng));
  }
}
BENCHMARK(BM_RandomizedMatching)->Arg(64)->Arg(128);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_table_experiment("e16", argc, argv, print_rows);
}
