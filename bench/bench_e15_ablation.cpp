// E15 — ablations of the adversary's design choices (DESIGN.md §3):
//
//  (a) view memoisation on/off: identical outcomes, wildly different
//      algorithm-invocation counts (Corollary 2 means most views repeat);
//  (b) depth budget: the conservative required_radius formula vs what the
//      construction actually used (|y| is usually 1, the formula assumes
//      r+2) — measured as materialised tree sizes.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

void print_rows() {
  std::printf("## E15a: memoisation ablation (outcome must not change)\n");
  std::printf("%-24s %3s %10s %12s %12s %10s\n", "algorithm", "k", "memo", "invocations",
              "memo hits", "outcome");
  for (int k = 3; k <= 4; ++k) {
    const algo::GreedyLocal greedy(k);
    for (bool memo : {true, false}) {
      const lower::LowerBoundResult result =
          lower::run_adversary(k, greedy, {.memoise = memo});
      std::printf("%-24s %3d %10s %12llu %12llu %10s\n", greedy.name().c_str(), k,
                  memo ? "on" : "off",
                  static_cast<unsigned long long>(result.stats.evaluations),
                  static_cast<unsigned long long>(result.stats.memo_hits),
                  result.tight() ? "tight" : "other");
    }
  }

  std::printf("\n## E15b: depth actually consumed vs budgeted (|y| per step)\n");
  std::printf("%-24s %3s %6s %14s %16s\n", "algorithm", "k", "step", "|y| (used)",
              "budget (r+2)");
  for (int k = 3; k <= 4; ++k) {
    const algo::GreedyLocal greedy(k);
    const lower::LowerBoundResult result = lower::run_adversary(k, greedy);
    for (const auto& step : result.stats.steps) {
      std::printf("%-24s %3d %6d %14d %16d\n", greedy.name().c_str(), k, step.h,
                  step.y_found ? step.y.norm() : -1, greedy.running_time() + 2);
    }
  }
  std::printf("\n");
}

void BM_AdversaryMemoised(benchmark::State& state) {
  const algo::GreedyLocal greedy(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lower::run_adversary(static_cast<int>(state.range(0)), greedy, {.memoise = true}));
  }
}
BENCHMARK(BM_AdversaryMemoised)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_AdversaryUnmemoised(benchmark::State& state) {
  const algo::GreedyLocal greedy(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lower::run_adversary(static_cast<int>(state.range(0)), greedy, {.memoise = false}));
  }
}
BENCHMARK(BM_AdversaryUnmemoised)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_table_experiment("e15", argc, argv, print_rows);
}
