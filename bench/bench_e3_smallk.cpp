// E3 — Lemma 4 (k <= 2): every 0-round algorithm fails on one of the three
// instances T = {e,1}, U = {e,2}, V = {e,1,2}.  Prints the refutation table
// over a family of candidate algorithms and times the Lemma 4 runner.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

void print_rows() {
  std::printf("## E3: Lemma 4 — zero-round algorithms on k = 2\n");
  std::printf("%-34s %12s %-50s\n", "algorithm", "refuted", "witness");
  std::vector<std::unique_ptr<local::LocalAlgorithm>> algorithms;
  algorithms.push_back(std::make_unique<algo::TruncatedGreedy>(2, 0));
  algorithms.push_back(std::make_unique<algo::FirstColourLocal>(2));
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    algorithms.push_back(std::make_unique<algo::ArbitraryLocal>(2, 0, seed));
  }
  for (const auto& a : algorithms) {
    const lower::Lemma4Result result = lower::run_lemma4(*a);
    std::printf("%-34s %12s %-50s\n", a->name().c_str(),
                result.contradiction_found ? "yes" : "NO (bug)",
                result.contradiction_found
                    ? result.report.violations.front().describe().c_str()
                    : "-");
  }
  // The 1-round greedy is correct; Lemma 4 has nothing to refute.
  const algo::GreedyLocal greedy(2);
  const lower::Lemma4Result ok = lower::run_lemma4(greedy);
  std::printf("%-34s %12s %-50s\n", greedy.name().c_str(),
              ok.contradiction_found ? "YES (bug)" : "no", "bound k-1 = 1 is met");
  std::printf("\n");
}

void BM_Lemma4(benchmark::State& state) {
  const algo::TruncatedGreedy fast(2, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lower::run_lemma4(fast));
  }
}
BENCHMARK(BM_Lemma4);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_table_experiment("e3", argc, argv, print_rows);
}
