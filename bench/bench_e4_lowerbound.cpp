// E4 — Theorems 2/5: the executable adversary.
//
// Row 1 block: against the correct greedy algorithm the adversary produces
// the tight pair (U[d] = V[d], outputs differ at e) — the constructive
// k-1 lower bound.  Row 2 block: every truncated greedy with r < k-1 is
// refuted with a re-checkable certificate.  Timings measure the whole
// construction.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

void record_run(benchjson::Harness& harness, const std::string& label, int k,
                const lower::LowerBoundResult& result, double wall_ns) {
  benchjson::Record record;
  record.instance = label;
  record.k = k;
  record.metrics["wall_ns"] = wall_ns;
  record.metrics["evaluations"] = static_cast<double>(result.stats.evaluations);
  record.metrics["memo_hits"] = static_cast<double>(result.stats.memo_hits);
  harness.add(std::move(record));
}

void print_rows(benchjson::Harness& harness) {
  std::printf("## E4: the Theorem 5 adversary\n");
  std::printf("%-30s %3s %3s %-10s %10s %10s %10s %12s\n", "algorithm", "k", "r", "outcome",
              "views", "memo", "max|X|", "U[d]=V[d]");
  // k = 6 is the current practical frontier (hours, ~10^7-node templates);
  // the table stops at k = 5, which the optimistic schedule solves in
  // milliseconds.
  for (int k = 3; k <= 5; ++k) {
    const algo::GreedyLocal greedy(k);
    // k <= 4 runs under the conservative budget; k >= 5 needs the
    // optimistic scan-cap schedule (same outcomes, far smaller trees).
    const lower::AdversaryOptions options{
        .memoise = true, .optimistic = k >= 5, .max_template_nodes = 2e7};
    lower::LowerBoundResult result;
    const double wall_ns = benchjson::Harness::time_ns(
        [&] { result = lower::run_adversary(k, greedy, options); });
    const auto* tp = std::get_if<lower::TightPair>(&result.outcome);
    std::printf("%-30s %3d %3d %-10s %10llu %10llu %10d %12s\n", greedy.name().c_str(), k,
                greedy.running_time(), result.tight() ? "tight" : "other",
                static_cast<unsigned long long>(result.stats.evaluations),
                static_cast<unsigned long long>(result.stats.memo_hits),
                result.stats.max_template_nodes,
                tp && colsys::ColourSystem::equal_to_radius(tp->u.tree(), tp->v.tree(), tp->d)
                    ? "yes"
                    : "-");
    record_run(harness, "adversary vs " + greedy.name(), k, result, wall_ns);
  }
  for (int k = 3; k <= 4; ++k) {
    for (int r = 0; r < k - 1; ++r) {
      const algo::TruncatedGreedy fast(k, r);
      lower::LowerBoundResult result;
      const double wall_ns =
          benchjson::Harness::time_ns([&] { result = lower::run_adversary(k, fast); });
      std::printf("%-30s %3d %3d %-10s %10llu %10llu %10d %12s\n", fast.name().c_str(), k, r,
                  result.refuted() ? "refuted" : "other",
                  static_cast<unsigned long long>(result.stats.evaluations),
                  static_cast<unsigned long long>(result.stats.memo_hits),
                  result.stats.max_template_nodes, "-");
      record_run(harness, "adversary vs " + fast.name(), k, result, wall_ns);
    }
  }
  {
    // k = 5 is feasible against 0-round algorithms (the depth budget stays
    // at 10 on 4-regular trees); the full greedy at k = 5 would need
    // ~10^13-node trees — that cliff is the h^depth growth, reported here.
    const algo::TruncatedGreedy fast(5, 0);
    lower::LowerBoundResult result;
    const double wall_ns =
        benchjson::Harness::time_ns([&] { result = lower::run_adversary(5, fast); });
    std::printf("%-30s %3d %3d %-10s %10llu %10llu %10d %12s\n", fast.name().c_str(), 5, 0,
                result.refuted() ? "refuted" : "other",
                static_cast<unsigned long long>(result.stats.evaluations),
                static_cast<unsigned long long>(result.stats.memo_hits),
                result.stats.max_template_nodes, "-");
    record_run(harness, "adversary vs " + fast.name(), 5, result, wall_ns);
  }
  std::printf("\n");
}

void BM_AdversaryVsGreedy(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const algo::GreedyLocal greedy(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lower::run_adversary(k, greedy));
  }
}
BENCHMARK(BM_AdversaryVsGreedy)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_AdversaryVsTruncated(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const algo::TruncatedGreedy fast(k, k - 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lower::run_adversary(k, fast));
  }
}
BENCHMARK(BM_AdversaryVsTruncated)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_experiment("e4", argc, argv, print_rows);
}
