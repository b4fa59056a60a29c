// E17 — Remark 2 / Linial's neighbourhood-graph technique: sizes of the
// view catalogues, and the satisfiability frontier — UNSAT below rho = k,
// SAT at rho = k — obtained by exhaustive labelling search.
//
// Since the canonical-form rewrite (interned enumeration, id-bucketed
// pairs, bitset CSP with arc consistency) the full table through
// k = 4, rho = 3 (78 732 views, ~9.6M constraints) runs in ~1 s where the
// seed pipeline took ~20 s, and the k = 5, rho = 2 row is part of the
// standard table.  Every row runs twice: on the raw catalogue, then on the
// colour-permutation orbit pipeline (one materialised representative per
// orbit, pair index lifted through permutation witnesses, identical
// verdicts).  The census row reports the k = 5, rho = 3 catalogue —
// ~2.1e10 views, ~1.8e8 orbits — by pure Burnside arithmetic; its *reps*
// are reachable by the orderly generator (the nightly --scale smoke streams
// them under a wall budget).  Each row is recorded in BENCH_e17.json with
// its pipeline metrics (views, pairs, csp_nodes, class_walks; orbits,
// orbit_reduction, reps_generated on orbit rows) and the wall time of each
// phase (enumerate_ms with the catalogue's pair index, pairs_ms for the
// list alone, solve_ms for the list check and the search; wall_ns also
// covers releasing the catalogue and the pair list).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

struct Row {
  int k, d, rho;
};

/// Milliseconds from `since` to now; `since` then moves to now, so
/// successive calls time successive phases.
double lap_ms(std::chrono::steady_clock::time_point& since) {
  const auto now = std::chrono::steady_clock::now();
  const double ms = std::chrono::duration<double, std::milli>(now - since).count();
  since = now;
  return ms;
}

// One table row: the (k, d, rho) catalogue enumerated, paired and solved,
// raw or from its orbit representatives.
void print_row(benchjson::Harness& harness, const Row& row, int threads, bool orbits) {
  benchjson::Record record;
  record.instance = std::string("views k=") + std::to_string(row.k) +
                    " d=" + std::to_string(row.d) + " rho=" + std::to_string(row.rho) +
                    (orbits ? " orbits" : "");
  record.k = row.k;
  record.threads = threads;
  auto& metric = record.metrics;
  metric["rounds"] = row.rho - 1;  // an rho-catalogue decides (rho-1)-round algorithms
  long long views = 0, orbit_count = 0;
  std::size_t pair_count = 0;
  nbhd::CspResult result;
  if (orbits) {
    nbhd::OrbitGenStats gen;
    metric["wall_ns"] = benchjson::Harness::time_ns([&] {
      auto since = std::chrono::steady_clock::now();
      const nbhd::OrbitCatalogue cat =
          nbhd::enumerate_orbits(row.k, row.d, row.rho, 2'000'000, &gen);
      metric["enumerate_ms"] = lap_ms(since);
      const auto pairs = nbhd::compatible_pairs(cat);
      metric["pairs_ms"] = lap_ms(since);
      result = nbhd::solve(cat, pairs, {.threads = threads});
      metric["solve_ms"] = lap_ms(since);
      views = cat.view_count();
      orbit_count = cat.orbit_count();
      pair_count = pairs.size();
    });
    metric["orbits"] = static_cast<double>(orbit_count);
    metric["orbit_reduction"] = static_cast<double>(views) / static_cast<double>(orbit_count);
    metric["reps_generated"] = static_cast<double>(gen.reps_generated);
  } else {
    metric["wall_ns"] = benchjson::Harness::time_ns([&] {
      auto since = std::chrono::steady_clock::now();
      const nbhd::ViewCatalogue cat = nbhd::enumerate_views(row.k, row.d, row.rho);
      metric["enumerate_ms"] = lap_ms(since);
      const auto pairs = nbhd::compatible_pairs(cat);
      metric["pairs_ms"] = lap_ms(since);
      result = nbhd::solve(cat, pairs, {.threads = threads});
      metric["solve_ms"] = lap_ms(since);
      views = cat.size();
      pair_count = pairs.size();
    });
  }
  metric["views"] = static_cast<double>(views);
  metric["pairs"] = static_cast<double>(pair_count);
  metric["csp_nodes"] = static_cast<double>(result.nodes_explored);
  metric["class_walks"] = static_cast<double>(result.class_walks);
  std::printf("%4d %4d %5d %11lld %9lld %10zu %12s %14llu %10.1f\n", row.k, row.d, row.rho,
              views, orbit_count, pair_count, result.satisfiable ? "SAT" : "UNSAT",
              static_cast<unsigned long long>(result.nodes_explored), metric["wall_ns"] / 1e6);
  harness.add(std::move(record));
}

void print_rows(benchjson::Harness& harness, int threads) {
  const Row rows[] = {{3, 2, 1}, {3, 2, 2}, {3, 2, 3}, {4, 3, 1},
                      {4, 3, 2}, {4, 3, 3}, {5, 4, 2}};
  for (const bool orbits : {false, true}) {
    std::printf("## E17: r-round algorithms as labellings of the (r+1)-view catalogue%s\n",
                orbits ? " (orbit-reduced)" : "");
    std::printf("%4s %4s %5s %11s %9s %10s %12s %14s %10s\n", "k", "d", "rho", "views",
                "orbits", "pairs", "satisfiable", "search nodes", "wall ms");
    for (const Row& row : rows) print_row(harness, row, threads, orbits);
    std::printf("\n");
  }
  // The k = 5, rho = 3 orbit census: materialisation throws the max_views
  // guard (~2.1e10 views), the Burnside count is arithmetic.  This is the
  // row the colour-symmetry quotient opens.
  {
    benchjson::Record record;
    record.instance = "orbit census k=5 d=4 rho=3";
    record.k = 5;
    record.threads = threads;
    auto& metric = record.metrics;
    metric["rounds"] = 2;
    nbhd::OrbitCensus census;
    metric["wall_ns"] =
        benchjson::Harness::time_ns([&] { census = nbhd::orbit_census(5, 4, 3); });
    metric["views"] = census.views;
    metric["orbits"] = census.orbits;
    metric["orbit_reduction"] = census.views / census.orbits;
    std::printf("orbit census k=5 d=4 rho=3: %.0f views in %.0f orbits, %.1f ms (census only)\n",
                census.views, census.orbits, metric["wall_ns"] / 1e6);
    harness.add(std::move(record));
  }
  std::printf("\n(UNSAT at rho <= k-1 is the *universal* form of Theorem 5: no (rho-1)-round\n"
              " algorithm exists at all; SAT at rho = k matches Lemma 1 — greedy's own\n"
              " labelling is a solution.  Orbit rows decide the same CSP from a ~k!-fold\n"
              " smaller materialised catalogue; the census row needs no catalogue at all)\n\n");
}

// Nightly (`--scale`) orderly-generation smoke: stream canonical reps of
// the k = 5, rho = 3 catalogue — past the raw-view guard that used to cap
// this instance at its census — under a wall-time budget
// (DMM_ORDERLY_BUDGET_MS, default 2 minutes; the full 1.79e8-rep walk is
// a ~45-minute single-core run, so the budget row normally stops early).
// If the budget does cover the whole walk, the closed-form member count
// must land exactly on the 21 474 836 480 raw views.
void print_orderly_scale_row(benchjson::Harness& harness, long long budget_ms) {
  benchjson::Record record;
  record.instance = "orderly reps k=5 d=4 rho=3";
  record.k = 5;
  auto& metric = record.metrics;
  metric["rounds"] = 2;
  nbhd::OrbitGenStats gen;
  metric["wall_ns"] = benchjson::Harness::time_ns([&] {
    const auto start = std::chrono::steady_clock::now();
    long long seen = 0;
    gen = nbhd::orderly_orbit_reps(5, 4, 3, [&](nbhd::OrderlyRep&&) {
      if ((++seen & 0xffff) != 0) return true;  // clock check every 2^16 reps
      return std::chrono::steady_clock::now() - start < std::chrono::milliseconds(budget_ms);
    });
  });
  if (gen.complete && gen.member_views != 21'474'836'480.0) {
    throw std::logic_error("e17 orderly scale row: member count disagrees with the census");
  }
  metric["views"] = gen.member_views;
  metric["orbits"] = static_cast<double>(gen.reps_generated);
  metric["orbit_reduction"] = gen.member_views / static_cast<double>(gen.reps_generated);
  metric["reps_generated"] = static_cast<double>(gen.reps_generated);
  std::printf("orderly scale smoke: k=5 d=4 rho=3 — %lld reps covering %.0f raw views in "
              "%.1f ms (%s)\n\n",
              static_cast<long long>(gen.reps_generated), gen.member_views,
              metric["wall_ns"] / 1e6, gen.complete ? "complete" : "budget stop");
  harness.add(std::move(record));
}

void BM_EnumerateViews(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbhd::enumerate_views(3, 2, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_EnumerateViews)->Arg(2)->Arg(3)->Arg(4);

void BM_EnumerateOrbits(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbhd::enumerate_orbits(3, 2, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_EnumerateOrbits)->Arg(2)->Arg(3)->Arg(4);

void BM_OrbitCensusK5Rho3(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbhd::orbit_census(5, 4, 3));
  }
}
BENCHMARK(BM_OrbitCensusK5Rho3);

void BM_CompatiblePairsK4Rho3(benchmark::State& state) {
  const nbhd::ViewCatalogue cat = nbhd::enumerate_views(4, 3, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbhd::compatible_pairs(cat));
  }
}
BENCHMARK(BM_CompatiblePairsK4Rho3)->Unit(benchmark::kMillisecond);

void BM_OrbitPairsK4Rho3(benchmark::State& state) {
  const nbhd::OrbitCatalogue cat = nbhd::enumerate_orbits(4, 3, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbhd::compatible_pairs(cat));
  }
}
BENCHMARK(BM_OrbitPairsK4Rho3)->Unit(benchmark::kMillisecond);

void BM_SolveCspK3(benchmark::State& state) {
  const nbhd::ViewCatalogue cat = nbhd::enumerate_views(3, 2, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbhd::solve(cat));
  }
}
BENCHMARK(BM_SolveCspK3)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_SolveCspK4Rho2(benchmark::State& state) {
  const nbhd::ViewCatalogue cat = nbhd::enumerate_views(4, 3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbhd::solve(cat));
  }
}
BENCHMARK(BM_SolveCspK4Rho2)->Unit(benchmark::kMillisecond);

void BM_SolveCspK5Rho2(benchmark::State& state) {
  const nbhd::ViewCatalogue cat = nbhd::enumerate_views(5, 4, 2);
  const auto pairs = nbhd::compatible_pairs(cat);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbhd::solve(cat, pairs));
  }
}
BENCHMARK(BM_SolveCspK5Rho2)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  dmm::util::Flags flags(dmm::benchjson::usage_line(argv[0], "[--threads N>=1]") +
                         "; DMM_ORDERLY_BUDGET_MS, if set, is a whole number >= 1");
  flags.number("--threads", threads, 1);
  const char* budget = std::getenv("DMM_ORDERLY_BUDGET_MS");
  const std::optional<long long> budget_ms =
      dmm::util::parse_number<long long>(budget ? budget : "120000", 1);
  if (!budget_ms) {
    std::fprintf(stderr, "%s: bad DMM_ORDERLY_BUDGET_MS\n%s\n", argv[0], flags.usage().c_str());
    return 2;
  }
  return dmm::benchjson::run_experiment(
      "e17", argc, argv, std::move(flags), [&](dmm::benchjson::Harness& harness) {
        print_rows(harness, threads);
        if (harness.scale()) print_orderly_scale_row(harness, *budget_ms);
      });
}
