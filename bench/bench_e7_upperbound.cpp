// E7 — §1.3's upper-bound shape: greedy costs k-1 rounds while the
// reduction-based matching costs O(Δ² + log* k), so for k ≫ Δ the reduction
// wins and the crossover moves with Δ.  Prints the (Δ, k) sweep.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

/// A "thick path": Δ/2 parallel paths braided to reach max degree ~delta
/// while keeping all k colours in play.  Simplest faithful family: a path
/// for delta = 2; random coloured graphs with bounded palette otherwise.
graph::EdgeColouredGraph instance_for(int delta, int k, Rng& rng) {
  if (delta <= 2) {
    std::vector<gk::Colour> colours;
    for (int c = 1; c <= k; ++c) colours.push_back(static_cast<gk::Colour>(c));
    return graph::path_graph(k, colours);
  }
  // Random graph, then verify the degree bound holds by construction:
  // each colour class adds at most 1 to a node's degree; with k classes we
  // subsample so expected degree ~ delta.
  const double density = std::min(1.0, static_cast<double>(delta) / k);
  return graph::random_coloured_graph(64, k, density, rng);
}

void print_rows() {
  std::printf("## E7: rounds of greedy (k-1) vs reduction+greedy (O(Delta^2 + log* k))\n");
  std::printf("%6s %6s %6s %14s %14s %10s %8s\n", "Delta", "k", "n", "greedy", "reduced",
              "winner", "log*k");
  Rng rng(11);
  for (int delta : {2, 4, 8}) {
    for (int k : {8, 16, 32, 64, 128}) {
      if (k < delta) continue;
      const graph::EdgeColouredGraph g = instance_for(delta, k, rng);
      const local::RunResult greedy = local::run_sync(g, algo::greedy_program_factory(), {k + 1});
      const algo::ReducedMatchingResult reduced = algo::reduced_matching(g);
      const bool reduced_ok = verify::check_outputs(g, reduced.outputs).ok();
      std::printf("%6d %6d %6d %14d %14d %10s %8d\n", g.max_degree(), k, g.node_count(),
                  greedy.rounds, reduced.total_rounds,
                  !reduced_ok        ? "INVALID"
                  : reduced.total_rounds < greedy.rounds ? "reduced"
                                                         : "greedy",
                  log_star(static_cast<std::uint64_t>(k)));
    }
  }
  std::printf("\n(shape check: 'reduced' wins once k >> Delta^2 — the paper's Θ(Δ + log* k)"
              " vs k-1 comparison)\n\n");
}

void BM_ReducedMatching(benchmark::State& state) {
  Rng rng(13);
  const int k = static_cast<int>(state.range(0));
  std::vector<gk::Colour> colours;
  for (int c = 1; c <= k; ++c) colours.push_back(static_cast<gk::Colour>(c));
  const graph::EdgeColouredGraph g = graph::path_graph(k, colours);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::reduced_matching(g));
  }
}
BENCHMARK(BM_ReducedMatching)->Arg(16)->Arg(64)->Arg(200);

void BM_LinialReductionOnly(benchmark::State& state) {
  Rng rng(17);
  const graph::EdgeColouredGraph g =
      graph::random_coloured_graph(static_cast<int>(state.range(0)), 12, 0.6, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::linial_colour_reduction(g));
  }
}
BENCHMARK(BM_LinialReductionOnly)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_table_experiment("e7", argc, argv, print_rows);
}
