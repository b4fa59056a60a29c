// E13 — the §1.1 landscape: 2-coloured matching in <= 1 round,
// Cole-Vishkin's log* behaviour, maximal edge packing in O(Δ) rounds and
// the derived 2-approximate vertex cover.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;

void print_rows() {
  std::printf("## E13: the Section 1.1 landscape\n");

  std::printf("\n2-coloured maximal matching (k = 2 => <= 1 round):\n");
  std::printf("%8s %8s %8s %8s\n", "n", "edges", "rounds", "valid");
  Rng rng(19);
  for (int n : {16, 64, 256}) {
    const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, 2, 0.9, rng);
    const algo::TwoColourResult r = algo::two_colour_matching(g);
    std::printf("%8d %8d %8d %8s\n", n, g.edge_count(), r.rounds,
                verify::check_outputs(g, r.outputs).ok() ? "yes" : "NO");
  }

  std::printf("\nCole-Vishkin on directed cycles (rounds ~ log* of id width):\n");
  std::printf("%12s %10s %10s %10s\n", "id width", "halving", "finish", "proper");
  for (std::uint64_t width : {8ull, 16ull, 32ull, 48ull, 60ull}) {
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < 128; ++i) ids.push_back((i * 2654435761ull) % (1ull << width));
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::shuffle(ids.begin(), ids.end(), rng.engine());
    const algo::CvResult cv = algo::cv_three_colour_cycle(ids);
    std::printf("%10llub %10d %10d %10s\n", static_cast<unsigned long long>(width),
                cv.cv_rounds, cv.finish_rounds,
                algo::is_proper_cycle_colouring(cv.colours) ? "yes" : "NO");
  }

  std::printf("\nbipartite proposal matching [6] (O(Delta) rounds, independent of k):\n");
  std::printf("%8s %8s %8s %8s %8s\n", "n", "k", "Delta", "rounds", "valid");
  for (int k : {4, 8, 16}) {
    const graph::EdgeColouredGraph g = algo::random_bipartite(20, 20, k, 0.8, rng);
    std::vector<bool> white(static_cast<std::size_t>(g.node_count()), false);
    for (int i = 0; i < 20; ++i) white[static_cast<std::size_t>(i)] = true;
    const algo::BipartiteMatchingResult r = algo::bipartite_proposal_matching(g, white);
    std::printf("%8d %8d %8d %8d %8s\n", g.node_count(), k, g.max_degree(), r.rounds,
                verify::check_outputs(g, r.outputs).ok() ? "yes" : "NO");
  }

  std::printf("\nmaximal edge packing -> 2-approx vertex cover (rounds vs Delta):\n");
  std::printf("%8s %8s %8s %10s %10s\n", "n", "Delta", "rounds", "cover", "2*weight");
  for (int k : {2, 3, 4, 5}) {
    const graph::EdgeColouredGraph g = graph::random_coloured_graph(24, k, 0.9, rng);
    const algo::EdgePackingResult packing = algo::maximal_edge_packing(g);
    const auto cover = algo::vertex_cover_from_packing(g, packing);
    std::printf("%8d %8d %8d %10zu %10.2f\n", g.node_count(), g.max_degree(), packing.rounds,
                cover.size(), 2.0 * packing.total_weight.to_double());
  }
  std::printf("\n");
}

void BM_TwoColourMatching(benchmark::State& state) {
  Rng rng(23);
  const graph::EdgeColouredGraph g =
      graph::random_coloured_graph(static_cast<int>(state.range(0)), 2, 0.9, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::two_colour_matching(g));
  }
}
BENCHMARK(BM_TwoColourMatching)->Arg(256)->Arg(1024);

void BM_ColeVishkin(benchmark::State& state) {
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
    ids.push_back(i * 2654435761ull % (1ull << 48));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::cv_three_colour_cycle(ids));
  }
}
BENCHMARK(BM_ColeVishkin)->Arg(128)->Arg(1024);

void BM_EdgePacking(benchmark::State& state) {
  Rng rng(29);
  const graph::EdgeColouredGraph g =
      graph::random_coloured_graph(static_cast<int>(state.range(0)), 4, 0.8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::maximal_edge_packing(g));
  }
}
BENCHMARK(BM_EdgePacking)->Arg(16)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_table_experiment("e13", argc, argv, print_rows);
}
