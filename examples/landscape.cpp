// The §1.1/§1.3 algorithmic landscape on one screen: greedy vs
// reduction-based matching as k grows (the Θ(Δ + log* k) shape), the
// trivial d = k case, Cole-Vishkin's log*, and maximal edge packing.
//
//   $ ./examples/landscape
#include <iomanip>
#include <iostream>

#include "core/dmm.hpp"

int main() {
  using namespace dmm;

  std::cout << "== greedy (k-1 rounds) vs reduction+greedy (O(Delta^2 + log* k)) on paths ==\n";
  std::cout << std::setw(6) << "k" << std::setw(14) << "greedy" << std::setw(14) << "reduced"
            << std::setw(10) << "log* k" << "\n";
  for (int k : {4, 8, 16, 32, 64, 128, 200}) {
    std::vector<gk::Colour> colours;
    for (int c = 1; c <= k; ++c) colours.push_back(static_cast<gk::Colour>(c));
    const graph::EdgeColouredGraph g = graph::path_graph(k, colours);
    const local::RunResult greedy_run = local::run_sync(g, algo::greedy_program_factory(), {k + 1});
    const algo::ReducedMatchingResult reduced = algo::reduced_matching(g);
    std::cout << std::setw(6) << k << std::setw(14) << greedy_run.rounds << std::setw(14)
              << reduced.total_rounds << std::setw(10) << log_star(static_cast<std::uint64_t>(k))
              << "\n";
  }

  std::cout << "\n== the trivial case d = k (§1.3): hypercubes ==\n";
  for (int d = 2; d <= 6; ++d) {
    const graph::EdgeColouredGraph g = graph::hypercube(d);
    const local::RunResult run = local::run_sync(g, algo::greedy_program_factory(), {d + 1});
    std::cout << "  Q_" << d << " (" << g.node_count() << " nodes, " << d
              << "-regular, k=d): " << run.rounds << " rounds — colour 1 is a perfect matching\n";
  }

  std::cout << "\n== Cole-Vishkin 3-colouring of a directed cycle (log* engine) ==\n";
  Rng rng(7);
  for (std::uint64_t width : {16ull, 32ull, 48ull}) {
    std::vector<std::uint64_t> ids(257);
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = (i * 2654435761ull) % (1ull << width);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::shuffle(ids.begin(), ids.end(), rng.engine());
    const algo::CvResult cv = algo::cv_three_colour_cycle(ids);
    std::cout << "  id width 2^" << width << ": " << cv.cv_rounds << " halving + "
              << cv.finish_rounds << " finish rounds -> proper "
              << (algo::is_proper_cycle_colouring(cv.colours) ? "yes" : "NO") << "\n";
  }

  std::cout << "\n== maximal edge packing + 2-approx vertex cover (§1.1) ==\n";
  const graph::EdgeColouredGraph g = graph::figure1_graph();
  const algo::EdgePackingResult packing = algo::maximal_edge_packing(g);
  const auto cover = algo::vertex_cover_from_packing(g, packing);
  std::cout << "  figure-1 graph: packing weight " << packing.total_weight.str() << " in "
            << packing.rounds << " rounds; saturated cover of " << cover.size() << "/"
            << g.node_count() << " nodes (valid 2-approximation)\n";
  return 0;
}
