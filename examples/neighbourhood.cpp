// Remark 2, hands on: enumerate the view catalogue, display the
// neighbourhood graph, and watch the labelling CSP separate "impossible"
// from "greedy does it".
//
//   $ ./examples/neighbourhood [k]
#include <cstdlib>
#include <iostream>

#include "core/dmm.hpp"

int main(int argc, char** argv) {
  using namespace dmm;

  const int k = argc > 1 ? std::atoi(argv[1]) : 3;
  const int d = k - 1;
  if (k < 3 || k > 4) {
    std::cerr << "k must be 3 or 4 (catalogue sizes explode beyond that)\n";
    return 1;
  }

  std::cout << "== the (r+1)-view catalogues for d = k-1 = " << d << "-regular " << k
            << "-colour systems ==\n\n";
  const int max_rho = k == 3 ? 3 : 2;
  for (int rho = 1; rho <= max_rho; ++rho) {
    const nbhd::ViewCatalogue cat = nbhd::enumerate_views(k, d, rho);
    const auto pairs = nbhd::compatible_pairs(cat);
    const nbhd::CspResult result = nbhd::solve(cat);
    std::cout << "rho = " << rho << " (algorithms with r = " << rho - 1 << " rounds): "
              << cat.size() << " views, " << pairs.size() << " compatible pairs -> "
              << (result.satisfiable ? "labelling EXISTS" : "NO labelling (no such algorithm)")
              << "\n";
    if (rho == 1) {
      std::cout << "  the views are the root colour sets:\n";
      for (int v = 0; v < cat.size(); ++v) {
        std::cout << "    view " << v << ": { ";
        for (gk::Colour c : cat.view(v).colours_at(0)) {
          std::cout << static_cast<int>(c) << " ";
        }
        std::cout << "}\n";
      }
    }
  }

  if (k == 3) {
    std::cout << "\n== rho = k = 3: greedy's own labelling solves the CSP ==\n";
    const nbhd::ViewCatalogue cat = nbhd::enumerate_views(3, 2, 3);
    const algo::GreedyLocal greedy(3);
    const auto labelling = nbhd::induced_labelling(cat, greedy);
    const auto violation = nbhd::check_labelling(cat, labelling);
    std::cout << (violation ? "violated (bug!)" : "all (M1)(M2)(M3) constraints satisfied")
              << " across " << cat.size() << " views\n";
    int matched = 0;
    for (gk::Colour c : labelling) {
      if (c != gk::kNoColour) ++matched;
    }
    std::cout << matched << "/" << cat.size() << " views matched, " << cat.size() - matched
              << " answer bottom\n";
  }

  std::cout << "\nThe UNSAT rows are Theorem 5 in universal form — not 'this algorithm\n"
               "fails' but 'no labelling of what r rounds can see is consistent'.\n";
  return 0;
}
