// §1.2's worst case, made concrete: the two chains whose far endpoints are
// indistinguishable for k-2 rounds yet must answer differently.  Reproduces
// the figure below Lemma 1 for any k.
//
//   $ ./examples/worstcase_chain [k]
#include <cstdlib>
#include <iostream>

#include "core/dmm.hpp"

int main(int argc, char** argv) {
  using namespace dmm;

  const int k = argc > 1 ? std::atoi(argv[1]) : 4;
  if (k < 2) {
    std::cerr << "need k >= 2\n";
    return 1;
  }

  std::cout << "== the greedy worst case (paper §1.2), k = " << k << " ==\n\n";
  const graph::WorstCase wc = graph::worst_case_chain(k);

  std::cout << "long path  (colours 1.." << k << "):\n" << wc.long_path.str();
  std::cout << "short path (colours 2.." << k << "):\n" << wc.short_path.str() << "\n";

  const local::RunResult long_run =
      local::run_sync(wc.long_path, algo::greedy_program_factory(), {k + 1});
  const local::RunResult short_run =
      local::run_sync(wc.short_path, algo::greedy_program_factory(), {k + 1});

  const gk::Colour out_u = long_run.outputs[static_cast<std::size_t>(wc.u)];
  const gk::Colour out_v = short_run.outputs[static_cast<std::size_t>(wc.v)];

  std::cout << "greedy on the long path:  " << long_run.rounds << " rounds, u = node " << wc.u
            << " -> " << (out_u == local::kUnmatched ? std::string("unmatched") : "matched via " + std::to_string(out_u))
            << "\n";
  std::cout << "greedy on the short path: " << short_run.rounds << " rounds, v = node " << wc.v
            << " -> " << (out_v == local::kUnmatched ? std::string("unmatched") : "matched via " + std::to_string(out_v))
            << "\n\n";

  // Indistinguishability sweep: how many rounds until u and v can differ?
  graph::EdgeColouredGraph merged(wc.long_path.node_count() + wc.short_path.node_count(), k);
  for (const auto& e : wc.long_path.edges()) merged.add_edge(e.u, e.v, e.colour);
  const graph::NodeIndex offset = wc.long_path.node_count();
  for (const auto& e : wc.short_path.edges()) merged.add_edge(e.u + offset, e.v + offset, e.colour);

  std::cout << "rounds r | views of u and v equal after r rounds?\n";
  for (int r = 0; r <= k - 1; ++r) {
    const bool same = local::indistinguishable(merged, wc.u, wc.v + offset, r);
    std::cout << "       " << r << " | " << (same ? "equal  (no algorithm can separate them)"
                                                  : "differ (information has arrived)")
              << "\n";
  }
  std::cout << "\nu and v stay indistinguishable through round " << k - 2
            << ", yet their outputs differ:\nany faithful greedy needs >= k-1 = " << k - 1
            << " rounds.\n";
  return 0;
}
