// Quickstart: build a properly edge-coloured graph, run the greedy maximal
// matching algorithm (Lemma 1) through the message-passing engine, verify
// the output against the paper's (M1)(M2)(M3) conditions.
//
//   $ ./examples/quickstart [seed]
#include <cstdlib>
#include <iostream>

#include "core/dmm.hpp"

int main(int argc, char** argv) {
  using namespace dmm;

  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  const int n = 24, k = 4;
  Rng rng(seed);

  std::cout << "== dmm quickstart ==\n";
  std::cout << "random properly " << k << "-edge-coloured graph on " << n
            << " nodes (seed " << seed << ")\n\n";

  const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, k, 0.8, rng);
  std::cout << g.str() << "\n";

  // Run greedy as a real distributed protocol: synchronous rounds, anonymous
  // nodes, messages along coloured edges.
  const local::RunResult run = local::run_sync(g, algo::greedy_program_factory(), {k + 1});

  std::cout << "outputs (node: colour or _ for unmatched):\n  ";
  for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
    const gk::Colour c = run.outputs[static_cast<std::size_t>(v)];
    std::cout << v << ":" << (c == local::kUnmatched ? std::string("_") : std::to_string(c))
              << " ";
  }
  std::cout << "\n\nrounds used: " << run.rounds << "  (Lemma 1 bound: k-1 = " << k - 1 << ")\n";

  const verify::MatchingReport report = verify::check_outputs(g, run.outputs);
  std::cout << "verification: " << report.describe() << "\n";
  std::cout << "matched edges: " << verify::matched_edges(g, run.outputs).size() << " of "
            << g.edge_count() << "\n";
  return report.ok() ? 0 : 1;
}
