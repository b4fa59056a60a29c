#include "algo/bipartite_matching.hpp"

#include <algorithm>
#include <stdexcept>

namespace dmm::algo {

BipartiteMatchingResult bipartite_proposal_matching(const graph::EdgeColouredGraph& g,
                                                    const std::vector<bool>& white) {
  if (static_cast<int>(white.size()) != g.node_count()) {
    throw std::invalid_argument("bipartite_proposal_matching: side vector size mismatch");
  }
  for (const graph::Edge& e : g.edges()) {
    if (white[static_cast<std::size_t>(e.u)] == white[static_cast<std::size_t>(e.v)]) {
      throw std::invalid_argument("bipartite_proposal_matching: edge within one side");
    }
  }

  BipartiteMatchingResult result;
  result.outputs.assign(static_cast<std::size_t>(g.node_count()), local::kUnmatched);
  // Per white node: the list of incident colours still to propose along,
  // in increasing colour order (anonymous: colours are local knowledge).
  std::vector<std::vector<gk::Colour>> pending(static_cast<std::size_t>(g.node_count()));
  int live_whites = 0;
  for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
    if (white[static_cast<std::size_t>(v)]) {
      pending[static_cast<std::size_t>(v)] = g.incident_colours(v);
      if (!pending[static_cast<std::size_t>(v)].empty()) ++live_whites;
    }
  }

  while (live_whites > 0) {
    ++result.rounds;  // proposal round
    // Phase 1: every live white proposes along its next colour.
    struct Proposal {
      graph::NodeIndex white_node;
      gk::Colour colour;
    };
    std::vector<std::vector<Proposal>> inbox(static_cast<std::size_t>(g.node_count()));
    for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
      if (!white[static_cast<std::size_t>(v)]) continue;
      if (result.outputs[static_cast<std::size_t>(v)] != local::kUnmatched) continue;
      auto& queue = pending[static_cast<std::size_t>(v)];
      if (queue.empty()) continue;
      const gk::Colour c = queue.front();
      queue.erase(queue.begin());
      inbox[static_cast<std::size_t>(*g.neighbour(v, c))].push_back({v, c});
    }
    ++result.rounds;  // accept round
    // Phase 2: unmatched black nodes accept the smallest-coloured proposal.
    for (graph::NodeIndex b = 0; b < g.node_count(); ++b) {
      if (white[static_cast<std::size_t>(b)]) continue;
      if (result.outputs[static_cast<std::size_t>(b)] != local::kUnmatched) continue;
      auto& proposals = inbox[static_cast<std::size_t>(b)];
      if (proposals.empty()) continue;
      const auto best = std::min_element(
          proposals.begin(), proposals.end(),
          [](const Proposal& x, const Proposal& y) { return x.colour < y.colour; });
      result.outputs[static_cast<std::size_t>(b)] = best->colour;
      result.outputs[static_cast<std::size_t>(best->white_node)] = best->colour;
    }
    // Book-keeping: count whites still in play.
    live_whites = 0;
    for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
      if (white[static_cast<std::size_t>(v)] &&
          result.outputs[static_cast<std::size_t>(v)] == local::kUnmatched &&
          !pending[static_cast<std::size_t>(v)].empty()) {
        ++live_whites;
      }
    }
  }
  return result;
}

graph::EdgeColouredGraph random_bipartite(int n_left, int n_right, int k, double density,
                                          Rng& rng) {
  graph::EdgeColouredGraph g(n_left + n_right, k);
  // Each colour class: a random partial matching between the two sides.
  std::vector<graph::NodeIndex> left(static_cast<std::size_t>(n_left));
  std::vector<graph::NodeIndex> right(static_cast<std::size_t>(n_right));
  for (int i = 0; i < n_left; ++i) left[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < n_right; ++i) right[static_cast<std::size_t>(i)] = n_left + i;
  for (int c = 1; c <= k; ++c) {
    std::shuffle(left.begin(), left.end(), rng.engine());
    std::shuffle(right.begin(), right.end(), rng.engine());
    const int pairs = std::min(n_left, n_right);
    for (int i = 0; i < pairs; ++i) {
      const graph::NodeIndex u = left[static_cast<std::size_t>(i)];
      const graph::NodeIndex v = right[static_cast<std::size_t>(i)];
      if (rng.chance(density) && !g.has_edge(u, v)) g.add_edge(u, v, c);
    }
  }
  return g;
}

}  // namespace dmm::algo
