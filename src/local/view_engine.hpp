// View-based execution: applies a LocalAlgorithm (the paper's functional
// definition of a distributed algorithm, §2.3) to every node of a finite
// graph by extracting each node's radius-(r+1) view.
//
// Together with the message-passing engines this gives two independent
// implementations of the model; tests/test_model_equivalence.cpp checks
// they agree.
#pragma once

#include <vector>

#include "graph/edge_coloured_graph.hpp"
#include "local/algorithm.hpp"

namespace dmm::local {

/// Outputs of `algo` on every node of g.
std::vector<Colour> run_views(const graph::EdgeColouredGraph& g, const LocalAlgorithm& algo);

}  // namespace dmm::local
