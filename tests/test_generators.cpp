// Instance generators: every generator must produce properly coloured
// graphs with the structural properties the experiments rely on.
#include "graph/generators.hpp"

#include <gtest/gtest.h>

namespace dmm::graph {
namespace {

TEST(Generators, PathGraph) {
  const EdgeColouredGraph g = path_graph(4, {1, 2, 3, 4});
  EXPECT_EQ(g.node_count(), 5);
  EXPECT_EQ(g.edge_count(), 4);
  EXPECT_TRUE(g.is_properly_coloured());
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 2);
}

TEST(Generators, WorstCaseChainShape) {
  for (int k = 2; k <= 8; ++k) {
    const WorstCase wc = worst_case_chain(k);
    EXPECT_EQ(wc.long_path.node_count(), k + 1);
    EXPECT_EQ(wc.short_path.node_count(), k);
    EXPECT_TRUE(wc.long_path.is_properly_coloured());
    EXPECT_TRUE(wc.short_path.is_properly_coloured());
    // u and v are the far (colour-k) endpoints.
    EXPECT_EQ(wc.long_path.incident_colours(wc.u), (std::vector<gk::Colour>{static_cast<gk::Colour>(k)}));
    EXPECT_EQ(wc.short_path.incident_colours(wc.v), (std::vector<gk::Colour>{static_cast<gk::Colour>(k)}));
  }
  EXPECT_THROW(worst_case_chain(1), std::invalid_argument);
}

TEST(Generators, Figure1GraphIsProperK4) {
  const EdgeColouredGraph g = figure1_graph();
  EXPECT_EQ(g.k(), 4);
  EXPECT_TRUE(g.is_properly_coloured());
  EXPECT_GE(g.edge_count(), 20);
  // All four colour classes are inhabited.
  std::vector<int> class_size(5, 0);
  for (const Edge& e : g.edges()) ++class_size[e.colour];
  for (int c = 1; c <= 4; ++c) EXPECT_GT(class_size[static_cast<std::size_t>(c)], 0);
}

TEST(Generators, RandomColouredGraphAlwaysProper) {
  Rng rng(101);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = static_cast<int>(rng.uniform(2, 60));
    const int k = static_cast<int>(rng.uniform(1, 8));
    const EdgeColouredGraph g = random_coloured_graph(n, k, 0.7, rng);
    EXPECT_TRUE(g.is_properly_coloured());
    EXPECT_LE(g.max_degree(), k);
  }
}

TEST(Generators, RandomColouredGraphAtPalette255) {
  // Colour 255 is the last a gk::Colour can name: the colour loop must end
  // there rather than wrap to colour 0.
  Rng rng(255);
  const EdgeColouredGraph g = random_coloured_graph(100, 255, 0.5, rng);
  EXPECT_TRUE(g.is_properly_coloured());
  EXPECT_LE(g.max_degree(), 255);
  bool last_colour = false;
  for (const Edge& e : g.edges()) last_colour |= e.colour == 255;
  EXPECT_TRUE(last_colour);
  EXPECT_THROW(EdgeColouredGraph(4, 256), std::invalid_argument);
  EXPECT_THROW(random_coloured_graph(4, 256, 0.5, rng), std::invalid_argument);
}

TEST(Generators, RandomColouredGraphDensityZeroIsEmpty) {
  Rng rng(5);
  const EdgeColouredGraph g = random_coloured_graph(20, 3, 0.0, rng);
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(Generators, HypercubeRegularAndPerfectClassOne) {
  for (int dim = 1; dim <= 6; ++dim) {
    const EdgeColouredGraph g = hypercube(dim);
    EXPECT_EQ(g.node_count(), 1 << dim);
    EXPECT_TRUE(g.is_properly_coloured());
    EXPECT_EQ(g.max_degree(), dim);
    for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(g.degree(v), dim);  // d-regular with d = k
    }
    // Colour class 1 is a perfect matching (the trivial d = k case, §1.3).
    int class_one = 0;
    for (const Edge& e : g.edges()) {
      if (e.colour == 1) ++class_one;
    }
    EXPECT_EQ(class_one, g.node_count() / 2);
  }
}

TEST(Generators, CompleteBipartitePerfectClasses) {
  for (int d = 1; d <= 6; ++d) {
    const EdgeColouredGraph g = complete_bipartite(d);
    EXPECT_TRUE(g.is_properly_coloured());
    EXPECT_EQ(g.edge_count(), d * d);
    std::vector<int> class_size(static_cast<std::size_t>(d) + 1, 0);
    for (const Edge& e : g.edges()) ++class_size[e.colour];
    for (int c = 1; c <= d; ++c) EXPECT_EQ(class_size[static_cast<std::size_t>(c)], d);
  }
}

TEST(Generators, AlternatingCycle) {
  const EdgeColouredGraph g = alternating_cycle(4, 5, 1, 2);
  EXPECT_EQ(g.node_count(), 10);
  EXPECT_EQ(g.edge_count(), 10);
  EXPECT_TRUE(g.is_properly_coloured());
  for (graph::NodeIndex v = 0; v < g.node_count(); ++v) EXPECT_EQ(g.degree(v), 2);
}

TEST(Generators, GridGraphProperAndShaped) {
  const EdgeColouredGraph g = graph::grid_graph(5, 4, false);
  EXPECT_EQ(g.node_count(), 20);
  EXPECT_TRUE(g.is_properly_coloured());
  EXPECT_LE(g.max_degree(), 4);
  // Interior node degree 4, corner degree 2.
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(6), 4);
}

TEST(Generators, TorusIsFourRegularWithPerfectClassOne) {
  const EdgeColouredGraph g = graph::grid_graph(6, 4, true);
  EXPECT_TRUE(g.is_properly_coloured());
  for (NodeIndex v = 0; v < g.node_count(); ++v) EXPECT_EQ(g.degree(v), 4);
  int class_one = 0;
  for (const Edge& e : g.edges()) {
    if (e.colour == 1) ++class_one;
  }
  EXPECT_EQ(class_one, g.node_count() / 2);  // d = k trivial case again
}

TEST(Generators, TorusRejectsOddDimensions) {
  EXPECT_THROW(graph::grid_graph(5, 4, true), std::invalid_argument);
  EXPECT_THROW(graph::grid_graph(4, 3, true), std::invalid_argument);
  EXPECT_NO_THROW(graph::grid_graph(4, 4, true));
}

TEST(Generators, OversizedInstancesThrowInsteadOfWrapping) {
  // 64-bit audit (ISSUE 4): these products overflow 32-bit arithmetic, and
  // each generator must reject them up front — a silent wrap would hand
  // the engines a tiny graph with a plausible-looking shape.
  EXPECT_THROW(grid_graph(65536, 65536, false), std::invalid_argument);   // 2³² nodes
  EXPECT_THROW(grid_graph(3, 1'000'000'000'000, false), std::invalid_argument);
  // Dimensions whose int64 *product* would itself overflow: the guard must
  // bound the factors first (UBSan-clean), not multiply and hope.
  EXPECT_THROW(grid_graph(4'000'000'000, 4'000'000'000, false), std::invalid_argument);
  EXPECT_THROW(complete_bipartite(70000), std::invalid_argument);         // d² ≈ 4.9e9 edges
  EXPECT_THROW(complete_bipartite(2'000'000'000), std::invalid_argument); // 2d nodes
  EXPECT_THROW(alternating_cycle(4, 2'000'000'000, 1, 2), std::invalid_argument);
  Rng rng(3);
  EXPECT_THROW(random_coloured_graph(3'000'000'000, 3, 0.1, rng), std::invalid_argument);
  EXPECT_THROW(random_coloured_graph(-1, 3, 0.1, rng), std::invalid_argument);
  // Near the boundary but representable: must not throw at validation
  // time (constructing 10⁷ nodes is the scale suite's job, not this one's,
  // so keep the accepted case small).
  EXPECT_NO_THROW(grid_graph(200, 150, false));
}

TEST(Generators, StarGraphShape) {
  const EdgeColouredGraph g = star_graph(255);  // the model's maximum skew
  EXPECT_EQ(g.node_count(), 256);
  EXPECT_EQ(g.edge_count(), 255);
  EXPECT_EQ(g.k(), 255);
  EXPECT_TRUE(g.is_properly_coloured());
  EXPECT_EQ(g.degree(0), 255);
  for (NodeIndex v = 1; v < g.node_count(); ++v) EXPECT_EQ(g.degree(v), 1);
  // Hub colours are exactly 1..255.
  std::vector<gk::Colour> expected;
  for (int c = 1; c <= 255; ++c) expected.push_back(static_cast<gk::Colour>(c));
  EXPECT_EQ(g.incident_colours(0), expected);
  // Colour is uint8_t: 256 distinct hub colours cannot exist.
  EXPECT_THROW(star_graph(256), std::invalid_argument);
  EXPECT_THROW(star_graph(0), std::invalid_argument);
}

TEST(Generators, HubClusterGraphShape) {
  const EdgeColouredGraph g = hub_cluster_graph(/*hubs=*/7, /*hub_degree=*/5,
                                                /*first_colour=*/3);
  EXPECT_EQ(g.node_count(), 7 * 6);
  EXPECT_EQ(g.edge_count(), 7 * 5);
  EXPECT_EQ(g.k(), 7);  // first_colour + hub_degree - 1
  EXPECT_TRUE(g.is_properly_coloured());
  // Two-point degree distribution, hubs first in node order.
  for (NodeIndex v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 5);
  for (NodeIndex v = 7; v < g.node_count(); ++v) EXPECT_EQ(g.degree(v), 1);
  // Every hub sees exactly colours first..first+d-1.
  EXPECT_EQ(g.incident_colours(0), (std::vector<gk::Colour>{3, 4, 5, 6, 7}));
  // Port-major leaf interleave: hub h's colour-(first+j) neighbour is node
  // hubs + j·hubs + h.
  EXPECT_EQ(*g.neighbour(2, 3), 7 + 0 * 7 + 2);
  EXPECT_EQ(*g.neighbour(2, 7), 7 + 4 * 7 + 2);
  EXPECT_THROW(hub_cluster_graph(0, 5, 1), std::invalid_argument);
  EXPECT_THROW(hub_cluster_graph(3, 200, 100), std::invalid_argument);  // colours past 255
  EXPECT_THROW(hub_cluster_graph(2'000'000'000, 2, 1), std::invalid_argument);  // n wraps
}

TEST(Generators, ToGraphPreservesStructure) {
  const colsys::ColourSystem s = colsys::cayley_ball(3, 3);
  const EdgeColouredGraph g = to_graph(s);
  EXPECT_EQ(g.node_count(), s.size());
  EXPECT_EQ(g.edge_count(), s.size() - 1);  // trees
  EXPECT_TRUE(g.is_properly_coloured());
  // Node 0 (the root) keeps its colour set.
  EXPECT_EQ(g.incident_colours(0), s.colours_at(colsys::ColourSystem::root()));
}

}  // namespace
}  // namespace dmm::graph
