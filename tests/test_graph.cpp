// Edge-coloured graph substrate: proper-colouring enforcement, adjacency.
#include "graph/edge_coloured_graph.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "util/rng.hpp"

namespace dmm::graph {
namespace {

TEST(EdgeColouredGraph, BasicAdjacency) {
  EdgeColouredGraph g(3, 4);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 3);
  EXPECT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_EQ(*g.neighbour(0, 2), 1);
  EXPECT_EQ(*g.neighbour(1, 2), 0);
  EXPECT_EQ(*g.neighbour(1, 3), 2);
  EXPECT_FALSE(g.neighbour(0, 3).has_value());
  EXPECT_EQ(g.incident_colours(1), (std::vector<gk::Colour>{2, 3}));
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_TRUE(g.is_properly_coloured());
}

TEST(EdgeColouredGraph, RejectsImproperColouring) {
  EdgeColouredGraph g(3, 2);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(g.add_edge(0, 2, 1), std::logic_error);  // colour 1 reused at 0
  EXPECT_THROW(g.add_edge(1, 2, 1), std::logic_error);  // colour 1 reused at 1
  EXPECT_NO_THROW(g.add_edge(1, 2, 2));
}

TEST(EdgeColouredGraph, RejectsSelfLoopsAndParallelEdges) {
  EdgeColouredGraph g(2, 3);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(g.add_edge(0, 0, 2), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 2), std::logic_error);  // parallel
}

TEST(EdgeColouredGraph, RejectsBadColoursAndNodes) {
  EdgeColouredGraph g(2, 3);
  EXPECT_THROW(g.add_edge(0, 1, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 4), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5, 1), std::out_of_range);
  EXPECT_THROW(g.degree(-1), std::out_of_range);
}

TEST(EdgeColouredGraph, ProperColouringBoundsDegreeByK) {
  EdgeColouredGraph g(10, 3);
  g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 2);
  g.add_edge(0, 3, 3);
  EXPECT_EQ(g.degree(0), 3);
  // A fourth edge at node 0 is impossible: all k colours used.
  for (gk::Colour c = 1; c <= 3; ++c) {
    EXPECT_THROW(g.add_edge(0, 4, c), std::logic_error);
  }
}

TEST(EdgeColouredGraph, EmptyGraph) {
  EdgeColouredGraph g(0, 1);
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.max_degree(), 0);
  EXPECT_TRUE(g.is_properly_coloured());
}

TEST(EdgeColouredGraph, BulkConstructorMatchesAddEdge) {
  const std::vector<Edge> edges = {{0, 1, 2}, {1, 2, 3}, {0, 3, 1}, {2, 3, 2}};
  const EdgeColouredGraph bulk(4, 3, edges);
  EdgeColouredGraph incremental(4, 3);
  for (const Edge& e : edges) incremental.add_edge(e.u, e.v, e.colour);
  EXPECT_EQ(bulk.node_count(), incremental.node_count());
  EXPECT_EQ(bulk.edge_count(), incremental.edge_count());
  EXPECT_TRUE(bulk.is_properly_coloured());
  for (NodeIndex v = 0; v < 4; ++v) {
    EXPECT_EQ(bulk.degree(v), incremental.degree(v)) << v;
    EXPECT_EQ(bulk.incident_colours(v), incremental.incident_colours(v)) << v;
    for (gk::Colour c = 1; c <= 3; ++c) {
      EXPECT_EQ(bulk.neighbour(v, c), incremental.neighbour(v, c)) << v;
    }
  }
  // The retained edge list is the input, verbatim and in order.
  ASSERT_EQ(bulk.edges().size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(bulk.edges()[i].u, edges[i].u);
    EXPECT_EQ(bulk.edges()[i].v, edges[i].v);
    EXPECT_EQ(bulk.edges()[i].colour, edges[i].colour);
  }
}

TEST(EdgeColouredGraph, BulkConstructorRejectsEverythingAddEdgeDoes) {
  using E = std::vector<Edge>;
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 0, 1}}), std::invalid_argument);  // self-loop
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 1, 0}}), std::invalid_argument);  // colour 0
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 1, 3}}), std::invalid_argument);  // colour > k
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 5, 1}}), std::out_of_range);      // bad node
  // Colour reused at a shared endpoint.
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 1, 1}, {0, 2, 1}}), std::logic_error);
  // Parallel edge, same colour and different colour (the different-colour
  // pair is invisible to the (node, colour) sort — the second pass exists
  // for exactly this case).
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 1, 1}, {1, 0, 1}}), std::logic_error);
  EXPECT_THROW(EdgeColouredGraph(3, 2, E{{0, 1, 1}, {1, 0, 2}}), std::logic_error);
  EXPECT_NO_THROW(EdgeColouredGraph(3, 2, E{{0, 1, 1}, {1, 2, 2}}));
  EXPECT_NO_THROW(EdgeColouredGraph(3, 2, E{}));
}

TEST(EdgeColouredGraph, RemoveEdgeDropsBothSides) {
  EdgeColouredGraph g(4, 3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(2, 3, 1);

  g.remove_edge(2, 1);  // either orientation works
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_FALSE(g.neighbour(1, 2).has_value());
  EXPECT_FALSE(g.neighbour(2, 2).has_value());
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.degree(2), 1);
  EXPECT_TRUE(g.is_properly_coloured());
  // The surviving edges are intact (edges() order is NOT preserved — the
  // removal swap-pops — so check membership, not position).
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));

  // The freed colour slot is reusable: re-add {1,2} on a different colour.
  g.add_edge(1, 2, 3);
  EXPECT_EQ(*g.edge_colour(1, 2), 3);
  EXPECT_TRUE(g.is_properly_coloured());
}

TEST(EdgeColouredGraph, RemoveEdgeRejectsNonEdges) {
  EdgeColouredGraph g(3, 2);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(g.remove_edge(0, 2), std::invalid_argument);  // never existed
  EXPECT_THROW(g.remove_edge(0, 3), std::out_of_range);      // node range
  g.remove_edge(0, 1);
  EXPECT_THROW(g.remove_edge(0, 1), std::invalid_argument);  // already gone
  EXPECT_EQ(g.edge_count(), 0);
}

// Model test for the edge-order contract: a seeded stream of add_edge /
// remove_edge against a plain edge vector that swap-pops on removal.  Every
// accessor must agree with the model after every op, and each half-edge
// must name the slot its edge occupies in edges().
TEST(EdgeColouredGraph, EdgeOrderAndSlotsMatchSwapPopModel) {
  constexpr int kN = 32;
  constexpr int kK = 5;
  Rng rng(20121);
  std::vector<Edge> model;
  // Dense views of the model, rebuilt after every op.
  std::array<std::array<int, kN>, kN> slot_of{};            // -1: no edge
  std::array<std::array<int, kK + 1>, kN> neighbour_of{};  // -1: colour free
  const auto rebuild_views = [&] {
    for (auto& row : slot_of) row.fill(-1);
    for (auto& row : neighbour_of) row.fill(-1);
    for (std::size_t i = 0; i < model.size(); ++i) {
      const Edge& e = model[i];
      slot_of[e.u][e.v] = slot_of[e.v][e.u] = static_cast<int>(i);
      neighbour_of[e.u][e.colour] = e.v;
      neighbour_of[e.v][e.colour] = e.u;
    }
  };
  const auto proper = [&](NodeIndex u, NodeIndex v, gk::Colour c) {
    return u != v && slot_of[u][v] < 0 && neighbour_of[u][c] < 0 && neighbour_of[v][c] < 0;
  };
  // Start from a bulk-constructed graph so its slots are covered too.
  rebuild_views();
  for (int i = 0; i < 40; ++i) {
    const auto u = static_cast<NodeIndex>(rng.index(kN));
    const auto v = static_cast<NodeIndex>(rng.index(kN));
    const auto c = static_cast<gk::Colour>(1 + rng.index(kK));
    if (proper(u, v, c)) {
      model.push_back({u, v, c});
      rebuild_views();
    }
  }
  EdgeColouredGraph g(kN, kK, model);

  int inserts = 0;
  int removals = 0;
  int rejected = 0;
  for (int op = 0; op < 6000;) {
    auto u = static_cast<NodeIndex>(rng.index(kN));
    auto v = static_cast<NodeIndex>(rng.index(kN));
    if (rng.chance(0.5)) {
      const auto c = static_cast<gk::Colour>(1 + rng.index(kK));
      if (!proper(u, v, c)) continue;
      g.add_edge(u, v, c);
      model.push_back({u, v, c});
      ++inserts;
    } else if (!model.empty() && rng.chance(0.75)) {
      // Remove a live edge, named in a random orientation.
      const auto i = rng.index(model.size());
      u = model[i].u;
      v = model[i].v;
      if (rng.chance(0.5)) std::swap(u, v);
      g.remove_edge(u, v);
      model[i] = model.back();
      model.pop_back();
      ++removals;
    } else if (const int i = slot_of[u][v]; i >= 0) {
      g.remove_edge(u, v);
      model[static_cast<std::size_t>(i)] = model.back();
      model.pop_back();
      ++removals;
    } else {
      // Rejected: the comparison below checks that nothing moved.
      EXPECT_THROW(g.remove_edge(u, v), std::invalid_argument) << "op " << op;
      ++rejected;
    }
    ++op;
    rebuild_views();

    ASSERT_EQ(g.edges().size(), model.size()) << "op " << op;
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(g.edges()[i].u, model[i].u) << "op " << op << " slot " << i;
      ASSERT_EQ(g.edges()[i].v, model[i].v) << "op " << op << " slot " << i;
      ASSERT_EQ(g.edges()[i].colour, model[i].colour) << "op " << op << " slot " << i;
    }
    for (NodeIndex a = 0; a < kN; ++a) {
      int degree = 0;
      for (gk::Colour c = 1; c <= kK; ++c) {
        const int b = neighbour_of[a][c];
        degree += b >= 0 ? 1 : 0;
        ASSERT_EQ(g.neighbour(a, c), b >= 0 ? std::optional<NodeIndex>(b) : std::nullopt)
            << "op " << op << " node " << a;
      }
      ASSERT_EQ(g.degree(a), degree) << "op " << op << " node " << a;
      for (const HalfEdge& h : g.half_edges(a)) {
        ASSERT_EQ(h.slot, slot_of[a][h.to]) << "op " << op << " node " << a;
        ASSERT_EQ(h.colour, model[static_cast<std::size_t>(h.slot)].colour) << "op " << op;
      }
      for (NodeIndex b = 0; b < kN; ++b) {
        const int i = slot_of[a][b];
        ASSERT_EQ(g.has_edge(a, b), i >= 0) << "op " << op;
        ASSERT_EQ(g.edge_colour(a, b),
                  i >= 0 ? std::optional<gk::Colour>(model[static_cast<std::size_t>(i)].colour)
                         : std::nullopt)
            << "op " << op;
      }
    }
  }
  EXPECT_GT(inserts, 2000);
  EXPECT_GT(removals, 2000);
  EXPECT_GT(rejected, 500);
}

TEST(EdgeColouredGraph, EdgeColourReadsEitherOrientation) {
  EdgeColouredGraph g(3, 2);
  g.add_edge(0, 1, 2);
  EXPECT_EQ(*g.edge_colour(0, 1), 2);
  EXPECT_EQ(*g.edge_colour(1, 0), 2);
  EXPECT_FALSE(g.edge_colour(0, 2).has_value());
  EXPECT_THROW(g.edge_colour(0, 9), std::out_of_range);
}

// --- shared storage: copy-on-write handles and the shared CSR ------------

/// A small graph with a hub row scrambled out of colour order.
EdgeColouredGraph scrambled_star() {
  EdgeColouredGraph g(6, 5);
  for (const gk::Colour c : {gk::Colour{5}, gk::Colour{2}, gk::Colour{4}, gk::Colour{1}}) {
    g.add_edge(0, c, c);
  }
  g.add_edge(1, 2, 3);
  return g;
}

TEST(SharedStorage, CopySharesStorageUntilEitherSideMutates) {
  const EdgeColouredGraph original = scrambled_star();
  EdgeColouredGraph copy = original;
  EXPECT_EQ(&copy.edges(), &original.edges());
  for (NodeIndex v = 0; v < original.node_count(); ++v) {
    EXPECT_EQ(copy.half_edges(v).data(), original.half_edges(v).data()) << v;
  }
  // A rejected mutation is no mutation: the storage stays shared.
  EXPECT_THROW(copy.add_edge(0, 3, 5), std::logic_error);
  EXPECT_THROW(copy.remove_edge(2, 3), std::invalid_argument);
  EXPECT_EQ(&copy.edges(), &original.edges());
  copy.add_edge(2, 3, 1);
  EXPECT_NE(&copy.edges(), &original.edges());
  EXPECT_NE(copy.half_edges(0).data(), original.half_edges(0).data());

  // Either side may be the one that mutates.
  EdgeColouredGraph left = scrambled_star();
  const EdgeColouredGraph right = left;
  left.remove_edge(0, 4);
  EXPECT_NE(&left.edges(), &right.edges());
  EXPECT_EQ(right.edge_count(), 5);
  EXPECT_EQ(left.edge_count(), 4);

  // Assignment shares too, and self-assignment is harmless.
  EdgeColouredGraph assigned(1, 1);
  assigned = right;
  EXPECT_EQ(&assigned.edges(), &right.edges());
  const EdgeColouredGraph& alias = assigned;
  assigned = alias;
  EXPECT_EQ(&assigned.edges(), &right.edges());
  EXPECT_EQ(assigned.edge_count(), 5);
}

TEST(SharedStorage, MutatingOneCopyLeavesTheOtherUnchanged) {
  Rng rng(1301);
  EdgeColouredGraph g(40, 5);
  for (int tries = 0; tries < 400; ++tries) {
    const auto u = static_cast<NodeIndex>(rng.uniform(0, 39));
    const auto v = static_cast<NodeIndex>(rng.uniform(0, 39));
    const auto c = static_cast<gk::Colour>(rng.uniform(1, 5));
    try {
      g.add_edge(u, v, c);
    } catch (const std::exception&) {
    }
  }
  ASSERT_GT(g.edge_count(), 40);
  const std::vector<Edge> edges_before = g.edges();
  std::vector<std::vector<HalfEdge>> halves_before;
  for (NodeIndex v = 0; v < g.node_count(); ++v) {
    halves_before.emplace_back(g.half_edges(v).begin(), g.half_edges(v).end());
  }
  const std::uint64_t fingerprint = g.fingerprint();
  const auto expect_unchanged = [&](const EdgeColouredGraph& h, const std::string& when) {
    ASSERT_EQ(h.edges().size(), edges_before.size()) << when;
    for (std::size_t i = 0; i < edges_before.size(); ++i) {
      EXPECT_EQ(h.edges()[i].u, edges_before[i].u) << when;
      EXPECT_EQ(h.edges()[i].v, edges_before[i].v) << when;
      EXPECT_EQ(h.edges()[i].colour, edges_before[i].colour) << when;
    }
    for (NodeIndex v = 0; v < h.node_count(); ++v) {
      const std::span<const HalfEdge> now = h.half_edges(v);
      const auto& then = halves_before[static_cast<std::size_t>(v)];
      ASSERT_EQ(now.size(), then.size()) << when << " node " << v;
      for (std::size_t i = 0; i < then.size(); ++i) {
        EXPECT_EQ(now[i].to, then[i].to) << when;
        EXPECT_EQ(now[i].slot, then[i].slot) << when;
        EXPECT_EQ(now[i].colour, then[i].colour) << when;
      }
    }
    EXPECT_EQ(h.fingerprint(), fingerprint) << when;
  };

  // The copy mutates: the original keeps every field.
  EdgeColouredGraph copy = g;
  const Edge first = copy.edges().front();
  copy.remove_edge(first.u, first.v);
  copy.add_edge(first.v, first.u, first.colour);  // same edge set, new order
  EXPECT_EQ(copy.fingerprint(), fingerprint);
  copy.remove_edge(copy.edges().back().u, copy.edges().back().v);
  EXPECT_NE(copy.fingerprint(), fingerprint);
  expect_unchanged(g, "after the copy mutated");

  // The original mutates: a copy taken before keeps every field.
  const EdgeColouredGraph kept = g;
  g.remove_edge(first.u, first.v);
  expect_unchanged(kept, "after the original mutated");
}

TEST(SharedStorage, MovedFromGraphIsAValidEmptyGraph) {
  const auto expect_empty = [](EdgeColouredGraph& g) {
    EXPECT_EQ(g.node_count(), 0);
    EXPECT_EQ(g.edge_count(), 0);
    EXPECT_EQ(g.k(), 1);
    EXPECT_EQ(g.max_degree(), 0);
    EXPECT_TRUE(g.edges().empty());
    EXPECT_TRUE(g.is_properly_coloured());
    EXPECT_EQ(g.csr()->row, std::vector<std::size_t>{0});
    EXPECT_THROW(g.add_edge(0, 1, 1), std::out_of_range);  // no nodes to join
    // Still a full value: it can be copied and reassigned.
    const EdgeColouredGraph copy = g;
    EXPECT_EQ(copy.node_count(), 0);
    g = scrambled_star();
    EXPECT_EQ(g.edge_count(), 5);
  };
  EdgeColouredGraph source = scrambled_star();
  const EdgeColouredGraph moved(std::move(source));
  EXPECT_EQ(moved.edge_count(), 5);
  expect_empty(source);  // NOLINT(bugprone-use-after-move): moved-from state is specified

  EdgeColouredGraph assigned_from = scrambled_star();
  EdgeColouredGraph target(3, 2);
  target = std::move(assigned_from);
  EXPECT_EQ(target.edge_count(), 5);
  expect_empty(assigned_from);  // NOLINT(bugprone-use-after-move)
}

TEST(SharedStorage, CsrAndFingerprintAreCachedPerVersionUntilAMutation) {
  // The fingerprint as a graph that never cached anything computes it.
  const auto fresh = [](const EdgeColouredGraph& h) {
    return EdgeColouredGraph(h.node_count(), h.k(), h.edges()).fingerprint();
  };
  EdgeColouredGraph g = scrambled_star();
  const std::shared_ptr<const Csr> csr = g.csr();
  const std::uint64_t fingerprint = g.fingerprint();
  // Node 3 is isolated; node 0's scrambled row comes out in colour order.
  EXPECT_EQ(csr->row, (std::vector<std::size_t>{0, 4, 6, 8, 8, 9, 10}));
  EXPECT_EQ(csr->port_colour, (std::vector<gk::Colour>{1, 2, 4, 5, 1, 3, 2, 3, 4, 5}));
  EXPECT_EQ(csr->peer_node, (std::vector<NodeIndex>{1, 2, 4, 5, 0, 2, 0, 1, 0, 0}));
  EXPECT_EQ(csr->degree(0), 4);
  EXPECT_EQ(csr->slot_count(), 10u);

  // One CSR and one fingerprint per graph version, whichever copy asks.
  const EdgeColouredGraph copy = g;
  EXPECT_EQ(copy.csr(), csr);
  EXPECT_EQ(g.csr(), csr);
  EXPECT_EQ(copy.fingerprint(), fingerprint);

  // A mutation drops the handle's CSR and fingerprint; the next call
  // builds the new version's, while holders of the old one keep it intact.
  g.remove_edge(0, 5);
  EXPECT_EQ(copy.fingerprint(), fingerprint);
  EXPECT_NE(g.fingerprint(), fingerprint);
  EXPECT_EQ(g.fingerprint(), fresh(g));
  const std::shared_ptr<const Csr> rebuilt = g.csr();
  EXPECT_NE(rebuilt, csr);
  EXPECT_EQ(rebuilt->row, (std::vector<std::size_t>{0, 3, 5, 7, 7, 8, 8}));
  EXPECT_EQ(rebuilt->port_colour, (std::vector<gk::Colour>{1, 2, 4, 1, 3, 2, 3, 4}));
  EXPECT_EQ(rebuilt->peer_node, (std::vector<NodeIndex>{1, 2, 4, 0, 2, 0, 1, 0}));
  EXPECT_EQ(csr->slot_count(), 10u);
  EXPECT_EQ(copy.csr(), csr);

  // A sole owner mutates in place and drops its CSR and fingerprint the
  // same way.
  EdgeColouredGraph solo = scrambled_star();
  const std::shared_ptr<const Csr> before = solo.csr();
  EXPECT_EQ(solo.fingerprint(), fingerprint);
  const HalfEdge* row0 = solo.half_edges(0).data();
  solo.add_edge(2, 3, 1);
  EXPECT_EQ(solo.half_edges(0).data(), row0);  // no detach
  EXPECT_EQ(solo.fingerprint(), fresh(solo));
  EXPECT_NE(solo.fingerprint(), fingerprint);
  EXPECT_NE(solo.csr(), before);
  EXPECT_EQ(solo.csr()->slot_count(), 12u);
  EXPECT_EQ(before->slot_count(), 10u);
}

}  // namespace
}  // namespace dmm::graph
