// Dynamic maximal matching under churn (src/dyn, docs/dynamic.md): the
// incremental repair path must leave a verifiably maximal matching after
// every batch — cross-checked against a recompute-from-scratch oracle on
// both engines — and every counter must be a pure function of
// (instance, seed), independent of engine and thread count.
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/dmm.hpp"

namespace dmm {
namespace {

using gk::Colour;

using dyn::ChurnBatch;
using dyn::ChurnOp;
using dyn::ChurnPlan;
using dyn::ChurnSpec;
using dyn::DynamicMatcher;
using dyn::MatcherOptions;
using local::EngineKind;

ChurnOp insert_op(graph::NodeIndex u, graph::NodeIndex v, Colour c) {
  return ChurnOp{ChurnOp::Kind::kInsert, u, v, c};
}

ChurnOp delete_op(graph::NodeIndex u, graph::NodeIndex v, Colour c) {
  return ChurnOp{ChurnOp::Kind::kDelete, u, v, c};
}

ChurnSpec spec_of(int batches, int ops, double insert_fraction, std::uint64_t seed) {
  ChurnSpec spec;
  spec.batches = batches;
  spec.ops_per_batch = ops;
  spec.insert_fraction = insert_fraction;
  spec.seed = seed;
  return spec;
}

struct ChurnResult {
  dyn::RepairStats stats;
  std::vector<Colour> outputs;
};

/// Applies `plan` batch by batch, asserting after every batch that the
/// incremental matching and a from-scratch oracle recompute both verify
/// maximal.  (DynamicMatcher owns a Runtime and is not movable, so this
/// returns the final stats and outputs rather than the matcher.)
ChurnResult churn_and_check(const graph::EdgeColouredGraph& g, const ChurnPlan& plan,
                            EngineKind engine, int threads = 1) {
  MatcherOptions options;
  options.engine = engine;
  options.threads = threads;
  DynamicMatcher matcher(g, options);
  EXPECT_TRUE(matcher.check().ok()) << matcher.check().describe();
  for (const ChurnBatch& batch : plan.batches()) {
    matcher.apply(batch);
    const verify::MatchingReport incremental = matcher.check();
    EXPECT_TRUE(incremental.ok()) << incremental.describe();
    const std::vector<Colour> oracle = matcher.recompute();
    const verify::MatchingReport recomputed = verify::check_outputs(matcher.graph(), oracle);
    EXPECT_TRUE(recomputed.ok()) << recomputed.describe();
  }
  return ChurnResult{matcher.stats(), matcher.outputs()};
}

// ---------------------------------------------------------------------------
// The churn grid: {insert-only, delete-only, mixed} × instance families ×
// both oracle engines, maximality oracle-checked after every batch.
// ---------------------------------------------------------------------------

struct GridCase {
  const char* name;
  graph::EdgeColouredGraph (*make)();
};

graph::EdgeColouredGraph grid_random() {
  Rng rng(7);
  return graph::random_coloured_graph(400, 6, 0.7, rng);
}
graph::EdgeColouredGraph grid_star() { return graph::star_graph(12); }
graph::EdgeColouredGraph grid_hub() { return graph::hub_cluster_graph(16, 8, 1); }
graph::EdgeColouredGraph grid_chain() { return graph::worst_case_chain(7).long_path; }

const GridCase kGrid[] = {
    {"random", &grid_random},
    {"star", &grid_star},
    {"hub_cluster", &grid_hub},
    {"chain", &grid_chain},
};

TEST(Dynamic, ChurnGridStaysMaximalOnBothEngines) {
  const double mixes[] = {1.0, 0.0, 0.5};  // insert-only, delete-only, mixed
  for (const GridCase& c : kGrid) {
    const graph::EdgeColouredGraph g = c.make();
    for (const double mix : mixes) {
      const ChurnPlan plan = ChurnPlan::random(g, spec_of(6, 12, mix, 99));
      const ChurnResult sync = churn_and_check(g, plan, EngineKind::kSync);
      const ChurnResult flat = churn_and_check(g, plan, EngineKind::kFlat, 2);
      // The counters are pure functions of (instance, plan): the oracle
      // engine and its thread count must not leak into them.
      EXPECT_EQ(sync.stats, flat.stats) << c.name << " mix " << mix;
      EXPECT_EQ(sync.outputs, flat.outputs) << c.name << " mix " << mix;
    }
  }
}

TEST(Dynamic, CountersAreReproducibleFromInstanceAndSeed) {
  const graph::EdgeColouredGraph g = grid_random();
  const ChurnSpec spec = spec_of(5, 20, 0.5, 1234);
  const ChurnResult first = churn_and_check(g, ChurnPlan::random(g, spec), EngineKind::kSync);
  const ChurnResult second = churn_and_check(g, ChurnPlan::random(g, spec), EngineKind::kSync);
  EXPECT_EQ(first.stats, second.stats);
  EXPECT_EQ(first.outputs, second.outputs);
  EXPECT_GT(first.stats.repairs, 0u);

  // A different seed is a different plan (on this instance, overwhelmingly).
  const ChurnPlan other = ChurnPlan::random(g, spec_of(5, 20, 0.5, 4321));
  const ChurnResult third = churn_and_check(g, other, EngineKind::kSync);
  EXPECT_NE(first.stats.touched_nodes, third.stats.touched_nodes);
}

TEST(Dynamic, LocalityAccountingIsConsistent) {
  const graph::EdgeColouredGraph g = grid_hub();
  const ChurnPlan plan = ChurnPlan::random(g, spec_of(4, 10, 0.5, 5));
  const ChurnResult m = churn_and_check(g, plan, EngineKind::kSync);
  const auto& s = m.stats;
  EXPECT_EQ(s.batches, 4u);
  EXPECT_EQ(s.inserts + s.deletes, plan.op_count());
  EXPECT_EQ(s.inserts, plan.insert_count());
  EXPECT_EQ(s.deletes, plan.delete_count());
  // touched + avoided = batches · n, by definition of the two counters.
  EXPECT_EQ(s.touched_nodes + s.recompute_avoided,
            s.batches * static_cast<std::uint64_t>(g.node_count()));
  EXPECT_GT(s.recompute_avoided, 0u) << "repair should not touch the whole graph";
}

// ---------------------------------------------------------------------------
// Hand-built batches: matched vs unmatched deletes, insert repairs.
// ---------------------------------------------------------------------------

TEST(Dynamic, DeleteOfUnmatchedEdgeChangesNothing) {
  // Path 0-1-2 with colours 1,2: greedy matches {0,1} on colour 1, edge
  // {1,2} stays unmatched.  Deleting it must not move anything.
  const graph::EdgeColouredGraph g = graph::path_graph(2, {1, 2});
  DynamicMatcher m(g);
  const std::vector<Colour> before = m.outputs();
  ASSERT_EQ(before[0], 1);
  ASSERT_EQ(before[1], 1);
  ASSERT_EQ(before[2], local::kUnmatched);
  m.apply(ChurnBatch{{delete_op(1, 2, 2)}});
  EXPECT_EQ(m.outputs(), before);
  EXPECT_EQ(m.stats().repairs, 0u);
  EXPECT_TRUE(m.check().ok());
}

TEST(Dynamic, DeleteOfMatchedEdgeRematchesBothEndpoints) {
  // Path 0-1-2-3 with colours 1,2,1: greedy matches {0,1} and {2,3} on
  // colour 1.  Deleting {0,1} frees 0 (isolated, stays ⊥) and 1, which
  // re-matches along colour 2 — stealing nothing, since 2 is freed only if
  // its own matched edge went away.  Here 2 is matched to 3, so 1 cannot
  // re-match and the matching {2,3} remains maximal.
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2, 1});
  DynamicMatcher m(g);
  ASSERT_EQ(m.outputs()[0], 1);
  ASSERT_EQ(m.outputs()[1], 1);
  m.apply(ChurnBatch{{delete_op(0, 1, 1)}});
  EXPECT_EQ(m.outputs()[0], local::kUnmatched);
  EXPECT_EQ(m.outputs()[1], local::kUnmatched);  // neighbour 2 is taken
  EXPECT_EQ(m.outputs()[2], 1);
  EXPECT_EQ(m.outputs()[3], 1);
  EXPECT_TRUE(m.check().ok());

  // Now delete the remaining matched edge: 2 re-matches to 1 along colour
  // 2 (its lowest free incident colour), restoring maximality by repair.
  m.apply(ChurnBatch{{delete_op(2, 3, 1)}});
  EXPECT_EQ(m.outputs()[1], 2);
  EXPECT_EQ(m.outputs()[2], 2);
  EXPECT_EQ(m.outputs()[3], local::kUnmatched);
  EXPECT_EQ(m.stats().repairs, 1u);
  EXPECT_TRUE(m.check().ok());
}

TEST(Dynamic, RematchTakesLowestFreeColourWhateverTheAdjacencyOrder) {
  // Hub 0 with neighbours 1 (colour 1), 2 (colour 2), 4 (colour 3),
  // 5 (colour 4) and 7 (colour 5).  Nodes 2 and 5 are also matched on
  // colour 1 to 3 and 6, so greedy matches the hub to 1 and leaves 4 and 7
  // free.
  graph::EdgeColouredGraph g(8, 5);
  g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 2);
  g.add_edge(0, 4, 3);
  g.add_edge(0, 5, 4);
  g.add_edge(0, 7, 5);
  g.add_edge(2, 3, 1);
  g.add_edge(5, 6, 1);
  // Scramble the hub's adjacency by removal and re-insertion: colours now
  // run 5, 2, 4, 3, 1, so the first free neighbour in adjacency order (7,
  // colour 5) is not the lowest-colour one (4, colour 3).
  g.remove_edge(0, 1);
  g.remove_edge(0, 4);
  g.add_edge(0, 4, 3);
  g.add_edge(0, 1, 1);
  std::vector<Colour> order;
  for (const graph::HalfEdge& h : g.half_edges(0)) order.push_back(h.colour);
  ASSERT_EQ(order, (std::vector<Colour>{5, 2, 4, 3, 1}));

  DynamicMatcher m(g);
  ASSERT_EQ(m.outputs(), (std::vector<Colour>{1, 1, 1, 1, local::kUnmatched, 1, 1,
                                              local::kUnmatched}));
  const auto touched_by = [&](ChurnOp op) {
    const dyn::RepairStats before = m.stats();
    m.apply(ChurnBatch{{op}});
    EXPECT_TRUE(m.check().ok()) << m.check().describe();
    const std::uint64_t touched = m.stats().touched_nodes - before.touched_nodes;
    EXPECT_EQ(m.stats().recompute_avoided - before.recompute_avoided, 8 - touched);
    return touched;
  };

  // Free colours 3 and 5 at the hub: it re-matches on 3.  Touched: the
  // endpoints 0 and 1, plus the neighbours at or below colour 3 (2 and 4).
  EXPECT_EQ(touched_by(delete_op(0, 1, 1)), 4u);
  EXPECT_EQ(m.outputs()[0], 3);
  EXPECT_EQ(m.outputs()[4], 3);
  EXPECT_EQ(m.outputs()[7], local::kUnmatched);
  EXPECT_EQ(m.stats().repairs, 1u);

  // Only colour 5 is free now: re-match on it, touching every neighbour
  // (2, 5, 7) besides the endpoints 0 and 4.
  EXPECT_EQ(touched_by(delete_op(0, 4, 3)), 5u);
  EXPECT_EQ(m.outputs()[0], 5);
  EXPECT_EQ(m.outputs()[7], 5);
  EXPECT_EQ(m.stats().repairs, 2u);

  // No free neighbour left: the hub stays free after reading all of them.
  EXPECT_EQ(touched_by(delete_op(0, 7, 5)), 4u);
  EXPECT_EQ(m.outputs()[0], local::kUnmatched);
  EXPECT_EQ(m.stats().repairs, 2u);
}

TEST(Dynamic, InsertBetweenTwoFreeNodesMatchesOnTheSpot) {
  // Two isolated matched pairs plus two free nodes; inserting an edge
  // between the free pair must match it immediately.
  graph::EdgeColouredGraph g(6, 3);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  DynamicMatcher m(g);
  ASSERT_EQ(m.outputs()[4], local::kUnmatched);
  ASSERT_EQ(m.outputs()[5], local::kUnmatched);
  m.apply(ChurnBatch{{insert_op(4, 5, 2)}});
  EXPECT_EQ(m.outputs()[4], 2);
  EXPECT_EQ(m.outputs()[5], 2);
  EXPECT_EQ(m.stats().repairs, 1u);
  EXPECT_TRUE(m.check().ok());

  // Inserting between a matched and a free node leaves both as they are —
  // the matching stays maximal because one endpoint is covered.
  m.apply(ChurnBatch{{insert_op(0, 4, 3)}});
  EXPECT_EQ(m.outputs()[0], 1);
  EXPECT_EQ(m.outputs()[4], 2);
  EXPECT_TRUE(m.check().ok());
}

TEST(Dynamic, CheckNodeAgreesWithFullSweep) {
  const graph::EdgeColouredGraph g = grid_star();
  DynamicMatcher m(g);
  for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
    EXPECT_TRUE(verify::check_node(g, m.outputs(), v).ok()) << v;
  }
  // Corrupt the hub's output: the per-node check must see it from the hub
  // (M2: partner disagrees) without a full sweep.
  std::vector<Colour> bad = m.outputs();
  bad[0] = local::kUnmatched;
  bool flagged = false;
  for (graph::NodeIndex v = 0; v < g.node_count(); ++v) {
    if (!verify::check_node(g, bad, v).ok()) flagged = true;
  }
  EXPECT_TRUE(flagged);
  EXPECT_FALSE(verify::check_outputs(g, bad).ok());
}

// ---------------------------------------------------------------------------
// Plan validation and generation.
// ---------------------------------------------------------------------------

TEST(Dynamic, PlanGenerationIsDeterministic) {
  const graph::EdgeColouredGraph g = grid_random();
  const ChurnSpec spec = spec_of(4, 16, 0.6, 77);
  const ChurnPlan a = ChurnPlan::random(g, spec);
  const ChurnPlan b = ChurnPlan::random(g, spec);
  ASSERT_EQ(a.batches().size(), b.batches().size());
  for (std::size_t i = 0; i < a.batches().size(); ++i) {
    const auto& ops_a = a.batches()[i].ops;
    const auto& ops_b = b.batches()[i].ops;
    ASSERT_EQ(ops_a.size(), ops_b.size());
    for (std::size_t j = 0; j < ops_a.size(); ++j) {
      EXPECT_EQ(ops_a[j].kind, ops_b[j].kind);
      EXPECT_EQ(ops_a[j].u, ops_b[j].u);
      EXPECT_EQ(ops_a[j].v, ops_b[j].v);
      EXPECT_EQ(ops_a[j].colour, ops_b[j].colour);
    }
  }
  EXPECT_EQ(a.op_count(), a.insert_count() + a.delete_count());
  a.require_applies(g);  // valid by construction
}

TEST(Dynamic, PlanGenerationRespectsKindExtremes) {
  const graph::EdgeColouredGraph g = grid_random();
  const ChurnPlan inserts = ChurnPlan::random(g, spec_of(3, 10, 1.0, 1));
  EXPECT_EQ(inserts.delete_count(), 0u);
  EXPECT_GT(inserts.insert_count(), 0u);
  const ChurnPlan deletes = ChurnPlan::random(g, spec_of(3, 10, 0.0, 1));
  EXPECT_EQ(deletes.insert_count(), 0u);
  EXPECT_GT(deletes.delete_count(), 0u);
}

TEST(Dynamic, RandomRejectsBadSpecs) {
  const graph::EdgeColouredGraph g = grid_star();
  EXPECT_THROW(ChurnPlan::random(g, spec_of(-1, 4, 0.5, 0)), std::invalid_argument);
  EXPECT_THROW(ChurnPlan::random(g, spec_of(4, -1, 0.5, 0)), std::invalid_argument);
  EXPECT_THROW(ChurnPlan::random(g, spec_of(4, 4, -0.1, 0)), std::invalid_argument);
  EXPECT_THROW(ChurnPlan::random(g, spec_of(4, 4, 1.5, 0)), std::invalid_argument);
}

TEST(Dynamic, RequireAppliesRejectsInvalidOps) {
  // Path 0-1-2 with colours 1,2.
  const graph::EdgeColouredGraph g = graph::path_graph(2, {1, 2});
  const auto reject = [&](ChurnOp op) {
    const ChurnPlan plan(std::vector<ChurnBatch>{ChurnBatch{{op}}});
    EXPECT_THROW(plan.require_applies(g), std::invalid_argument);
    DynamicMatcher m(g);
    const std::vector<Colour> before = m.outputs();
    EXPECT_THROW(m.apply(plan), std::invalid_argument);
    // The ChurnPlan overload validates up front: nothing mutated.
    EXPECT_EQ(m.graph().edge_count(), g.edge_count());
    EXPECT_EQ(m.outputs(), before);
  };
  reject(insert_op(0, 0, 2));    // self-loop
  reject(insert_op(0, 1, 2));    // parallel edge
  reject(insert_op(0, 2, 1));    // colour 1 already used at 0
  reject(insert_op(0, 2, 9));    // colour out of range (k = 2)
  reject(delete_op(0, 2, 1));    // no such edge
  reject(delete_op(0, 1, 2));    // live edge, wrong colour
  reject(insert_op(0, 5, 2));    // node out of range
}

TEST(Dynamic, RequireAppliesTracksGraphEvolution) {
  // An op legal only because an earlier op in the plan made it so: delete
  // {0,1} colour 1, then re-insert it as colour 2 at node 0 — properness
  // at 1 blocks colour 2, so use the freed colour 1 at both.
  const graph::EdgeColouredGraph g = graph::path_graph(2, {1, 2});
  const ChurnPlan plan(std::vector<ChurnBatch>{
      ChurnBatch{{delete_op(0, 1, 1), insert_op(0, 1, 1)}}});
  plan.require_applies(g);  // must not throw
  DynamicMatcher m(g);
  m.apply(plan);
  EXPECT_TRUE(m.check().ok());
  EXPECT_EQ(m.graph().edge_count(), g.edge_count());
}

}  // namespace
}  // namespace dmm
