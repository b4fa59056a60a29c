// The greedy algorithm (Lemma 1 / experiment E1): correctness on every
// generator family, round bound k-1, and agreement between all three
// realisations (reference, message-passing, view-based).
#include "algo/greedy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"
#include "local/view_engine.hpp"
#include "verify/matching.hpp"

namespace dmm::algo {
namespace {

using graph::EdgeColouredGraph;

void expect_valid_maximal(const EdgeColouredGraph& g, const std::vector<Colour>& outputs) {
  const verify::MatchingReport report = verify::check_outputs(g, outputs);
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(Greedy, Figure1Instance) {
  const EdgeColouredGraph g = graph::figure1_graph();
  const std::vector<Colour> outputs = greedy_outputs(g);
  expect_valid_maximal(g, outputs);
}

TEST(Greedy, ColourClassPriority) {
  // Colour 1 edges always enter; a colour-2 edge sharing a node does not.
  EdgeColouredGraph g(3, 2);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  const std::vector<Colour> outputs = greedy_outputs(g);
  EXPECT_EQ(outputs[0], 1);
  EXPECT_EQ(outputs[1], 1);
  EXPECT_EQ(outputs[2], local::kUnmatched);
}

TEST(Greedy, MessagePassingMatchesReference) {
  Rng rng(211);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform(2, 40));
    const int k = static_cast<int>(rng.uniform(1, 6));
    const EdgeColouredGraph g = graph::random_coloured_graph(n, k, 0.8, rng);
    const std::vector<Colour> reference = greedy_outputs(g);
    const local::RunResult mp = local::run_sync(g, greedy_program_factory(), {k + 2});
    EXPECT_EQ(mp.outputs, reference) << "n=" << n << " k=" << k;
    EXPECT_LE(mp.rounds, k - 1 < 0 ? 0 : k - 1);
  }
}

TEST(Greedy, ViewBasedMatchesReferenceOnTrees) {
  // GreedyLocal consumes radius-k views; on tree instances these are exact,
  // so outputs must agree everywhere.
  Rng rng(223);
  for (int trial = 0; trial < 10; ++trial) {
    const colsys::ColourSystem s = colsys::regular_system(4, 3, 4);
    const EdgeColouredGraph g = graph::to_graph(s.restricted(4));
    const GreedyLocal algo(4);
    const std::vector<Colour> by_views = local::run_views(g, algo);
    const std::vector<Colour> reference = greedy_outputs(g);
    EXPECT_EQ(by_views, reference);
  }
}

TEST(Greedy, RoundBoundLemma1) {
  // Running time at most k-1 on every instance (Lemma 1).
  Rng rng(227);
  for (int k = 2; k <= 7; ++k) {
    for (int trial = 0; trial < 10; ++trial) {
      const EdgeColouredGraph g =
          graph::random_coloured_graph(static_cast<int>(rng.uniform(4, 50)), k, 0.9, rng);
      const local::RunResult mp = local::run_sync(g, greedy_program_factory(), {k + 2});
      EXPECT_LE(mp.rounds, k - 1);
      expect_valid_maximal(g, mp.outputs);
    }
  }
}

TEST(Greedy, MaximalOnAllGeneratorFamilies) {
  Rng rng(229);
  const std::vector<EdgeColouredGraph> instances = {
      graph::figure1_graph(),
      graph::hypercube(4),
      graph::complete_bipartite(5),
      graph::alternating_cycle(3, 6, 1, 3),
      graph::worst_case_chain(5).long_path,
      graph::worst_case_chain(5).short_path,
      graph::random_coloured_graph(64, 6, 0.5, rng),
      graph::to_graph(colsys::cayley_ball(4, 3)),
      graph::grid_graph(7, 5, false),
      graph::grid_graph(6, 6, true),
  };
  for (const auto& g : instances) {
    expect_valid_maximal(g, greedy_outputs(g));
  }
}

TEST(Greedy, HypercubeMatchesPerfectlyInRoundZero) {
  // d = k: colour class 1 is perfect, so everybody matches at once (§1.3).
  for (int dim = 1; dim <= 5; ++dim) {
    const EdgeColouredGraph g = graph::hypercube(dim);
    const local::RunResult mp = local::run_sync(g, greedy_program_factory(), {dim + 2});
    for (Colour c : mp.outputs) EXPECT_EQ(c, 1);
    EXPECT_EQ(mp.rounds, 0);
  }
}

TEST(Greedy, OnColourSystems) {
  // The colour-system overload agrees with the graph overload.
  const colsys::ColourSystem s = colsys::cayley_ball(4, 4);
  const EdgeColouredGraph g = graph::to_graph(s);
  const std::vector<Colour> on_system = greedy_outputs(s);
  const std::vector<Colour> on_graph = greedy_outputs(g);
  EXPECT_EQ(on_system, on_graph);
}

TEST(Greedy, FinishesAtPalette255) {
  Rng rng(7);
  const EdgeColouredGraph g = graph::random_coloured_graph(100, 255, 0.5, rng);
  expect_valid_maximal(g, greedy_outputs(g));
  // The 255-leaf star: the root takes its colour-1 edge.
  const std::vector<Colour> star = greedy_outputs(colsys::cayley_ball(255, 1));
  EXPECT_EQ(star[0], 1);
  EXPECT_EQ(std::count(star.begin(), star.end(), local::kUnmatched), 254);
}

TEST(GreedyLocal, DeterministicFunctionOfView) {
  const GreedyLocal algo(4);
  const colsys::ColourSystem ball = colsys::cayley_ball(4, 4);
  EXPECT_EQ(algo.evaluate(ball), algo.evaluate(ball));
  EXPECT_EQ(algo.running_time(), 3);
}

TEST(Greedy, EmptyAndEdgelessGraphs) {
  const EdgeColouredGraph g(5, 3);
  const std::vector<Colour> outputs = greedy_outputs(g);
  for (Colour c : outputs) EXPECT_EQ(c, local::kUnmatched);
  expect_valid_maximal(g, outputs);
}

TEST(Greedy, UsesConstantSizeMessages) {
  // The paper (after Theorem 2): the lower bound permits unbounded
  // messages, but the matching upper bound — greedy — needs only tiny
  // ones.  Our greedy sends one status byte per edge per round.
  Rng rng(239);
  for (int k : {3, 6, 10}) {
    const graph::EdgeColouredGraph g = graph::random_coloured_graph(60, k, 0.9, rng);
    const local::RunResult mp = local::run_sync(g, greedy_program_factory(), {k + 2});
    EXPECT_LE(mp.max_message_bytes, 1u) << "k=" << k;
  }
}

TEST(Greedy, NextActiveRoundMatchesABruteForceScanOfTheRow) {
  // After receive(round) returns false, the answer is the round that reads
  // the next colour above round + 1 — c − 1 for the smallest such c.  Every
  // neighbour says "M", so the node never matches and lives to its largest
  // colour.  A freshly initialised program (cursor at port 0, as after a
  // resume) must give the same answer as the stepped one.
  Rng rng(251);
  for (int trial = 0; trial < 200; ++trial) {
    const int span = trial < 100 ? 12 : 255;
    std::vector<Colour> row;
    for (int c = 2; c <= span; ++c) {
      if (rng.uniform(0, 3) == 0) row.push_back(static_cast<Colour>(c));
    }
    if (row.empty()) row.push_back(static_cast<Colour>(span));
    const std::vector<std::string_view> taken(row.size(), "M");
    const local::Inbox inbox(row, taken.data());
    GreedyProgram stepped;
    ASSERT_FALSE(stepped.init(row));
    for (int round = 1;; ++round) {
      const bool halted = stepped.receive(round, inbox);
      ASSERT_EQ(halted, round + 1 >= row.back()) << "trial " << trial << " round " << round;
      if (halted) break;
      int expected = round + 1;
      for (const Colour c : row) {
        if (c > round + 1) {
          expected = c - 1;
          break;
        }
      }
      GreedyProgram fresh;
      ASSERT_FALSE(fresh.init(row));
      EXPECT_EQ(stepped.next_active_round(round), expected)
          << "trial " << trial << " round " << round;
      EXPECT_EQ(fresh.next_active_round(round), expected)
          << "trial " << trial << " round " << round;
    }
  }
}

TEST(Greedy, MatchedEdgesFormMatching) {
  Rng rng(233);
  const EdgeColouredGraph g = graph::random_coloured_graph(50, 5, 0.8, rng);
  const std::vector<Colour> outputs = greedy_outputs(g);
  const auto edges = verify::matched_edges(g, outputs);
  EXPECT_TRUE(verify::is_matching(g, edges));
  EXPECT_TRUE(verify::is_maximal_matching(g, edges));
}

}  // namespace
}  // namespace dmm::algo
