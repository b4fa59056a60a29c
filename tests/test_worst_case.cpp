// §1.2's worst case (experiment E2): greedy needs exactly k-1 rounds, the
// endpoints' fates differ while their radius-(k-2) views coincide.
#include <gtest/gtest.h>

#include "algo/greedy.hpp"
#include "graph/generators.hpp"
#include "local/ball.hpp"
#include "verify/matching.hpp"

namespace dmm {
namespace {

class WorstCaseSweep : public ::testing::TestWithParam<int> {};

TEST_P(WorstCaseSweep, GreedyTakesExactlyKMinusOneRounds) {
  const int k = GetParam();
  const graph::WorstCase wc = graph::worst_case_chain(k);
  const local::RunResult on_long =
      local::run_sync(wc.long_path, algo::greedy_program_factory(), {k + 2});
  EXPECT_EQ(on_long.rounds, k - 1);
  EXPECT_TRUE(verify::check_outputs(wc.long_path, on_long.outputs).ok());
}

TEST_P(WorstCaseSweep, EndpointFatesDiffer) {
  const int k = GetParam();
  const graph::WorstCase wc = graph::worst_case_chain(k);
  const std::vector<gk::Colour> on_long = algo::greedy_outputs(wc.long_path);
  const std::vector<gk::Colour> on_short = algo::greedy_outputs(wc.short_path);
  // Greedy matches the odd classes on the long path and the even ones on
  // the short path, so exactly one of u, v is matched.
  const bool u_matched = on_long[static_cast<std::size_t>(wc.u)] != local::kUnmatched;
  const bool v_matched = on_short[static_cast<std::size_t>(wc.v)] != local::kUnmatched;
  EXPECT_NE(u_matched, v_matched);
}

TEST_P(WorstCaseSweep, EndpointsIndistinguishableBelowKMinusOne) {
  const int k = GetParam();
  const graph::WorstCase wc = graph::worst_case_chain(k);
  graph::EdgeColouredGraph merged(wc.long_path.node_count() + wc.short_path.node_count(), k);
  for (const auto& e : wc.long_path.edges()) merged.add_edge(e.u, e.v, e.colour);
  const graph::NodeIndex offset = wc.long_path.node_count();
  for (const auto& e : wc.short_path.edges()) merged.add_edge(e.u + offset, e.v + offset, e.colour);
  // Radius-(k-2+1) views coincide: no (k-2)-round algorithm separates them.
  EXPECT_TRUE(local::indistinguishable(merged, wc.u, wc.v + offset, k - 2));
  // One more round breaks the symmetry (the colour-1 edge enters the view).
  EXPECT_FALSE(local::indistinguishable(merged, wc.u, wc.v + offset, k - 1));
}

TEST_P(WorstCaseSweep, AnyCorrectAlgorithmMustSeparateThem) {
  // The §1.2 argument: greedy (or any correct algorithm) gives u and v
  // different outputs, hence its running time is at least k-1.  We verify
  // the premise for greedy-as-a-view-function.
  const int k = GetParam();
  const graph::WorstCase wc = graph::worst_case_chain(k);
  const algo::GreedyLocal algo(k);
  const colsys::ColourSystem view_u = local::view_ball(wc.long_path, wc.u, k);
  const colsys::ColourSystem view_v = local::view_ball(wc.short_path, wc.v, k);
  EXPECT_NE(algo.evaluate(view_u), algo.evaluate(view_v));
}

INSTANTIATE_TEST_SUITE_P(AllK, WorstCaseSweep, ::testing::Range(2, 12));

TEST(WorstCase, LongPathGreedyMatchesOddClasses) {
  const graph::WorstCase wc = graph::worst_case_chain(6);
  const std::vector<gk::Colour> outputs = algo::greedy_outputs(wc.long_path);
  // Edges 1, 3, 5 are matched; their endpoints report those colours.
  EXPECT_EQ(outputs[0], 1);
  EXPECT_EQ(outputs[1], 1);
  EXPECT_EQ(outputs[2], 3);
  EXPECT_EQ(outputs[3], 3);
  EXPECT_EQ(outputs[4], 5);
  EXPECT_EQ(outputs[5], 5);
  EXPECT_EQ(outputs[6], local::kUnmatched);
}

}  // namespace
}  // namespace dmm
