// Cross-module property sweeps (parameterised): greedy correctness over a
// grid of (n, k, density) instance families, invariance of outputs under
// node relabelling (anonymity), and the Corollary 1 / §1.3 round-count
// facts on regular instances.
#include <gtest/gtest.h>

#include "algo/greedy.hpp"
#include "algo/truncated_greedy.hpp"
#include "graph/generators.hpp"
#include "local/view_engine.hpp"
#include "lower/adversary.hpp"
#include "verify/matching.hpp"

namespace dmm {
namespace {

struct InstanceParams {
  int n;
  int k;
  double density;
};

class GreedyGrid : public ::testing::TestWithParam<InstanceParams> {};

TEST_P(GreedyGrid, GreedyIsCorrectAndFast) {
  const InstanceParams p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p.n * 1000 + p.k * 10) +
          static_cast<std::uint64_t>(p.density * 7));
  for (int trial = 0; trial < 5; ++trial) {
    const graph::EdgeColouredGraph g = graph::random_coloured_graph(p.n, p.k, p.density, rng);
    const local::RunResult mp = local::run_sync(g, algo::greedy_program_factory(), {p.k + 2});
    const verify::MatchingReport report = verify::check_outputs(g, mp.outputs);
    EXPECT_TRUE(report.ok()) << report.describe();
    EXPECT_LE(mp.rounds, p.k - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GreedyGrid,
    ::testing::Values(InstanceParams{8, 2, 0.5}, InstanceParams{8, 4, 0.9},
                      InstanceParams{24, 3, 0.3}, InstanceParams{24, 6, 0.7},
                      InstanceParams{64, 4, 0.5}, InstanceParams{64, 8, 0.9},
                      InstanceParams{128, 5, 0.2}, InstanceParams{128, 10, 0.8}),
    [](const ::testing::TestParamInfo<InstanceParams>& info) {
      return "n" + std::to_string(info.param.n) + "_k" + std::to_string(info.param.k) + "_d" +
             std::to_string(static_cast<int>(info.param.density * 10));
    });

TEST(Anonymity, OutputsInvariantUnderRelabelling) {
  // Permute node indices; per-node outputs must follow the permutation —
  // no algorithm in this library may depend on identifiers.
  Rng rng(701);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 30, k = 4;
    const graph::EdgeColouredGraph g = graph::random_coloured_graph(n, k, 0.8, rng);
    std::vector<graph::NodeIndex> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng.engine());
    graph::EdgeColouredGraph h(n, k);
    for (const graph::Edge& e : g.edges()) {
      h.add_edge(perm[static_cast<std::size_t>(e.u)], perm[static_cast<std::size_t>(e.v)],
                 e.colour);
    }
    const std::vector<gk::Colour> out_g = algo::greedy_outputs(g);
    const std::vector<gk::Colour> out_h = algo::greedy_outputs(h);
    for (graph::NodeIndex v = 0; v < n; ++v) {
      EXPECT_EQ(out_g[static_cast<std::size_t>(v)],
                out_h[static_cast<std::size_t>(perm[static_cast<std::size_t>(v)])]);
    }
  }
}

TEST(Corollary1, RegularInstanceRoundsScaleWithDegree) {
  // On the d-regular trees produced by the adversary (d = k-1), greedy
  // genuinely spends Θ(Δ) rounds: its horizon is k = Δ+1.
  for (int k = 3; k <= 4; ++k) {
    const algo::GreedyLocal greedy(k);
    const lower::LowerBoundResult result = lower::run_adversary(k, greedy);
    ASSERT_TRUE(result.tight());
    const lower::TightPair& tp = std::get<lower::TightPair>(result.outcome);
    EXPECT_TRUE(tp.u.tree().is_regular(k - 1));
    EXPECT_EQ(tp.d, k - 1);
  }
}

TEST(Section13, TrivialCaseDEqualsK) {
  // d = k: colour class 1 is a perfect matching; a 0-round algorithm
  // (FirstColour) solves these instances outright.
  for (int d = 2; d <= 5; ++d) {
    const graph::EdgeColouredGraph g = graph::hypercube(d);
    const algo::FirstColourLocal naive(d);
    const std::vector<gk::Colour> outputs = local::run_views(g, naive);
    EXPECT_TRUE(verify::check_outputs(g, outputs).ok());
  }
  for (int d = 1; d <= 5; ++d) {
    const graph::EdgeColouredGraph g = graph::complete_bipartite(d);
    const algo::FirstColourLocal naive(d);
    const std::vector<gk::Colour> outputs = local::run_views(g, naive);
    EXPECT_TRUE(verify::check_outputs(g, outputs).ok());
  }
}

TEST(Section13, FirstColourFailsOffTheTrivialCase) {
  // The same 0-round algorithm violates maximality on d = k-1 instances —
  // the lower bound's regime.
  const graph::WorstCase wc = graph::worst_case_chain(4);
  const algo::FirstColourLocal naive(4);
  const std::vector<gk::Colour> outputs = local::run_views(wc.long_path, naive);
  EXPECT_FALSE(verify::check_outputs(wc.long_path, outputs).ok());
}

TEST(TruncatedGreedy, AgreesWithGreedyWhenRadiusSuffices) {
  // For r >= k-1 the truncated greedy IS greedy.
  Rng rng(709);
  const int k = 4;
  const graph::EdgeColouredGraph g = graph::random_coloured_graph(40, k, 0.8, rng);
  const algo::TruncatedGreedy full(k, k - 1);
  const algo::GreedyLocal greedy(k);
  EXPECT_EQ(local::run_views(g, full), local::run_views(g, greedy));
}

TEST(TruncatedGreedy, ProducesM3ViolationsOnLongChains) {
  // r < k-1: on the worst-case chain the truncated view misleads the far
  // endpoint; a concrete non-maximal output appears.
  const int k = 5;
  const graph::WorstCase wc = graph::worst_case_chain(k);
  bool any_violation = false;
  for (int r = 0; r + 1 < k - 1; ++r) {
    const algo::TruncatedGreedy fast(k, r);
    const std::vector<gk::Colour> outputs = local::run_views(wc.long_path, fast);
    if (!verify::check_outputs(wc.long_path, outputs).ok()) any_violation = true;
  }
  EXPECT_TRUE(any_violation);
}

}  // namespace
}  // namespace dmm
